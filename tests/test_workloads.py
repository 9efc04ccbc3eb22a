"""The benchmark's workloads reproduce their recorded exit code and stdout.

perfbench/workloads.py records, for each workload, the CLI arguments,
the exit code and the sha256 of stdout.  Running them here fails the
tests on a changed report byte, which otherwise only a benchmark run
would show.
"""
import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """perfbench's workload table, imported without writing bytecode."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(ROOT / "perfbench"))


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_output_matches_its_gate(name):
    workload = WORKLOADS[name]
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "agroups", *workload.argv],
        capture_output=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == workload.exit_code, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == workload.stdout_sha256

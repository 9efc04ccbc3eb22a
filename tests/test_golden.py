"""Report bytes against golden files recorded before scans were replaced
by theorems (Steinitz rows, Sylow ascent, element orders, lattice atoms,
the bounded family search).

Refactors must keep every report byte: ids are breadth-first discovery
ranks and show up in the output as class representatives.  Each case
runs the CLI in a fresh process, as a user would.
"""
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

ORDER_4000_SPEC = (
    "product(semidirect(field(5,2), cyclic(2), scalar(2)),"
    " semidirect(field(2,4), cyclic(5), scalar(5)))"
)

CASES = {
    "verify_5_2_3_2_4.json": ("verify", "5,2,3,2,4", "--json"),
    "verify_5_2_3_2_4.txt": ("verify", "5,2,3,2,4"),
    "verify_13_3_2_1_3.json": ("verify", "13,3,2,1,3", "--json"),
    "decompose_order4000.json": ("decompose", ORDER_4000_SPEC, "--json"),
    "search_1e6.txt": ("search", "--max-order", "1000000"),
}


def run_against_golden(name, *python_flags):
    proc = subprocess.run(
        [sys.executable, *python_flags, "-m", "agroups", *CASES[name]],
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    run_against_golden(name)


def test_report_matches_golden_under_optimize():
    # python -O strips assert statements; every certificate check must
    # survive that, so the report cannot change.
    run_against_golden("verify_5_2_3_2_4.json", "-O")

"""Report bytes against golden files recorded before scans were replaced
by theorems (Steinitz rows, Sylow ascent, element orders, lattice atoms,
the bounded family search).

Refactors must keep every report byte: ids are breadth-first discovery
ranks and show up in the output as class representatives.  Each case
runs the CLI in a fresh process, as a user would.
"""
import hashlib
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

# stdout sha256 of `verify P --json` for search members without a golden
# file: a p = 2 field leaf on each side of the kernel, and both
# orientations of the order-18816 pair.
VERIFY_SHA256 = {
    "2,5,3,4,2": "51d297ffb29b1cb5c36f27128ab6ea3c3c3a05eb7c2ca7853463b0944924ab79",
    "2,7,3,6,1": "aee3ee210692e61e9c5a7948903cde19d2b3bb4ffb08c7e92bf118990462fb83",
    "7,2,3,1,6": "74246959113ab4d27ffefa4326f0d65f510eb365ec98f49ad7ccc4a242595aa3",
}


def run_cli(args, *python_flags):
    proc = subprocess.run(
        [sys.executable, *python_flags, "-m", "agroups", *args],
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    return proc.stdout


def run_against_golden(name, *python_flags):
    assert run_cli(CASES[name], *python_flags) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    run_against_golden(name)


def test_report_matches_golden_under_optimize():
    # python -O strips assert statements; every certificate check must
    # survive that, so the report cannot change.
    run_against_golden("verify_5_2_3_2_4.json", "-O")


@pytest.mark.parametrize("params", sorted(VERIFY_SHA256))
def test_verify_report_matches_pinned_sha256(params):
    stdout = run_cli(("verify", params, "--json"))
    assert hashlib.sha256(stdout).hexdigest() == VERIFY_SHA256[params]

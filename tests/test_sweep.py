"""bench/sweep.py runs verify on every listed member and checks its bytes.

bench/sweep_1e5.json was recorded with `--max-order 100000` before the
normal lattice gave way to the direct-factor certificate.
"""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN, VERIFY_SHA256

ROOT = Path(__file__).resolve().parent.parent


def sweep(check):
    script = ROOT / "bench" / "sweep.py"
    return subprocess.run(
        [sys.executable, str(script), "--max-order", "12000", "--check", str(check)],
        capture_output=True,
        timeout=300,
    )


def test_sweep_to_12000_verifies_both_members():
    proc = sweep(ROOT / "bench" / "sweep_1e5.json")
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout)
    golden = (GOLDEN / "verify_5_2_3_2_4.json").read_bytes()
    rows = [
        (m["params"], m["order"], m["exit_code"], m["stdout_sha256"])
        for m in doc["members"]
    ]
    assert rows == [
        ("2,5,3,4,2", 12000, 0, VERIFY_SHA256["2,5,3,4,2"]),
        ("5,2,3,2,4", 12000, 0, hashlib.sha256(golden).hexdigest()),
    ]
    assert all(m["wall_s"] > 0 and m["peak_rss_mb"] > 0 for m in doc["members"])
    assert doc["total_wall_s"] == round(sum(m["wall_s"] for m in doc["members"]), 3)


def test_sweep_check_fails_on_a_changed_or_unlisted_member(tmp_path):
    recorded = json.loads((ROOT / "bench" / "sweep_1e5.json").read_text())
    first, second = recorded["members"][:2]
    first["stdout_sha256"] = "0" * 64
    recorded["members"].remove(second)
    check = tmp_path / "check.json"
    check.write_text(json.dumps(recorded))
    proc = sweep(check)
    assert proc.returncode == 1
    assert [line.split(":")[0] for line in proc.stderr.decode().splitlines()] == [
        first["params"],
        second["params"],
    ]

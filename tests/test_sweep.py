"""bench/sweep.py runs verify on every listed member and records its bytes."""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN, VERIFY_SHA256

ROOT = Path(__file__).resolve().parent.parent


def test_sweep_to_12000_verifies_both_members():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "sweep.py"), "--max-order", "12000"],
        capture_output=True,
        timeout=300,
    )
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

"""Time `verify --json` on every family member the search lists.

    python3 bench/sweep.py [--max-order N] [--check FILE]

Lists the members with `agroups search --max-order N --json` (default
100000), then runs `agroups verify P --json` for each member in a fresh
process and records its wall time, its peak RSS (read from os.wait4,
which reports that child alone), its exit code and the sha256 of its
stdout.  Prints one JSON document with a row per member and the totals.
With --check FILE, a document this script printed before, it also
compares each member's exit code and stdout sha256 with FILE's and
exits 1 when one differs or FILE does not list the member.  The agroups
imported is the one under this checkout's `src`.  Stdlib only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def agroups(args: list[str]) -> dict:
    """Run the CLI once; wall time, peak RSS, exit code and stdout bytes."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "agroups", *args],
            stdout=out,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
        out.seek(0)
        data = out.read()
    return {
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),  # Linux reports KiB
        "exit_code": proc.returncode,
        "stdout": data,
    }


def sweep(max_order: int) -> dict:
    listing = agroups(["search", "--max-order", str(max_order), "--json"])
    if listing["exit_code"] != 0:
        raise SystemExit(f"search exited {listing['exit_code']}")
    rows = []
    for member in json.loads(listing["stdout"])["results"]:
        params = ",".join(str(member["params"][k]) for k in "pqrab")
        run = agroups(["verify", params, "--json"])
        rows.append({
            "params": params,
            "order": member["order"],
            "wall_s": run["wall_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "exit_code": run["exit_code"],
            "stdout_sha256": hashlib.sha256(run["stdout"]).hexdigest(),
        })
    return {
        "max_order": max_order,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "members": rows,
        "total_wall_s": round(sum(r["wall_s"] for r in rows), 3),
        "max_peak_rss_mb": max((r["peak_rss_mb"] for r in rows), default=0.0),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-order", type=int, default=100000, metavar="N")
    parser.add_argument("--check", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    doc = sweep(args.max_order)
    print(json.dumps(doc, indent=2))
    if args.check is None:
        return 0
    recorded = {
        m["params"]: (m["exit_code"], m["stdout_sha256"])
        for m in json.loads(args.check.read_text())["members"]
    }
    bad = [
        m["params"]
        for m in doc["members"]
        if recorded.get(m["params"]) != (m["exit_code"], m["stdout_sha256"])
    ]
    for params in bad:
        print(f"{params}: exit code or stdout differs from {args.check}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

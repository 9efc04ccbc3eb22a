"""Record the benchmark of a change against its parent into one JSON file.

    python3 bench/record.py --parent REV --out BENCH_N.json

Runs the unchanged `perfbench/run.py --trace 0` on each workload that
BENCHMARK.json declares, for the run length it declares, on both sides,
the parent commit REV and the change, RUNS times each.  The sides alternate
(parent first on even runs, change first on odd ones), and every run of
a side works in a fresh copy: `git archive REV` for the parent, and for
the change the tracked and untracked-but-not-ignored files of the
working tree.  Run k of both sides uses seed k + 1.  The output holds,
per workload and metric, each side's values with their median and
quartiles, the change's median over the parent's and the number of
runs k in which the change did better than the parent (the direction is
BENCHMARK.json's), next to the seeds, the commits, nproc and the Python
version.  Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

TOP = Path(__file__).resolve().parent.parent
RUNS = 10  # pairs of runs, the fewest from which a gain can be claimed


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=TOP, check=True, capture_output=True, text=True
    ).stdout


def fresh_copy(rev: str | None, dest: Path) -> None:
    """The files of rev, or of the working tree for None, under dest."""
    dest.mkdir()
    if rev is not None:
        archive = subprocess.run(
            ["git", "archive", rev], cwd=TOP, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
        return
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        src = TOP / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def perfbench(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run in root; its last stdout line, the result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {root}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def record(parent: str) -> dict:
    declared = json.loads((TOP / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    names = [w["name"] for w in declared["workloads"]]
    sides = {"parent": parent, "change": None}
    seeds = [k + 1 for k in range(RUNS)]
    got: dict = {w: {"parent": [], "change": []} for w in names}
    with tempfile.TemporaryDirectory() as tmp:
        for k, seed in enumerate(seeds):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                root = Path(tmp) / f"{side}-{k}"
                fresh_copy(sides[side], root)
                for w in names:
                    result = perfbench(root, w, seed, seconds)
                    got[w][side].append(result)
                    print(f"run {k} {side} {w}: correct={result['correct']}",
                          file=sys.stderr, flush=True)
                shutil.rmtree(root)
    higher = {m["name"]: m["better"] == "higher" for m in declared["end_to_end"]}
    workloads = {}
    for w, by_side in got.items():
        metrics = {}
        for name, first in by_side["parent"][0]["metrics"].items():
            row = {"unit": first["unit"]}
            for side, results in by_side.items():
                row[side] = summary([r["metrics"][name]["value"] for r in results])
            base = row["parent"]["median"]
            row["change_over_parent"] = row["change"]["median"] / base if base else None
            pairs = zip(row["parent"]["values"], row["change"]["values"])
            row["change_better_in"] = sum(
                c > p if higher[name] else c < p for p, c in pairs
            )
            metrics[name] = row
        workloads[w] = {
            "correct": {s: all(r["correct"] for r in rs) for s, rs in by_side.items()},
            "metrics": metrics,
        }
    return {
        "parent": git("rev-parse", parent).strip(),
        "change": "working tree on " + git("rev-parse", "HEAD").strip(),
        "runs_per_side": RUNS,
        "seconds": seconds,
        "seeds": seeds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    out = json.dumps(record(args.parent), indent=1) + "\n"
    args.out.write_text(out, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop benchmark of the agroups CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the agroups in `src`.
One client sends one CLI invocation at a time, each a fresh
`python3 -m agroups` process, and starts the next only after the last
has exited, as long as the next is expected to end within S seconds
(at least one invocation).

--trace 0 reports, as medians over the run: wall time, user+sys CPU
time and peak RSS of each invocation, read from that child alone with
os.wait4; the share of invocations whose exit code and stdout sha256
match the recorded ones; and set-up time (importing agroups and building
the input group), measured by separate probe processes.

The three times are scaled to a reference speed.  A shared host can run
the same code 1.5 times slower for minutes at a stretch, which swamps
any change in agroups.  So every REFERENCE_EVERY_S seconds of an
invocation the benchmark stops the child, times a fixed pure-Python loop
(reference_loop) and lets the child go on; wall and CPU time are
multiplied by REFERENCE_S over the loop's median time in the run, which
gives the seconds on a host where the loop takes REFERENCE_S.  A set-up
probe times itself inside its child, so it is not stopped; each probe is
scaled by the loop's time right after it.  The raw times and the loop's
samples are kept in the run's record.

--trace 1 alternates an untraced invocation with a traced one
(perfbench/child.py) and reports per-layer call counts and self times,
`compose` µs per call for each node type, and the traced run's extra
wall time over the untraced one.

The seed orders the set-up probes around the invocations and picks the
ids sampled for `compose` timing; the CLI inputs are fixed.  The last
stdout line is the result as JSON; per-invocation samples and the run
environment go to .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from child import NODE_TYPES, ROOT
from spans import SPAN_NAMES
from workloads import WORKLOADS, Workload

HERE = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
REFERENCE_S = 0.01  # reference_loop's time on the host the times are scaled to
REFERENCE_EVERY_S = 0.5  # how often the host's speed is sampled during an invocation
PROBE_REFERENCE_LOOPS = 5  # reference_loop samples after each set-up probe
RUN_BUDGET_S = 170.0  # every child has ended by then, so the run exits within 180 s
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"groups.compose_us.{t}": "us" for t in NODE_TYPES},
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    """The environment of every child: PYTHONPATH leads to the checkout's src."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None  # None when killed at its timeout
    stdout_sha256: str
    stderr_tail: str


def run_child(
    cmd: list[str], env: dict, timeout: float, reference: list[float] | None = None
) -> tuple[Invocation, bytes]:
    """Run one child to completion and read its own resource usage.

    os.wait4 returns the rusage of that child alone, unlike
    getrusage(RUSAGE_CHILDREN), whose ru_maxrss is the maximum over every
    child reaped so far.  waitid(WNOWAIT) first waits without reaping, so
    the watcher can never signal a reaped, possibly reused, pid.  It
    signals with os.kill, because Popen.send_signal polls first, and that
    poll would reap the child.

    With a `reference` list, the watcher stops the child every
    REFERENCE_EVERY_S seconds, appends one reference_loop time to the
    list and continues the child; the pauses are not counted in its wall
    time.  The host's speed is thus sampled while the child runs.
    """
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(
        dir=OUT_DIR
    ) as err:
        lock = threading.Lock()
        exited = threading.Event()
        state = {"killed": False, "paused": 0.0}
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)

        def watch() -> None:
            deadline = start + max(timeout, 0.0)
            due = start + REFERENCE_EVERY_S if reference is not None else deadline
            while not exited.wait(max(min(due, deadline) - time.perf_counter(), 0.0)):
                with lock:
                    if exited.is_set():
                        return
                    if time.perf_counter() >= deadline:
                        os.kill(proc.pid, signal.SIGKILL)
                        state["killed"] = True
                        return
                    paused = time.perf_counter()
                    os.kill(proc.pid, signal.SIGSTOP)
                    reference.append(reference_loop())
                    os.kill(proc.pid, signal.SIGCONT)
                    state["paused"] += time.perf_counter() - paused
                due += REFERENCE_EVERY_S

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        finally:
            with lock:
                exited.set()
            watcher.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start - state["paused"]
        exit_code = os.waitstatus_to_exitcode(status)
        proc.returncode = exit_code  # already reaped; stops Popen from waiting again
        out.seek(0)
        data = out.read()
        err.seek(0)
        tail = err.read()[-2000:].decode("utf-8", "replace")
    inv = Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        exit_code=None if state["killed"] else exit_code,
        stdout_sha256=hashlib.sha256(data).hexdigest(),
        stderr_tail=tail,
    )
    return inv, data


class Runner:
    """Spawns the children of one benchmark run against a shared deadline."""

    def __init__(self, workload: Workload, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.reference: list[float] = []  # reference_loop seconds, sampled during invocations

    def _spawn(self, cmd: list[str], reference=None) -> tuple[Invocation, bytes] | None:
        left = self.deadline - time.monotonic()
        if left <= 0:
            return None
        self.attempted += 1
        return run_child([sys.executable, *cmd], self.env, left, reference)

    def _record(self, inv: Invocation, ok: bool, what: str) -> bool:
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: exit {inv.exit_code}\n{inv.stderr_tail}", file=sys.stderr)
        return ok

    def cli(self, trace_base: Path | None = None) -> tuple[Invocation, bool] | None:
        """One CLI invocation, traced into trace_base.* when given."""
        if trace_base is None:
            cmd, reference = ["-m", "agroups"], self.reference
        else:
            cmd, reference = [str(HERE / "child.py"), "trace", str(self.seed), str(trace_base)], None
        got = self._spawn([*cmd, *self.workload.argv], reference)
        if got is None:
            return None
        inv, w = got[0], self.workload
        ok = inv.exit_code == w.exit_code and inv.stdout_sha256 == w.stdout_sha256
        return inv, self._record(inv, ok, "traced invocation" if trace_base else "invocation")

    def setup_probe(self) -> tuple[float, float] | None:
        """Set-up seconds of one probe and the reference_loop time after it."""
        w = self.workload
        cmd = [str(HERE / "child.py"), "setup", w.setup]
        got = self._spawn(cmd + ([w.setup_arg] if w.setup_arg is not None else []))
        if got is None:
            return None
        inv, data = got
        try:
            report = json.loads(data)
            ok = inv.exit_code == 0 and report["order"] == w.setup_order
        except (ValueError, KeyError, TypeError):
            ok = False
        self._record(inv, ok, "set-up probe")
        if not ok:
            return None
        return report["setup_s"], _median(reference_loop() for _ in range(PROBE_REFERENCE_LOOPS))

    def until_seconds(self, step) -> list:
        """Call step() back to back while the next call should end in time.

        The first call always runs; another starts only when the mean
        call so far would still finish within the run's seconds.
        """
        done = []
        start = time.monotonic()
        while True:
            got = step(len(done))
            if got is None:
                break
            done.append(got)
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(done) > self.seconds:
                break
        return done


def reference_loop() -> float:
    """Seconds taken by fixed work of the kinds agroups does.

    Modular powers as in numtheory, table lookups and set inserts as in
    the group engine; no agroups code, so a change to the program cannot
    change the reference.
    """
    start = time.perf_counter()
    table = [(7 * i + 3) % 97 for i in range(97)]
    for m in range(1001, 3601, 2):
        y = 2
        for _ in range(60):
            y = y * 2 % m
        x, seen = m % 97, set()
        for _ in range(60):
            x = table[x]
            seen.add(x * m + y)
    return time.perf_counter() - start


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def timed_run(runner: Runner) -> tuple[dict, dict]:
    rng = random.Random(runner.seed)
    before = rng.randint(0, SETUP_PROBES)
    setups = [runner.setup_probe() for _ in range(before)]
    calls = runner.until_seconds(lambda _i: runner.cli())
    setups += [runner.setup_probe() for _ in range(SETUP_PROBES - before)]
    invs = [inv for inv, _ok in calls]
    setups = [s for s in setups if s is not None]
    raw = {
        "wall_s": _median(i.wall_s for i in invs),
        "cpu_s": _median(i.cpu_s for i in invs),
        "setup_s": _median(s for s, _ref in setups),
    }
    scale = REFERENCE_S / _median(runner.reference or [reference_loop()])
    values = {
        "wall_s": raw["wall_s"] * scale,
        "cpu_s": raw["cpu_s"] * scale,
        "peak_rss_mb": _median(i.peak_rss_mb for i in invs),
        "setup_s": _median(s * REFERENCE_S / ref for s, ref in setups),
        "ok_ratio": sum(ok for _inv, ok in calls) / max(len(calls), 1),
    }
    detail = {
        "raw": raw,
        "reference_s": runner.reference,
        "setup_probes_before": before,
        "setup_s_and_reference_s": setups,
        "invocations": [dict(asdict(inv), ok=ok) for inv, ok in calls],
    }
    return values, detail


def traced_run(runner: Runner) -> tuple[dict, dict]:
    stem = f"{runner.workload.name}-seed{runner.seed}"

    def pair(k: int):
        plain = runner.cli()
        if plain is None:
            return None
        base = OUT_DIR / f"{stem}-{k}"
        traced = runner.cli(base)
        if traced is None:
            return None
        summary = None
        if traced[1]:
            summary = json.loads(Path(f"{base}.summary.json").read_text(encoding="utf-8"))
        return plain, traced, summary

    pairs = runner.until_seconds(pair)
    summaries = [s for _p, _t, s in pairs if s is not None]
    values = {}
    for name in SPAN_NAMES:
        for kind in ("calls", "self_s"):
            values[f"{name}.{kind}"] = _median(
                s["layers"].get(name, {}).get(kind, 0) for s in summaries
            )
    for node in NODE_TYPES:
        values[f"groups.compose_us.{node}"] = _median(
            s["compose_us"].get(node, 0.0) for s in summaries
        )
    values["trace.overhead_s"] = _median(
        traced.wall_s - s["post_main_s"] - plain.wall_s
        for (plain, _), (traced, _), s in pairs
        if s is not None
    )
    detail = {
        "pairs": [
            {"untraced": asdict(p), "traced": asdict(t), "summary": s}
            for (p, _), (t, _), s in pairs
        ],
    }
    return values, detail


def run_environment() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
    }


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "agroups" / "cli.py").is_file():
        print(f"error: no agroups sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    environment = run_environment()
    print(json.dumps({"environment": environment}), flush=True)

    runner = Runner(WORKLOADS[args.workload], args.seed, args.seconds)
    values, detail = (traced_run if args.trace else timed_run)(runner)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "result": result,
        **detail,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

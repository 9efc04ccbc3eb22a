"""Child processes of the benchmark: set-up probes and traced CLI runs.

    python3 perfbench/child.py setup KIND [ARG]
        Time importing agroups and building the input group, where KIND
        is "family" (ARG is p,q,r,a,b), "spec" (ARG is a group spec) or
        "import" (nothing is built).  Prints one JSON line.

    python3 perfbench/child.py trace SEED OUT_BASE AGROUPS_ARG...
        Run the agroups CLI in-process with spans around the traced
        functions, then time `compose` on the largest group of each node
        type the run built, with ids sampled from SEED.  The CLI's stdout
        and exit code pass through unchanged; the spans go to
        OUT_BASE.spans.jsonl and the per-name summary to
        OUT_BASE.summary.json.

PYTHONPATH must point at the checkout's `src`.
"""
from __future__ import annotations

import importlib
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, install

ROOT = Path(__file__).resolve().parent.parent
NODE_TYPES = (
    "CyclicGroup",
    "FieldAddGroup",
    "DirectProductGroup",
    "SemidirectProductGroup",
    "QuotientGroup",
)
COMPOSE_SAMPLES = 20000
COMPOSE_REPEATS = 5


def _check_source(module) -> None:
    """Refuse to measure an agroups that is not the checkout's own."""
    src = (ROOT / "src").resolve()
    if src not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"agroups was imported from {module.__file__}, not {src}")


def setup(kind: str, arg: str | None) -> int:
    start = time.perf_counter()
    cli = importlib.import_module("agroups.cli")
    if kind == "family":
        group = cli.build_family_group(
            cli.FamilyParams.parse(arg), cli.DEFAULT_ELEMENT_CAP
        )
    elif kind == "spec":
        group = cli.parse_group_spec(arg, cli.DEFAULT_ELEMENT_CAP)
    elif kind == "import":
        group = None
    else:
        raise SystemExit(f"unknown set-up kind {kind!r}")
    elapsed = time.perf_counter() - start
    _check_source(cli)
    order = group.order if group is not None else None
    print(json.dumps({"setup_s": elapsed, "order": order}))
    return 0


def collect_largest_nodes(group_class) -> dict:
    """Keep the largest group of each node type built from now on."""
    largest: dict = {}
    finish = group_class._finish

    def recording_finish(self):
        finish(self)
        kind = type(self).__name__
        if kind not in largest or self.order > largest[kind].order:
            largest[kind] = self

    group_class._finish = recording_finish
    return largest


def compose_us(group, rng: random.Random) -> float:
    """Median over repeats of the µs per `compose` call on sampled id pairs."""
    n = group.order
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(COMPOSE_SAMPLES)]
    comp = group.compose
    times = []
    for _ in range(COMPOSE_REPEATS):
        start = time.perf_counter()
        for i, j in pairs:
            comp(i, j)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / COMPOSE_SAMPLES * 1e6


def trace(seed: int, out_base: str, argv: list[str]) -> int:
    cli = importlib.import_module("agroups.cli")
    groups = importlib.import_module("agroups.groups")
    _check_source(cli)
    tracer = Tracer(run_id=f"{Path(out_base).name}-{os.getpid()}")
    nodes = collect_largest_nodes(groups.FiniteGroup)
    install(tracer)
    start = time.perf_counter()
    code = tracer.call("cli.main", cli.main, (argv,), {})
    sys.stdout.flush()
    main_s = time.perf_counter() - start
    after_main = time.perf_counter()

    rng = random.Random(seed)
    compose = {
        kind: compose_us(nodes[kind], rng) for kind in NODE_TYPES if kind in nodes
    }
    with open(f"{out_base}.spans.jsonl", "w", encoding="utf-8") as fh:
        for index, (name, begin, end, parent, self_s) in enumerate(tracer.spans):
            fh.write(json.dumps([tracer.run_id, index, name, begin, end, parent, self_s]))
            fh.write("\n")
    summary = {
        "run_id": tracer.run_id,
        "exit_code": code,
        "main_s": main_s,
        "spans": len(tracer.spans),
        "layers": tracer.summary(),
        "self_s_by_parent": tracer.by_parent(),
        "compose_us": compose,
        "compose_orders": {kind: g.order for kind, g in nodes.items()},
        "post_main_s": time.perf_counter() - after_main,
    }
    with open(f"{out_base}.summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return code


def main(args: list[str]) -> int:
    if args[:1] == ["setup"] and len(args) in (2, 3):
        return setup(args[1], args[2] if len(args) == 3 else None)
    if args[:1] == ["trace"] and len(args) >= 4:
        return trace(int(args[1]), args[2], args[3:])
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

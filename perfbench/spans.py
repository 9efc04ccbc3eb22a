"""In-memory spans around the public functions of the agroups modules.

The wrappers are installed from outside the package, so the program's
own files stay untouched.  Each span records its name, start, end,
parent span and self time (its duration minus the time covered by its
child spans).  The engine's `compose` is never wrapped: it is called
millions of times per run, and is timed separately by a sampling loop.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, qualified name) of every traced function, by layer.
TRACED = (
    ("cli", "verification_report"),
    ("cli", "render_report"),
    ("cli", "parse_group_spec"),
    ("constructions", "build_family_group"),
    ("constructions", "search_family"),
    ("fields", "make_field"),
    ("fields", "element_of_order"),
    ("numtheory", "multiplicative_order"),
    ("numtheory", "primes_up_to"),
    ("groups", "FiniteGroup.closure"),
    ("groups", "FiniteGroup.centralizer"),
    ("groups", "FiniteGroup.normalizer"),
    ("groups", "FiniteGroup.conjugacy_classes"),
    ("groups", "FiniteGroup.element_orders"),
    ("groups", "FiniteGroup.sylow"),
    ("groups", "FiniteGroup.normal_subgroups"),
    ("groups", "FiniteGroup.derived_subgroup"),
    ("groups", "FiniteGroup.quotient"),
    ("groups", "Subgroup.is_normal"),
    ("groups", "Action.__init__"),
    ("classify", "structure_report"),
    ("classify", "is_a_prime_group"),
    ("classify", "normal_hall"),
    ("classify", "direct_factor_pairs"),
    ("classify", "two_prime_decompose"),
    ("steinitz", "family_projection"),
    ("steinitz", "order_ell_classification"),
    ("steinitz", "sylow_exponent_report"),
    ("steinitz", "steinitz_report"),
)


def span_name(module: str, qualname: str) -> str:
    """`groups.FiniteGroup.closure` reports as `groups.closure`."""
    return f"{module}.{qualname.removeprefix('FiniteGroup.')}"


SPAN_NAMES = tuple(span_name(m, q) for m, q in TRACED)


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        # (name, start, end, parent index or -1, self seconds)
        self.spans: list[tuple[str, float, float, int, float] | None] = []
        self._open: list[list] = []  # [span index, seconds covered by children]

    def call(self, name: str, fn, args, kwargs):
        parent = self._open[-1][0] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._open.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._open.pop()
            duration = end - start
            if self._open:
                self._open[-1][1] += duration
            self.spans[index] = (name, start, end, parent, duration - frame[1])

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, self seconds and inclusive seconds.

        Inclusive time counts only outermost spans of a name, so a
        recursive call is not counted twice.
        """
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        names = [s[0] for s in self.spans]
        for name, start, end, parent, self_s in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                row["total_s"] += end - start
        return dict(out)

    def by_parent(self) -> dict[str, dict[str, float]]:
        """Self seconds of each span name split by the name of its parent."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, _start, _end, parent, self_s in self.spans:
            out[name][self.spans[parent][0] if parent >= 0 else "-"] += self_s
        return {k: dict(v) for k, v in out.items()}


def install(tracer: Tracer):
    """Wrap every target in place and return a function that undoes it.

    A module-level function is replaced under every name bound to it in
    every loaded module of agroups, because modules such as `cli` import
    functions by name.  A method is replaced on its class.
    """
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "agroups" or n.startswith("agroups."))]
    for module_name, qualname in TRACED:
        module = sys.modules[f"agroups.{module_name}"]
        name = span_name(module_name, qualname)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(name, original))
            undo.append((owner, attr, original))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original)
        for m in modules:
            for bound, value in list(vars(m).items()):
                if value is original:
                    setattr(m, bound, wrapped)
                    undo.append((m, bound, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore

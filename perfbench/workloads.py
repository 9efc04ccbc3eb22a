"""Benchmark workloads: fixed CLI inputs and the output each must produce.

The expected exit code and stdout sha256 were recorded from the commit
that introduced the benchmark; the reports must stay byte-identical.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # arguments after `agroups`
    setup: str  # what set-up builds: "family", "spec" or "import" (nothing)
    setup_arg: str | None
    setup_order: int | None  # order of the group set-up must build
    exit_code: int
    stdout_sha256: str


DECOMPOSE_SPEC = (
    "product(semidirect(field(2,6), cyclic(3), scalar(3)), "
    "semidirect(field(3,4), cyclic(4), scalar(4)))"
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-f2",
            argv=("verify", "13,3,2,1,3", "--json"),
            setup="family",
            setup_arg="13,3,2,1,3",
            setup_order=27378,
            exit_code=0,
            stdout_sha256="f36f53627b17c1c823a5823cba082536f0ab69a8add2c3b619ae6b055dc60632",
        ),
        Workload(
            name="decompose-62208",
            argv=("decompose", DECOMPOSE_SPEC, "--json"),
            setup="spec",
            setup_arg=DECOMPOSE_SPEC,
            setup_order=62208,
            exit_code=0,
            stdout_sha256="993a64128065916aece8a66cb0ddb28a205b4075217c9834a9f3f8ea6012e927",
        ),
        Workload(
            name="search-3e5",
            argv=("search", "--max-order", "300000"),
            setup="import",
            setup_arg=None,
            setup_order=None,
            exit_code=0,
            stdout_sha256="38f7c7a28f8a5150a48f46bb7f62eb916c41352b00faf89fd4df3a072d7e2d10",
        ),
    )
}

"""Command line interface: verify, search, and decompose subcommands.

JSON is the single machine format; the text rendering is a projection
of the same report dictionary, never a second source of truth.  Exit
codes: 0 all requested properties hold, 1 unparseable or invalid
input, 2 a property or certificate check failed, 3 a resource cap was
exceeded.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict

from .classify import (
    direct_factor_pairs,
    is_a_prime_group,
    structure_report,
    two_prime_decompose,
)
from .constructions import (
    FamilyParams,
    build_family_group,
    cr_coordinate_subgroup,
    gamma_coordinate_ids,
    power_action,
    search_family,
)
from .errors import (
    BadParams,
    DecompositionInvariantFailed,
    LatticeCapExceeded,
    MixedFields,
    NotAGroup,
    OrderDoesNotDivide,
    SizeCapExceeded,
    TooManyPrimes,
    WrongOrder,
)
from .fields import element_of_order, make_field
from .groups import (
    DEFAULT_ELEMENT_CAP,
    CyclicGroup,
    DirectProductGroup,
    FieldAddGroup,
    FiniteGroup,
    SemidirectProductGroup,
)
from .numtheory import MAX_INPUT_DIGITS, prime_divisors
from .steinitz import steinitz_report

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_PROPERTY_FAILED = 2
EXIT_RESOURCE = 3

# OSError covers an --out path that cannot be written.
_INPUT_ERRORS = (BadParams, OrderDoesNotDivide, WrongOrder, MixedFields, OSError)
_PROPERTY_ERRORS = (NotAGroup, TooManyPrimes, DecompositionInvariantFailed)
_CAP_ERRORS = (SizeCapExceeded, LatticeCapExceeded)

GROUP_SPEC_GRAMMAR = """\
group spec grammar:
  expr := cyclic(N)
        | field(P,A)                     additive group of GF(P^A)
        | product(expr, expr)
        | semidirect(base, cyclic(K), scalar(M))
        | family(P,Q,R,A,B)
        | P,Q,R,A,B                      shorthand for family(...)
  base := cyclic(N) | field(P,A)
  scalar(M) acts by multiplication by a unit of multiplicative
  order M; M must divide K.  Example: the order-4000 two-prime
  fixture is
    product(semidirect(field(5,2), cyclic(2), scalar(2)),
            semidirect(field(2,4), cyclic(5), scalar(5)))
"""


# ---------------------------------------------------------------------------
# report assembly


def verification_report(group: FiniteGroup) -> dict:
    """Full property report for a family group, in stable key order."""
    params = group.family_params
    struct = structure_report(group)
    centralizer = group.centralizer(cr_coordinate_subgroup(group))
    gamma = gamma_coordinate_ids(group)
    recognizer = is_a_prime_group(group)
    pairs = direct_factor_pairs(group)
    stz = steinitz_report(group)
    return {
        "params": params.as_dict(),
        "order": group.order,
        "structure": {
            "factorization": [[p, e] for p, e in struct.factorization],
            "abelian": struct.abelian,
            "solvable": struct.solvable,
            "derived_length": struct.derived_length,
            "derived_orders": list(struct.derived_orders),
            "metabelian": struct.metabelian,
            "centralizer_of_cr": {
                "order": centralizer.order,
                "expected_order": params.p * params.q * params.r,
                "matches_coordinate_subgroup": centralizer.ids == gamma,
            },
        },
        "sylow": [asdict(row) for row in struct.sylow],
        "factorizations": [[a.order, b.order] for a, b in pairs],
        "a_prime": {"value": recognizer.value, "trace": recognizer.trace},
        "steinitz": {
            "parity_caveat": stz.parity_caveat,
            "kernel_order": stz.kernel_order,
            "complement_order": stz.complement_order,
            "sylow_exponents": [
                [ell, e] for ell, e in sorted(stz.sylow_exponents.items())
            ],
            "rows": [
                {
                    **asdict(r),
                    "exponent": {
                        "num": r.exponent.numerator,
                        "den": r.exponent.denominator,
                    },
                }
                for r in stz.rows
            ],
            "all_checks_pass": stz.checks_pass,
        },
    }


def failed_family_properties(report: dict) -> list[str]:
    """Names of the exit-code predicates that fail, from report content alone.

    An empty list means the parameters give a genuine counterexample.
    """
    struct = report["structure"]
    cz = struct["centralizer_of_cr"]
    checks = {
        "sylow_abelian": all(row["abelian"] for row in report["sylow"]),
        "metabelian": struct["metabelian"],
        "nonabelian": not struct["abelian"],
        "derived_length_2": struct["derived_length"] == 2,
        "no_normal_sylow": all(not row["normal"] for row in report["sylow"]),
        "no_direct_factorization": report["factorizations"] == [],
        "outside_inductive_class": report["a_prime"]["value"] is False,
        "centralizer_of_cr_order": cz["order"] == cz["expected_order"],
        "centralizer_of_cr_is_coordinates": (
            cz["matches_coordinate_subgroup"] is True
        ),
        "steinitz_checks_pass": report["steinitz"]["all_checks_pass"] is True,
    }
    return [name for name, ok in checks.items() if not ok]


# ---------------------------------------------------------------------------
# rendering


def _scalar(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return str(value)


def _text_lines(key: str, value, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        out.append(f"{pad}{key}:")
        for k, v in value.items():
            _text_lines(k, v, indent + 1, out)
    elif isinstance(value, list):
        if value and all(isinstance(x, str) for x in value):
            out.append(f"{pad}{key}:")
            for x in value:
                out.append(f"{pad}  {x}")
        elif all(not isinstance(x, (dict, list)) for x in value):
            out.append(
                f"{pad}{key}: [" + ", ".join(_scalar(x) for x in value) + "]"
            )
        else:
            out.append(f"{pad}{key}:")
            for x in value:
                if isinstance(x, dict):
                    out.append(f"{pad}  -")
                    for k, v in x.items():
                        _text_lines(k, v, indent + 2, out)
                else:
                    out.append(
                        f"{pad}  - ["
                        + ", ".join(_scalar(y) for y in x)
                        + "]"
                    )
    else:
        out.append(f"{pad}{key}: {_scalar(value)}")


def render_report(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(report, indent=2) + "\n"
    out: list[str] = []
    for key, value in report.items():
        _text_lines(key, value, 0, out)
    return "\n".join(out) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# group spec parsing for the decompose subcommand

_TOKEN = re.compile(r"\s*([a-z_]+|\d+|[(),])")
# Real specs nest a few levels; the depth bound keeps the recursive
# parser far from the interpreter's limit.
_MAX_SPEC_DEPTH = 50


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise BadParams(f"unexpected character in group spec: {text[pos:]!r}")
        out.append(match.group(1))
        pos = match.end()
    return out


def _parse_node(tokens: list[str], pos: int, depth: int = 0):
    if depth > _MAX_SPEC_DEPTH:
        raise BadParams(f"group spec nests deeper than {_MAX_SPEC_DEPTH} levels")
    if pos >= len(tokens):
        raise BadParams("group spec ended unexpectedly")
    tok = tokens[pos]
    if tok.isdigit():
        if len(tok) > MAX_INPUT_DIGITS:
            raise BadParams(
                f"integer in group spec has more than {MAX_INPUT_DIGITS} digits"
            )
        return int(tok), pos + 1
    if tok in "(),":
        raise BadParams(f"unexpected {tok!r} in group spec")
    if pos + 1 >= len(tokens) or tokens[pos + 1] != "(":
        raise BadParams(f"expected '(' after {tok!r}")
    pos += 2
    args = []
    while True:
        node, pos = _parse_node(tokens, pos, depth + 1)
        args.append(node)
        if pos >= len(tokens):
            raise BadParams("group spec ended before ')'")
        if tokens[pos] == ",":
            pos += 1
            continue
        if tokens[pos] == ")":
            return (tok, tuple(args)), pos + 1
        raise BadParams(f"expected ',' or ')' in group spec, got {tokens[pos]!r}")


def _want_ints(name: str, args: tuple, count: int) -> tuple[int, ...]:
    if len(args) != count or any(not isinstance(a, int) for a in args):
        raise BadParams(f"{name} takes exactly {count} integer argument(s)")
    return args


def _smallest_unit_of_order(n: int, m: int) -> int:
    """Least u with multiplicative order exactly m modulo n.

    u^m = 1 makes u a unit whose order divides m; the order is m itself
    unless u^(m/l) = 1 for some prime l dividing m.
    """
    primes = prime_divisors(m)
    for u in range(1, n):
        if pow(u, m, n) == 1 and all(pow(u, m // ell, n) != 1 for ell in primes):
            return u
    raise BadParams(f"no unit of order {m} modulo {n}")


def _realize(node, cap: int) -> FiniteGroup:
    if isinstance(node, int):
        raise BadParams("bare integers are not group specs")
    name, args = node
    if name == "cyclic":
        (n,) = _want_ints(name, args, 1)
        return CyclicGroup(n, cap)
    if name == "field":
        p, a = _want_ints(name, args, 2)
        return FieldAddGroup(make_field(p, a, cap), cap)
    if name == "product":
        if len(args) != 2:
            raise BadParams("product takes exactly 2 group arguments")
        return DirectProductGroup(
            _realize(args[0], cap), _realize(args[1], cap), cap
        )
    if name == "family":
        p, q, r, a, b = _want_ints(name, args, 5)
        return build_family_group(FamilyParams(p, q, r, a, b), cap)
    if name == "semidirect":
        if (
            len(args) != 3
            or isinstance(args[1], int)
            or isinstance(args[2], int)
            or args[1][0] != "cyclic"
            or args[2][0] != "scalar"
        ):
            raise BadParams(
                "semidirect takes (base, cyclic(K), scalar(M))"
            )
        base_node = args[0]
        if isinstance(base_node, int) or base_node[0] not in ("cyclic", "field"):
            raise BadParams("semidirect base must be cyclic(N) or field(P,A)")
        (k,) = _want_ints("cyclic", args[1][1], 1)
        (m,) = _want_ints("scalar", args[2][1], 1)
        if m < 1 or k < 1 or k % m:
            raise BadParams(f"scalar order {m} must divide the acting order {k}")
        base = _realize(base_node, cap)
        if base.order * k > cap:
            raise SizeCapExceeded(
                f"semidirect order {base.order} * {k} exceeds the cap {cap}"
            )
        acting = CyclicGroup(k, cap)
        if base_node[0] == "field":
            unit = element_of_order(base.field, m)
        else:
            unit = _smallest_unit_of_order(base.n, m) if base.n > 1 else 0
        return SemidirectProductGroup(
            base, acting, power_action(base, acting, unit), cap
        )
    raise BadParams(f"unknown constructor {name!r} in group spec")


def parse_group_spec(text: str, cap: int) -> FiniteGroup:
    """Build the group described by a spec expression or family shorthand."""
    stripped = text.strip()
    if "(" not in stripped:
        return build_family_group(FamilyParams.parse(stripped), cap)
    tokens = _tokenize(stripped)
    node, pos = _parse_node(tokens, 0)
    if pos != len(tokens):
        raise BadParams(f"trailing tokens in group spec: {tokens[pos:]}")
    return _realize(node, cap)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(ns: argparse.Namespace) -> int:
    group = build_family_group(FamilyParams.parse(ns.params), ns.cap)
    report = verification_report(group)
    _emit(render_report(report, ns.json), ns.out)
    failed = failed_family_properties(report)
    if failed:
        _fail("failed properties: " + ", ".join(failed))
        return EXIT_PROPERTY_FAILED
    return EXIT_OK


def cmd_search(ns: argparse.Namespace) -> int:
    rows = search_family(ns.max_order)
    if ns.json:
        report = {
            "max_order": ns.max_order,
            "results": [
                {"params": params.as_dict(), "order": order}
                for params, order in rows
            ],
        }
        _emit(json.dumps(report, indent=2) + "\n", ns.out)
    else:
        lines = [f"{params} -> order {order}" for params, order in rows]
        _emit("".join(line + "\n" for line in lines), ns.out)
    return EXIT_OK


def cmd_decompose(ns: argparse.Namespace) -> int:
    group = parse_group_spec(ns.spec, ns.cap)
    dec = two_prime_decompose(group)
    report = {
        "spec": ns.spec.strip(),
        "order": group.order,
        "primes": [x for x in (dec.p, dec.q) if x is not None],
        "parts": [
            {"prime": dec.p, "order": dec.k_p.order},
            {"prime": dec.q, "order": dec.k_q.order},
        ],
        "certificate": dict(dec.certificate),
    }
    _emit(render_report(report, ns.json), ns.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agroups",
        description=(
            "Construct and check the metabelian counterexample family, "
            "search its small parameters, and decompose two-prime groups "
            "with abelian Sylow subgroups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify",
        help="build a family group and check every claimed property",
    )
    p_verify.add_argument("params", help='family parameters "p,q,r,a,b"')
    p_verify.add_argument("--json", action="store_true", help="emit JSON")
    p_verify.add_argument("--out", metavar="FILE", help="write output to FILE")
    p_verify.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ELEMENT_CAP,
        help="element enumeration cap (default %(default)s)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser(
        "search", help="list all family parameters up to an order bound"
    )
    p_search.add_argument("--max-order", type=int, required=True, metavar="N")
    p_search.add_argument("--json", action="store_true", help="emit JSON")
    p_search.add_argument("--out", metavar="FILE", help="write output to FILE")
    p_search.set_defaults(func=cmd_search)

    p_dec = sub.add_parser(
        "decompose",
        help="two-prime decomposition with a verified certificate",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=GROUP_SPEC_GRAMMAR,
    )
    p_dec.add_argument("spec", help="group spec expression (see below)")
    p_dec.add_argument("--json", action="store_true", help="emit JSON")
    p_dec.add_argument("--out", metavar="FILE", help="write output to FILE")
    p_dec.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ELEMENT_CAP,
        help="element enumeration cap (default %(default)s)",
    )
    p_dec.set_defaults(func=cmd_decompose)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_BAD_INPUT
        return EXIT_OK if code == 0 else EXIT_BAD_INPUT
    try:
        return ns.func(ns)
    except _INPUT_ERRORS as exc:
        _fail(str(exc))
        return EXIT_BAD_INPUT
    except _PROPERTY_ERRORS as exc:
        _fail(f"{type(exc).__name__}: {exc}")
        return EXIT_PROPERTY_FAILED
    except _CAP_ERRORS as exc:
        _fail(str(exc))
        return EXIT_RESOURCE

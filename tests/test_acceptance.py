"""End-to-end acceptance battery.

Each test covers one acceptance criterion and prints a single
PASS/FAIL line so the battery can be read off a bare pytest run.
Criteria with a wall-clock budget measure it with time.monotonic.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from agroups import (
    Action,
    CyclicGroup,
    DirectProductGroup,
    FamilyParams,
    SemidirectProductGroup,
    build_family_group,
    cli,
    cr_coordinate_ids,
    direct_factor_pairs,
    field_semidirect,
    gamma_coordinate_ids,
    is_a_group,
    is_a_prime_group,
    power_action,
    structure_report,
    two_prime_decompose,
)

from naive import (
    naive_centralizer,
    naive_closure,
    naive_element_order,
    naive_normalizer,
)

PARAMS1 = "5,2,3,2,4"
PARAMS2 = "13,3,2,1,3"


def run_criterion(capsys, number, label, checks):
    failures = []
    try:
        checks(failures)
    except Exception as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: {verdict} - {label}")
    assert not failures, failures


def expect(failures, cond, msg):
    if not cond:
        failures.append(msg)


def cyclic_semidirect(n, k, unit):
    base = CyclicGroup(n)
    top = CyclicGroup(k)
    return SemidirectProductGroup(base, top, power_action(base, top, unit))


def heisenberg27():
    base = DirectProductGroup(CyclicGroup(3), CyclicGroup(3))
    top = CyclicGroup(3)

    def shear(t, d):
        x, y = base.pair_of(d)
        return base.id_of_pair((x + t * y) % 3, y)

    rows = [[shear(t, d) for d in range(9)] for t in range(3)]
    return SemidirectProductGroup(base, top, Action(base, top, rows))


def test_criterion_1_fixture_construction(capsys):
    def checks(bad):
        start = time.monotonic()
        g1 = build_family_group(FamilyParams.parse(PARAMS1))
        g2 = build_family_group(FamilyParams.parse(PARAMS2))
        elapsed = time.monotonic() - start
        expect(bad, g1.order == 12000, f"first fixture order {g1.order}")
        expect(bad, g2.order == 27378, f"second fixture order {g2.order}")
        expect(bad, elapsed < 30.0, f"construction took {elapsed:.1f}s")

    run_criterion(capsys, 1, "both fixture groups build with exact orders", checks)


def test_criterion_2_counterexample_properties(capsys, family1, family2):
    def checks(bad):
        start = time.monotonic()
        for g in (family1, family2):
            struct = structure_report(g)
            expect(bad, is_a_group(g), f"{g.order}: some Sylow is non-abelian")
            expect(bad, struct.metabelian and not struct.abelian,
                   f"{g.order}: derived length {struct.derived_length}")
            for info in struct.sylow:
                expect(bad, info.abelian, f"{g.order}: Sylow {info.prime} non-abelian")
                expect(bad, not info.normal, f"{g.order}: Sylow {info.prime} is normal")
            expect(bad, direct_factor_pairs(g) == [],
                   f"{g.order}: splits as a direct product")
            expect(bad, not is_a_prime_group(g),
                   f"{g.order}: recognizer accepted the counterexample")
        elapsed = time.monotonic() - start
        expect(bad, elapsed < 300.0, f"property battery took {elapsed:.1f}s")

    run_criterion(capsys, 2, "fixtures are metabelian non-split A-groups "
                             "outside the inductive class", checks)


def test_criterion_3_small_centralizer(capsys, family1, family2):
    def checks(bad):
        for g, pqr in ((family1, 30), (family2, 78)):
            gen = g.id_of_pair(0, 1)
            cz = g.centralizer([gen])
            expect(bad, cz.order == pqr, f"{g.order}: centralizer order {cz.order}")
            expect(bad, cz.ids == gamma_coordinate_ids(g),
                   f"{g.order}: centralizer is not the cyclic coordinate set")
            expect(bad, set(cr_coordinate_ids(g)) <= cz.idset,
                   f"{g.order}: acting cycle escapes its own centralizer")

    run_criterion(capsys, 3, "rescaling generator has centralizer of order pqr",
                  checks)


def two_prime_candidates():
    return [
        ("c12", lambda: CyclicGroup(12)),
        ("c45", lambda: CyclicGroup(45)),
        ("c4xc25", lambda: DirectProductGroup(CyclicGroup(4), CyclicGroup(25))),
        ("alt4", lambda: field_semidirect(2, 2, 3)),
        ("sym3", lambda: field_semidirect(3, 1, 2)),
        ("f5_c4", lambda: field_semidirect(5, 1, 4)),
        ("f9_c8", lambda: field_semidirect(3, 2, 8)),
        ("f25_c3", lambda: field_semidirect(5, 2, 3)),
        ("f7_c3", lambda: field_semidirect(7, 1, 3)),
        ("c9_c2", lambda: cyclic_semidirect(9, 2, 8)),
        ("c5_c8", lambda: cyclic_semidirect(5, 8, 2)),
        ("sym3xc2", lambda: DirectProductGroup(field_semidirect(3, 1, 2), CyclicGroup(2))),
        ("d5xc5", lambda: DirectProductGroup(field_semidirect(5, 1, 2), CyclicGroup(5))),
        ("f13_c4", lambda: field_semidirect(13, 1, 4)),
    ]


def test_criterion_4_two_prime_decomposition(capsys):
    def checks(bad):
        h1 = field_semidirect(5, 2, 2)
        h2 = field_semidirect(2, 4, 5)
        fixed = [
            ("c6", CyclicGroup(6), (2, 3)),
            ("c3_c4", cyclic_semidirect(3, 4, 2), (12, 1)),
            ("h1", h1, (50, 1)),
            ("h2", h2, (1, 80)),
            ("h1xh2", DirectProductGroup(h1, h2), (50, 80)),
        ]
        rng = random.Random(20260815)
        extra = rng.sample(two_prime_candidates(), 5)
        cases = fixed + [(name, build(), None) for name, build in extra]
        for name, g, part_orders in cases:
            dec = two_prime_decompose(g)
            flaws = sorted(k for k, v in dec.certificate.items() if not v)
            expect(bad, not flaws, f"{name}: certificate failed {flaws}")
            expect(bad, dec.k_p.order * dec.k_q.order == g.order,
                   f"{name}: parts do not cover the group")
            expect(bad, dec.k_p.idset & dec.k_q.idset == {0},
                   f"{name}: parts overlap")
            if part_orders is not None:
                got = (dec.k_p.order, dec.k_q.order)
                expect(bad, got == part_orders,
                       f"{name}: part orders {got}, wanted {part_orders}")
            expect(bad, bool(is_a_prime_group(g)),
                   f"{name}: two-prime A-group rejected by the recognizer")

    run_criterion(capsys, 4, "two-prime groups decompose with verified "
                             "certificates", checks)


def rule_built_groups():
    h1 = field_semidirect(5, 2, 2)
    h2 = field_semidirect(2, 4, 5)
    s3 = field_semidirect(3, 1, 2)
    return [
        ("c24", CyclicGroup(24)),
        ("c4900", CyclicGroup(4900)),
        ("c8xc9", DirectProductGroup(CyclicGroup(8), CyclicGroup(9))),
        ("c25xc25", DirectProductGroup(CyclicGroup(25), CyclicGroup(25))),
        ("sym3", s3),
        ("c3_c4", cyclic_semidirect(3, 4, 2)),
        ("alt4", field_semidirect(2, 2, 3)),
        ("h1", h1),
        ("h2", h2),
        ("f9_c8", field_semidirect(3, 2, 8)),
        ("f49_c16", field_semidirect(7, 2, 16)),
        ("f11_c5", field_semidirect(11, 1, 5)),
        ("f13_c12", field_semidirect(13, 1, 12)),
        ("c9_c2", cyclic_semidirect(9, 2, 8)),
        ("c5_c8", cyclic_semidirect(5, 8, 2)),
        ("f17_c8", field_semidirect(17, 1, 8)),
        ("sym3xc4", DirectProductGroup(s3, CyclicGroup(4))),
        ("sym3xsym3", DirectProductGroup(s3, field_semidirect(3, 1, 2))),
        ("h1xh2", DirectProductGroup(h1, h2)),
        ("c3_c4xf11_c5", DirectProductGroup(cyclic_semidirect(3, 4, 2),
                                        field_semidirect(11, 1, 5))),
        ("alt4xc25", DirectProductGroup(field_semidirect(2, 2, 3), CyclicGroup(25))),
        ("sym3xf5_c4", DirectProductGroup(s3, field_semidirect(5, 1, 4))),
    ]


def test_criterion_5_recognizer_matches_rules(capsys):
    def checks(bad):
        groups = rule_built_groups()
        expect(bad, len(groups) >= 20, f"only {len(groups)} sample groups")
        for name, g in groups:
            expect(bad, g.order <= 5000, f"{name}: order {g.order} too large")
            expect(bad, bool(is_a_prime_group(g)), f"{name}: rejected")
        hb = heisenberg27()
        expect(bad, not is_a_prime_group(hb),
               "non-abelian p-group accepted by the recognizer")

    run_criterion(capsys, 5, "rule-built groups are recognized and a "
                             "non-A-group is rejected", checks)


def test_criterion_6_search(capsys, tmp_path):
    def checks(bad):
        out = tmp_path / "search.json"
        start = time.monotonic()
        code = cli.main(["search", "--max-order", "30000", "--json",
                         "--out", str(out)])
        elapsed = time.monotonic() - start
        expect(bad, code == 0, f"exit code {code}")
        expect(bad, elapsed < 10.0, f"search took {elapsed:.1f}s")
        report = json.loads(out.read_text(encoding="utf-8"))
        orders = sorted(row["order"] for row in report["results"])
        expect(bad, orders == [12000, 12000, 18816, 18816, 27378, 27378],
               f"orders {orders}")
        tuples = {tuple(row["params"][k] for k in "pqrab")
                  for row in report["results"]}
        for wanted in ((5, 2, 3, 2, 4), (2, 5, 3, 4, 2),
                       (13, 3, 2, 1, 3), (3, 13, 2, 3, 1)):
            expect(bad, wanted in tuples, f"missing parameter tuple {wanted}")

    run_criterion(capsys, 6, "parameter search finds exactly the known "
                             "family members", checks)


def test_criterion_7_steinitz_battery(capsys, steinitz1, steinitz2):
    def checks(bad):
        for rep, kernel_order in ((steinitz1, 400), (steinitz2, 351)):
            expect(bad, rep.checks_pass, f"order {rep.order}: checks failed")
            expect(bad, rep.kernel_order == kernel_order,
                   f"order {rep.order}: kernel order {rep.kernel_order}")
            for ell, exponent in rep.sylow_exponents.items():
                expect(bad, exponent == ell,
                       f"order {rep.order}: Sylow {ell} exponent {exponent}")
            for row in rep.rows:
                expect(bad, row.holds(), f"order {rep.order}: bad row {row}")
                if row.case == "a":
                    expect(bad, row.normalizer_equals_centralizer is True
                           and row.absorbed, f"case a flags wrong: {row}")
                else:
                    expect(bad, row.in_kernel is True and not row.absorbed,
                           f"case b flags wrong: {row}")
                expected = Fraction((row.ell - 1) * (rep.order // row.ell), 2)
                expect(bad, row.exponent == expected,
                       f"exponent {row.exponent} for prime {row.ell}")

        def breakdown(rep):
            out = {}
            for row in rep.rows:
                key = (row.ell, row.case)
                out[key] = out.get(key, 0) + 1
            return out

        expect(bad, breakdown(steinitz1) == {(2, "a"): 2, (2, "b"): 1,
                                             (3, "a"): 2, (5, "a"): 20,
                                             (5, "b"): 4},
               f"first fixture breakdown {breakdown(steinitz1)}")
        expect(bad, breakdown(steinitz2) == {(2, "a"): 1, (3, "a"): 4,
                                             (3, "b"): 1, (13, "a"): 36,
                                             (13, "b"): 2},
               f"second fixture breakdown {breakdown(steinitz2)}")
        ell3 = {row.exponent for row in steinitz1.rows if row.ell == 3}
        expect(bad, ell3 == {Fraction(4000)}, f"order-3 exponents {ell3}")
        ell2 = {row.exponent for row in steinitz2.rows if row.ell == 2}
        expect(bad, ell2 == {Fraction(13689, 2)}, f"order-2 exponents {ell2}")

    run_criterion(capsys, 7, "Steinitz exponent battery passes on both "
                             "fixtures", checks)


def test_criterion_8_oracle_agreement(capsys, family1):
    def checks(bad):
        corpus = [
            CyclicGroup(6),
            field_semidirect(3, 1, 2),
            cyclic_semidirect(3, 4, 2),
            field_semidirect(5, 2, 2),
            field_semidirect(2, 4, 5),
            DirectProductGroup(field_semidirect(3, 1, 2), CyclicGroup(4)),
            family1.quotient(family1.derived_subgroup()),
            field_semidirect(3, 3, 13),
        ]
        rng = random.Random(8)
        total = 0
        agreed = 0
        for g in corpus:
            ids = range(g.order) if g.order <= 120 else rng.sample(
                range(g.order), 90)
            for i in ids:
                total += 1
                agreed += g.element_order(i) == naive_element_order(g, i)
            singles = rng.sample(range(g.order), 4)
            for i in singles:
                total += 1
                agreed += (g.centralizer([i]).ids
                           == tuple(naive_centralizer(g, [i])))
                total += 1
                sub = g.closure([i])
                agreed += (g.normalizer(sub).ids
                           == tuple(naive_normalizer(g, sub.ids)))
                total += 1
                agreed += sub.ids == tuple(naive_closure(g, [i]))
        expect(bad, total >= 300, f"only {total} oracle comparisons")
        expect(bad, agreed == total, f"{total - agreed} of {total} disagreed")

    run_criterion(capsys, 8, "indexed algorithms agree with brute-force "
                             "references", checks)


def test_criterion_9_deterministic_cli(capsys):
    def checks(bad):
        cmd = [sys.executable, "-m", "agroups", "verify", PARAMS1, "--json"]
        first = subprocess.run(cmd, capture_output=True, timeout=300)
        second = subprocess.run(cmd, capture_output=True, timeout=300)
        expect(bad, first.returncode == 0, f"first run exit {first.returncode}")
        expect(bad, second.returncode == 0,
               f"second run exit {second.returncode}")
        expect(bad, first.stdout == second.stdout,
               "verify output differs between runs")
        expect(bad, first.stdout.endswith(b"\n"), "missing trailing newline")
        report = json.loads(first.stdout.decode("utf-8"))
        expect(bad, report["order"] == 12000, "unexpected report content")

    run_criterion(capsys, 9, "verification output is byte-identical across "
                             "processes", checks)

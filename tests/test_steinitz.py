import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from agroups import (
    BadParams,
    CyclicGroup,
    NotFamilyGroup,
    PrimeDoesNotDivide,
    class_weight,
    family_projection,
    field_semidirect,
    order_ell_classification,
    steinitz_exponent_table,
    sylow_exponent_report,
)


def test_projection_orders(family1, family2):
    proj1 = family_projection(family1)
    assert proj1.kernel.order == 400
    assert proj1.complement.order == 30
    proj2 = family_projection(family2)
    assert proj2.kernel.order == 351
    assert proj2.complement.order == 78


def test_projection_rejects_non_family():
    with pytest.raises(NotFamilyGroup):
        family_projection(field_semidirect(3, 1, 2))


def test_projection_is_retraction_homomorphism(family1):
    proj = family_projection(family1)
    pi = proj.to_complement
    comp = family1.compose
    assert pi[0] == 0
    for i in proj.complement.ids:
        assert pi[i] == i
    for g in (13, 444, 7777):
        for x in (1, 29, 11999):
            assert pi[comp(g, x)] == comp(pi[g], pi[x])
    assert [i for i in range(family1.order) if pi[i] == 0] == list(
        proj.kernel.ids
    )


OPTIMIZED_PROJECTION = """
import sys
from agroups import DecompositionInvariantFailed, FamilyParams, build_family_group
from agroups import constructions, steinitz

if not sys.flags.optimize:
    sys.exit("not running under -O")
group = build_family_group(FamilyParams(5, 2, 3, 2, 4))
{corruption}
try:
    steinitz.family_projection(group)
except DecompositionInvariantFailed as exc:
    print(exc)
else:
    sys.exit("corrupted projection passed")
"""


def run_corrupted_projection(corruption):
    """stdout of family_projection on family 1 under python -O after corruption."""
    script = OPTIMIZED_PROJECTION.format(corruption=corruption)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


def test_projection_checks_survive_optimize():
    # Hand the projection the complement as its kernel: closed, but wrong.
    out = run_corrupted_projection(
        "steinitz.kernel_coordinate_ids = constructions.gamma_coordinate_ids"
    )
    assert out.startswith("projection checks failed: kernel_order,")
    assert "kernel_times_complement_covers_group" in out


SWAP_RETRACTION = """
pi = list(constructions.complement_retraction(group))
inside = set(constructions.kernel_coordinate_ids(group))
inside |= set(constructions.gamma_coordinate_ids(group))
x = next(i for i in range(group.order) if i not in inside)
y = next(i for i in range(x + 1, group.order) if i not in inside and pi[i] != pi[x])
pi[x], pi[y] = pi[y], pi[x]
steinitz.complement_retraction = lambda g: tuple(pi)
"""


def test_swapped_retraction_fails_only_the_homomorphism_check():
    # Same image set, kernel and fixed complement: only the coset
    # identity x pi(x)^-1 in K can catch the swap.
    out = run_corrupted_projection(SWAP_RETRACTION)
    assert out == "projection checks failed: retraction_is_homomorphism\n"


def test_sylow_exponent_reports(family1, family2):
    assert sylow_exponent_report(family1) == {2: 2, 3: 3, 5: 5}
    assert sylow_exponent_report(family2) == {2: 2, 3: 3, 13: 13}
    # negative control: a cyclic 2-group has exponent above its prime
    assert sylow_exponent_report(CyclicGroup(4)) == {2: 4}


def test_class_weight_formula():
    assert class_weight(3, 12000) == 4000
    assert class_weight(5, 12000) == 4800
    assert class_weight(2, 12000) == 3000
    assert class_weight(13, 27378) == 12636
    assert class_weight(3, 27378) == 9126
    assert class_weight(2, 27378) == Fraction(13689, 2)


def test_order_ell_errors(family1):
    with pytest.raises(PrimeDoesNotDivide):
        order_ell_classification(family1, 7)
    with pytest.raises(BadParams):
        order_ell_classification(family1, 4)
    with pytest.raises(NotFamilyGroup):
        order_ell_classification(field_semidirect(3, 1, 2), 3)


def test_fixture1_ell5_case_b_count(family1):
    rows = order_ell_classification(family1, 5)
    case_b = [r for r in rows if r.case == "b"]
    assert sum(r.class_size for r in case_b) == 24
    assert all(r.in_kernel is True for r in case_b)
    assert all(r.normalizer_equals_centralizer is None for r in case_b)


def test_fixture1_ell3_all_case_a(family1):
    rows = order_ell_classification(family1, 3)
    assert rows and all(r.case == "a" for r in rows)
    assert all(r.normalizer_equals_centralizer is True for r in rows)
    assert all(r.exponent == 4000 for r in rows)
    assert all(r.absorbed for r in rows)


def test_rows_partition_prime_order_elements(family1, family2, steinitz1, steinitz2):
    for group, report in ((family1, steinitz1), (family2, steinitz2)):
        orders = group.element_orders()
        counts = Counter(orders)
        reps = [r.class_rep for r in report.rows]
        assert len(reps) == len(set(reps))
        per_ell = Counter()
        for r in report.rows:
            per_ell[r.ell] += r.class_size
        for ell in (2, 3, 5, 13):
            if group.order % ell == 0:
                assert per_ell[ell] == counts[ell]


def test_exponent_table_matches_report(family1, steinitz1):
    assert steinitz_exponent_table(family1) == steinitz1.rows


def test_case_tags_follow_projection(family1, steinitz1):
    proj = family_projection(family1)
    orders = family1.element_orders()
    for r in steinitz1.rows:
        image = proj.to_complement[r.class_rep]
        if r.case == "a":
            assert orders[image] == r.ell
        else:
            assert image == 0


def test_reports_pass_all_checks(steinitz1, steinitz2):
    assert steinitz1.checks_pass
    assert steinitz2.checks_pass
    assert steinitz1.parity_caveat and steinitz2.parity_caveat
    assert steinitz1.kernel_order == 400
    assert steinitz1.complement_order == 30
    assert steinitz2.kernel_order == 351
    assert steinitz2.complement_order == 78


def test_report_frozen_exponents(steinitz1, steinitz2):
    def exponents(report):
        return {r.ell: r.exponent for r in report.rows}

    assert exponents(steinitz1) == {
        2: Fraction(3000),
        3: Fraction(4000),
        5: Fraction(4800),
    }
    assert exponents(steinitz2) == {
        2: Fraction(13689, 2),
        3: Fraction(9126),
        13: Fraction(12636),
    }


def test_report_row_shapes(steinitz2):
    kinds = Counter((r.ell, r.case) for r in steinitz2.rows)
    assert kinds[(2, "a")] == 1
    assert kinds[(2, "b")] == 0
    assert kinds[(3, "b")] == 1
    assert kinds[(13, "b")] == 2
    for r in steinitz2.rows:
        assert r.absorbed == (r.case == "a")
        assert r.holds()

import contextlib
import io
import json
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroups import classify, cli, constructions, groups, steinitz
from agroups.cli import main, parse_group_spec
from agroups.errors import BadParams, LatticeCapExceeded
from agroups.groups import DEFAULT_ELEMENT_CAP, CyclicGroup
from agroups.numtheory import multiplicative_order


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "agroups", *args],
        capture_output=True,
        timeout=300,
    )


def test_no_command_is_bad_input(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "verify" in out and "search" in out and "decompose" in out


def test_decompose_help_documents_grammar(capsys):
    assert main(["decompose", "--help"]) == 0
    out = capsys.readouterr().out
    assert "semidirect(base, cyclic(K), scalar(M))" in out


def test_verify_bad_params(capsys):
    assert main(["verify", "5,2,3,1,4"]) == 1
    err = capsys.readouterr().err
    assert "6 does not divide 5^1 - 1 = 4" in err
    assert main(["verify", "5,2,3"]) == 1
    assert main(["verify", "1,2,3,4,5"]) == 1
    capsys.readouterr()


def test_verify_cap_exceeded(capsys):
    assert main(["verify", "5,2,3,2,4", "--cap", "100"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "3,2,5,100000000,4"),
        ("decompose", "field(3,100000000)"),
        ("decompose", "family(3,2,5,100000000,4)"),
    ],
)
def test_huge_exponent_hits_cap_fast(args):
    start = time.perf_counter()
    proc = run_cli(*args)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3
    assert b"exceeds the cap" in proc.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "args, code",
    [
        (("verify", "2305843009213693951,2,3,1,1"), 1),
        (("decompose", "field(2305843009213693951,1)"), 3),
        (("verify", "2305843009213693951,2,3,1,122"), 3),
    ],
    ids=["verify-bad-divisibility", "decompose-field", "verify-over-cap"],
)
def test_huge_prime_is_answered_fast(args, code):
    start = time.perf_counter()
    proc = run_cli(*args)
    elapsed = time.perf_counter() - start
    assert proc.returncode == code, proc.stderr
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "args, code",
    [
        (("verify", "10000000000000000000000013,2,3,1,1"), 1),
        (("decompose", "10000000000000000000000013,2,3,1,1"), 1),
        (("search", "--max-order", str(10**13)), 3),
    ],
    ids=["verify-25-digit-prime", "decompose-25-digit-prime", "search-1e13"],
)
def test_oversized_number_is_refused_at_once(args, code):
    # A 25-digit prime is past exact Miller-Rabin and would trial-divide;
    # a search bound of 10^13 would sieve gigabytes.
    start = time.perf_counter()
    proc = run_cli(*args)
    elapsed = time.perf_counter() - start
    assert proc.returncode == code
    err = proc.stderr.decode()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert elapsed < 1.0


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_path_is_bad_input(tmp_path, target):
    out = tmp_path / "absent" / "x.txt" if target == "missing-dir" else tmp_path
    proc = run_cli("search", "--max-order", "100000", "--out", str(out))
    assert proc.returncode == 1
    err = proc.stderr.decode()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "n, code, bound", [(7919, 0, 5.0), (999983, 3, 1.0)], ids=["7919", "999983"]
)
def test_cyclic_semidirect_decompose_is_prompt(n, code, bound):
    # 2n = 1999966 is over the default cap before any unit is searched.
    start = time.perf_counter()
    proc = run_cli("decompose", f"semidirect(cyclic({n}), cyclic(2), scalar(2))")
    elapsed = time.perf_counter() - start
    assert proc.returncode == code, proc.stderr
    assert elapsed < bound


def test_smallest_unit_of_order_matches_the_order_scan():
    for n in range(2, 120):
        for m in range(1, 13):
            units = [
                u for u in range(1, n)
                if gcd(u, n) == 1 and multiplicative_order(u, n) == m
            ]
            if units:
                assert cli._smallest_unit_of_order(n, m) == units[0]
            else:
                with pytest.raises(BadParams):
                    cli._smallest_unit_of_order(n, m)


def test_search_at_its_bound_extends_the_1e6_listing(capsys):
    # Rows are sorted by order, so the listing up to 10^6 is a prefix.
    assert main(["search", "--max-order", str(constructions.MAX_SEARCH_ORDER)]) == 0
    out = capsys.readouterr().out
    small = (Path(__file__).parent / "golden" / "search_1e6.txt").read_text()
    assert out.startswith(small) and len(out) > len(small)


@pytest.mark.parametrize(
    "spec",
    [
        "product(cyclic(1), " * 2000 + "cyclic(1)" + ")" * 2000,
        "cyclic(" + "7" * 5000 + ")",
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_oversized_spec_is_bad_input(spec):
    proc = run_cli("decompose", spec)
    assert proc.returncode == 1
    err = proc.stderr.decode()
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_lattice_cap_is_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(groups, "LATTICE_CAP", 2)
    with pytest.raises(LatticeCapExceeded):
        CyclicGroup(6).normal_subgroups()
    # The certificate settles rule 3 for family members: no lattice, no cap.
    assert main(["verify", "5,2,3,2,4", "--json"]) == 0
    golden = Path(__file__).parent / "golden" / "verify_5_2_3_2_4.json"
    assert capsys.readouterr().out == golden.read_text()
    # Without an answer from it, verify builds the lattice and hits the cap.
    monkeypatch.setattr(classify, "certified_indecomposable", lambda g: False)
    assert main(["verify", "5,2,3,2,4"]) == 3
    assert capsys.readouterr().err == "error: normal lattice exceeds 2 subgroups\n"


def test_verify_invariant_failure_is_exit_2(capsys, monkeypatch):
    # A wrong kernel makes family_projection's recorded checks fail.
    monkeypatch.setattr(
        steinitz, "kernel_coordinate_ids", constructions.gamma_coordinate_ids
    )
    assert main(["verify", "5,2,3,2,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: DecompositionInvariantFailed: projection checks failed: kernel_order,"
    )


def test_huge_exponent_bad_divisibility_is_bad_input(capsys):
    assert main(["verify", "3,2,5,100000001,4"]) == 1
    assert "10 does not divide 3^100000001 - 1 = 2 mod 10" in capsys.readouterr().err


def test_verify_exit_2_names_failed_properties(capsys, monkeypatch):
    golden = Path(__file__).parent / "golden" / "verify_5_2_3_2_4.json"
    report = json.loads(golden.read_text())
    report["a_prime"]["value"] = True
    report["structure"]["centralizer_of_cr"]["order"] = 60
    monkeypatch.setattr(cli, "verification_report", lambda group: report)
    assert main(["verify", "5,2,3,2,4", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == json.dumps(report, indent=2) + "\n"
    assert captured.err == (
        "error: failed properties: outside_inductive_class,"
        " centralizer_of_cr_order\n"
    )


def test_verify_fixture1_json(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code = main(["verify", "5,2,3,2,4", "--json", "--out", str(out_file)])
    assert code == 0
    capsys.readouterr()
    raw = out_file.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw
    report = json.loads(raw.decode("utf-8"))
    assert list(report.keys()) == [
        "params",
        "order",
        "structure",
        "sylow",
        "factorizations",
        "a_prime",
        "steinitz",
    ]
    assert report["params"] == {"p": 5, "q": 2, "r": 3, "a": 2, "b": 4}
    assert report["order"] == 12000
    assert report["structure"]["derived_length"] == 2
    assert report["structure"]["centralizer_of_cr"] == {
        "order": 30,
        "expected_order": 30,
        "matches_coordinate_subgroup": True,
    }
    assert report["factorizations"] == []
    assert report["a_prime"]["value"] is False
    assert isinstance(report["a_prime"]["trace"], list)
    assert report["steinitz"]["all_checks_pass"] is True
    assert [row["prime"] for row in report["sylow"]] == [2, 3, 5]
    assert all(row["abelian"] and not row["normal"] for row in report["sylow"])
    ell3 = [r for r in report["steinitz"]["rows"] if r["ell"] == 3]
    assert all(r["exponent"] == {"num": 4000, "den": 1} for r in ell3)


def test_verify_text_output_mentions_key_fields(capsys):
    assert main(["verify", "5,2,3,2,4"]) == 0
    out = capsys.readouterr().out
    assert "order: 12000" in out
    assert "derived_length: 2" in out
    assert "all_checks_pass: true" in out


def test_search_text(capsys):
    assert main(["search", "--max-order", "30000"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "2,5,3,4,2 -> order 12000",
        "5,2,3,2,4 -> order 12000",
        "2,7,3,6,1 -> order 18816",
        "7,2,3,1,6 -> order 18816",
        "3,13,2,3,1 -> order 27378",
        "13,3,2,1,3 -> order 27378",
    ]


def test_search_json_and_empty(capsys):
    assert main(["search", "--max-order", "100", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"max_order": 100, "results": []}
    assert main(["search", "--max-order", "0"]) == 1
    capsys.readouterr()


def test_decompose_cyclic6(capsys):
    assert main(["decompose", "cyclic(6)", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 6
    assert report["primes"] == [2, 3]
    assert report["parts"] == [
        {"prime": 2, "order": 2},
        {"prime": 3, "order": 3},
    ]
    assert all(report["certificate"].values())


def test_decompose_product_fixture(capsys):
    spec = (
        "product(semidirect(field(5,2), cyclic(2), scalar(2)),"
        " semidirect(field(2,4), cyclic(5), scalar(5)))"
    )
    assert main(["decompose", spec, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 4000
    assert {p["prime"]: p["order"] for p in report["parts"]} == {2: 50, 5: 80}
    assert all(report["certificate"].values())


def test_decompose_family_shorthand_too_many_primes(capsys):
    assert main(["decompose", "5,2,3,2,4"]) == 2
    assert "TooManyPrimes" in capsys.readouterr().err
    assert main(["decompose", "family(5,2,3,2,4)"]) == 2
    capsys.readouterr()


def test_decompose_not_a_group(capsys):
    assert main(["decompose", "semidirect(cyclic(4), cyclic(4), scalar(2))"]) == 2
    assert "NotAGroup" in capsys.readouterr().err


def test_decompose_parse_errors(capsys):
    for spec in (
        "cyclic(6",
        "cyclic()",
        "nonsense(3)",
        "cyclic(6) extra",
        "product(cyclic(2))",
        "semidirect(product(cyclic(2), cyclic(3)), cyclic(2), scalar(2))",
        "semidirect(cyclic(5), cyclic(4), scalar(3))",
        "5,2,3,1,4",
        "cyclic(6)]",
    ):
        assert main(["decompose", spec]) == 1, spec
        capsys.readouterr()


def test_decompose_one_prime(capsys):
    assert main(["decompose", "cyclic(8)", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["primes"] == [2]
    assert report["parts"][0] == {"prime": 2, "order": 8}
    assert report["parts"][1] == {"prime": None, "order": 1}


def test_parse_group_spec_shapes():
    g = parse_group_spec("product(cyclic(2), cyclic(3))", DEFAULT_ELEMENT_CAP)
    assert g.order == 6
    g = parse_group_spec("semidirect(cyclic(3), cyclic(4), scalar(2))", DEFAULT_ELEMENT_CAP)
    assert g.order == 12 and not g.is_abelian()
    g = parse_group_spec("field(3,3)", DEFAULT_ELEMENT_CAP)
    assert g.order == 27 and g.is_abelian()
    with pytest.raises(BadParams):
        parse_group_spec("cyclic(2,3)", DEFAULT_ELEMENT_CAP)


def test_cli_entry_point_subprocess():
    proc = run_cli("search", "--max-order", "12000")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines == ["2,5,3,4,2 -> order 12000", "5,2,3,2,4 -> order 12000"]


def test_verify_json_byte_identical_across_processes():
    first = run_cli("verify", "5,2,3,2,4", "--json")
    second = run_cli("verify", "5,2,3,2,4", "--json")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_verify_fixture2_subprocess_exit_zero():
    proc = run_cli("verify", "13,3,2,1,3", "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout.decode("utf-8"))
    assert report["order"] == 27378
    assert report["structure"]["centralizer_of_cr"]["order"] == 78
    assert report["steinitz"]["all_checks_pass"] is True


_INT = st.integers(0, 12)
_LEAF = st.one_of(
    st.builds("cyclic({})".format, _INT),
    st.builds("field({},{})".format, _INT, _INT),
)
_SPEC = st.one_of(
    st.recursive(
        _LEAF,
        lambda sub: st.one_of(
            st.builds("product({}, {})".format, sub, sub),
            st.builds("semidirect({}, cyclic({}), scalar({}))".format, sub, _INT, _INT),
        ),
        max_leaves=4,
    ),
    st.builds("family({},{},{},{},{})".format, _INT, _INT, _INT, _INT, _INT),
    st.builds("{},{},{},{},{}".format, _INT, _INT, _INT, _INT, _INT),
)


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return main(argv)


@settings(max_examples=300)
@given(spec=_SPEC, cap=st.sampled_from([500, 5000]), as_json=st.booleans())
def test_random_specs_exit_with_a_documented_code(spec, cap, as_json):
    argv = ["decompose", spec, "--cap", str(cap)] + ["--json"] * as_json
    assert quiet_main(argv) in (0, 1, 2, 3)


@settings(max_examples=300)
@given(command=st.sampled_from(["decompose", "verify"]), text=st.text(max_size=40))
def test_arbitrary_text_exits_with_a_documented_code(command, text):
    assert quiet_main([command, text, "--cap", "5000"]) in (0, 1, 2, 3)

import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import symtwistor
from symtwistor.cli import (
    MAX_APPLY_DEGREE,
    MAX_DECOMPOSE_HOMOGENEITY,
    MAX_GENERATE_DEGREE,
    MAX_SPINOR_QDEGREE,
    MAX_TABLE_ORDER,
    main,
)
from symtwistor import operators
from symtwistor.exactnum import GaussianRational as G
from symtwistor.kernels import monogenic_minus, raising_chain
from symtwistor.parsing import MAX_COMPOSE_TERMS, MAX_EXPONENT, MAX_OPERATOR_DEGREE
from symtwistor.spinor import QPoly, Spinor
from symtwistor.weyl import BasisTag

XY, ZZ = BasisTag.XY, BasisTag.ZZBAR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spinor(tmp_path, spinor, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spinor.to_json()))
    return str(path)


# ---- verify ----


def test_verify_combinatorics_passes(capsys):
    code, out, err = run(capsys, "verify", "combinatorics")
    assert code == 0
    assert "0 failed" in out
    assert err == ""


def fail_lines(out):
    return [line for line in out.splitlines() if line.startswith("FAIL ")]


def test_verify_algebra_reports_known_failure(capsys):
    # the bracket of the two raising/lowering operators comes out as
    # -i times the shifted Euler operator, so this suite stays red
    code, out, err = run(capsys, "verify", "algebra")
    assert code == 1
    assert fail_lines(out) == [
        "FAIL sl2.ds-xs: [D_s, X_s] = E+1; witness: "
        "commutator is (-i) + (-i)*y*dy + (-i)*x*dx, which equals -i*(E+1), not E+1"
    ]


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "combinatorics", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["suite"] == "combinatorics"
    assert data["failed"] == 0
    assert all(c["status"] == "pass" for c in data["checks"])
    assert all("anchor" in c for c in data["checks"])


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


def test_verify_all_detects_corrupted_operator_table(capsys, monkeypatch):
    monkeypatch.setitem(operators._BUILDERS, "xs", lambda: operators.build_xs() + 1)
    code, out, _ = run(capsys, "verify", "all")
    assert code == 1
    # a check that is green on the honest table must now carry a witness
    assert "FAIL sl2.euler-xs" in out
    assert "witness:" in out


def test_ds_xs_witness_names_minus_i_only_when_true(capsys, monkeypatch):
    monkeypatch.setitem(operators._BUILDERS, "ds", lambda: operators.build_ds().scale(2))
    code, out, _ = run(capsys, "verify", "algebra")
    assert code == 1
    # the bracket is now -2i*(E+1); the witness must not call it -i*(E+1)
    (line,) = [l for l in fail_lines(out) if l.startswith("FAIL sl2.ds-xs:")]
    assert "-i*(E+1)" not in line
    assert line.endswith(
        "witness: commutator is (-2*i) + (-2*i)*y*dy + (-2*i)*x*dx, not E+1"
    )


# every registered check as (id, suite, criterion, anchor), in registration order
REGISTRY = [
    ("sl2.euler-ds", "algebra", 1, "[E+1, D_s] = -D_s"),
    ("sl2.euler-xs", "algebra", 1, "[E+1, X_s] = X_s"),
    ("sl2.ds-xs", "algebra", 1, "[D_s, X_s] = E+1"),
    ("mp2.x-y", "algebra", 1, "[rhoX, rhoY] = rhoH"),
    ("mp2.h-x", "algebra", 1, "[rhoH, rhoX] = 2 rhoX"),
    ("mp2.h-y", "algebra", 1, "[rhoH, rhoY] = -2 rhoY"),
    ("cross.xs-rhoX", "algebra", 1, "[xs, rhoX] = 0"),
    ("cross.xs-rhoY", "algebra", 1, "[xs, rhoY] = 0"),
    ("cross.xs-rhoH", "algebra", 1, "[xs, rhoH] = 0"),
    ("cross.ds-rhoX", "algebra", 1, "[ds, rhoX] = 0"),
    ("cross.ds-rhoY", "algebra", 1, "[ds, rhoY] = 0"),
    ("cross.ds-rhoH", "algebra", 1, "[ds, rhoH] = 0"),
    ("casimir.expansion", "algebra", 1, "rhoH^2 + 1 + 2 rhoX rhoY + 2 rhoY rhoX equals its expanded xy display"),
    ("casimir.central", "algebra", None, "the Casimir commutes with xs, ds, rhoX, rhoY, rhoH"),
    ("casimir.scalar", "algebra", None, "the Casimir acts by one scalar on each raised Dirac-kernel component (l+j <= 4)"),
    ("zbasis.xs", "algebra", 2, "converted X_s equals its zzbar display (constant 1)"),
    ("zbasis.ds", "algebra", 2, "converted D_s equals its zzbar display (constant 1)"),
    ("zbasis.ts", "algebra", 2, "converted first twistor component equals its zzbar display (constant 1)"),
    ("zbasis.ds2", "algebra", None, "D_s composed with itself equals the quadratic zzbar display"),
    ("weyl.roundtrip", "algebra", None, "xy -> zzbar -> xy is the identity on every registry operator"),
    ("displays.xs-on-constants", "kernels", 3, "X_s images of the two constant spinors match their displays"),
    ("displays.ts-xs-powers", "kernels", 3, "first twistor component of X_s^n on both constant spinors matches, n = 0..3"),
    ("exclusion.sweep", "kernels", 4, "leading exclusion coefficient equals -i^n (n+2m)(n-1)/2 for 2<=n<=8, 0<=m<=4"),
    ("minus-exclusion.values", "kernels", None, "q^3 zbar^(m-1) coefficient of the twisted odd element is 2m/3 for m <= 6, zero case at m = 0"),
    ("monogenic-minus.family", "kernels", 5, "odd Dirac-kernel elements: annihilated, q-degree 2m+1, top coefficient 2^m/(2m+1)!!, m <= 8"),
    ("monogenic-minus.displays", "kernels", 5, "odd Dirac-kernel elements match their m = 1, 2, 3 displays in both bases"),
    ("twistor-basis.annihilation", "kernels", 6, "both twistor-kernel elements are killed by both twistor components and the squared Dirac operator, m <= 8"),
    ("twistor-basis.displays", "kernels", 6, "displayed even twistor solutions m = 1, 2, 3 peel to one raised odd Dirac-kernel layer"),
    ("random.ds-odd-to-twistor", "kernels", 7, "50 random odd Dirac-relation solutions (m <= 5) land in the twistor kernel after raising"),
    ("random.twistor-in-ds2", "kernels", 7, "50 random twistor-kernel members (m <= 5) lie in the squared-Dirac kernel"),
    ("oracle.recursion-vs-linear", "kernels", 8, "recursion solutions and the exact linear-algebra kernel span the same space, all kinds, m <= 4"),
    ("howe.roundtrip", "kernels", 10, "100 random homogeneous spinors (l <= 4, q-degree <= 5) peel into Dirac-kernel layers and reassemble"),
    ("ladder.constants", "kernels", None, "D_s X_s^j m = -i j (lambda + (j-1)/2) X_s^(j-1) m on sample Dirac-kernel elements"),
    ("holomorphic.family", "kernels", 11, "q e^{-q^2/2} z^n is twistor-annihilated for n <= 10"),
    ("holomorphic.ode", "kernels", 11, "f = q e^{-q^2/2} solves (1 - q^2) f = q f' as a weighted identity"),
    ("a-table.match", "combinatorics", 9, "recurrence table equals the normal-ordered raising-power expansion, n <= 12"),
    ("a-table.closed-rows", "combinatorics", 9, "A^n_{0k} = C(n,k) and A^n_{1,n-2} = n(n-1)/2, n <= 12"),
    ("stirling.match", "combinatorics", 9, "stirling recurrence equals the normal-ordered (q dq)^n expansion, n <= 12, with s(4,2) = 7"),
    ("stirling-tilde.structure", "combinatorics", 9, "marked expansion of (q+dq)^n: support, binomial r=0 slice, collapse at qt=1, 4-term recursion, n <= 12"),
    ("stirling-tilde.displays", "combinatorics", 9, "(q+dq)^2 and (q+dq)^3 marked expansions match their displays"),
]


def test_check_registry_is_pinned():
    from symtwistor.verify import all_checks

    got = [(c.id, c.suite, c.criterion, c.anchor) for c in all_checks()]
    assert got == REGISTRY


def test_twistor_display_without_leading_monomial_gives_witness(monkeypatch):
    # the display lacks the (0, 1) term where the raised element leads;
    # the check must report that, not raise KeyError and abort the report
    import symtwistor.verify as verify_mod

    monkeypatch.setitem(verify_mod._TWISTOR_DISPLAYS_Z, 1, "(-1 + 2*q^2)*z")
    checks = [c for c in verify_mod.all_checks() if c.id == "twistor-basis.displays"]
    report = verify_mod.run_suite("kernels", checks=checks)
    assert [(r.status, r.witness) for r in report.results] == [
        ("fail", "m=1: no scalar relates the display to the raised element")
    ]


def test_raising_check_is_reported_and_later_checks_still_run(capsys, monkeypatch):
    import dataclasses

    import symtwistor.verify as verify_mod

    def broken():
        raise ZeroDivisionError("boom")

    checks = list(verify_mod.all_checks())
    first = next(i for i, c in enumerate(checks) if c.suite == "combinatorics")
    checks[first] = dataclasses.replace(checks[first], fn=broken)
    monkeypatch.setattr(verify_mod, "_CHECKS", checks)
    code, out, _ = run(capsys, "verify", "combinatorics")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == (
        "ERROR a-table.match: recurrence table equals the normal-ordered "
        "raising-power expansion, n <= 12; witness: ZeroDivisionError: boom"
    )
    assert [l.split(":")[0] for l in lines[1:-1]] == [
        "PASS a-table.closed-rows",
        "PASS stirling.match",
        "PASS stirling-tilde.structure",
        "PASS stirling-tilde.displays",
    ]
    assert lines[-1] == "suite combinatorics: 4 passed, 1 failed"
    code, out, _ = run(capsys, "verify", "combinatorics", "--format", "json")
    data = json.loads(out)
    assert (code, data["schema_version"], data["passed"], data["failed"]) == (1, 1, 4, 1)
    assert data["checks"][0]["status"] == "error"
    assert data["checks"][0]["witness"] == "ZeroDivisionError: boom"


def register_cases(monkeypatch, rows):
    import symtwistor.verify as verify_mod

    monkeypatch.setattr(verify_mod, "_CHECKS", [])
    verify_mod._cases("demo.rows", "demo anchor", "kernels", None, rows)
    (check,) = verify_mod._CHECKS
    return check


def test_cases_witness_is_the_first_mismatching_row(monkeypatch):
    check = register_cases(monkeypatch, lambda: iter([
        ("n=0", 1, 1),
        ("n=1", 5, 4),
        ("n=2", 7, 6),
    ]))
    assert check.fn() == "n=1: got 5"
    assert register_cases(monkeypatch, lambda: iter([("n=0", 1, 1)])).fn() is None


def test_cases_stops_at_the_first_mismatch(monkeypatch):
    produced = []

    def rows():
        for n in range(10):
            produced.append(n)
            yield f"n={n}", n, 0 if n == 3 else n

    check = register_cases(monkeypatch, rows)
    assert check.fn() == "n=3: got 3"
    assert produced == [0, 1, 2, 3]


def test_cases_check_runs_twice_with_the_same_result(monkeypatch):
    def rows():
        for m in range(4):
            yield f"m={m}", m * m, m if m < 2 else m * m + 1

    check = register_cases(monkeypatch, rows)
    assert check.fn() == check.fn() == "m=2: got 4"
    passing = register_cases(monkeypatch, lambda: ((f"m={m}", m, m) for m in range(4)))
    assert passing.fn() is None and passing.fn() is None


# ---- generate ----


def test_generate_monogenic_minus_text(capsys):
    code, out, _ = run(capsys, "generate", "monogenic-", "1")
    assert code == 0
    assert out.strip() == str(monogenic_minus(1))


def test_generate_monogenic_plus_json_schema(capsys):
    code, out, _ = run(capsys, "generate", "monogenic+", "4", "--format", "json")
    assert code == 0
    spinor = Spinor.from_json(json.loads(out))
    assert spinor == Spinor.monomial(ZZ, 4, 0, QPoly([1]))


def test_generate_twistor_zero_lists_both_constants(capsys):
    code, out, _ = run(capsys, "generate", "twistor", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["exp(-q^2/2) * ((1))", "exp(-q^2/2) * ((q))"]


def test_generate_basis_conversion(capsys):
    code, out, _ = run(capsys, "generate", "monogenic+", "1", "--basis", "xy")
    assert code == 0
    data_code, data_out, _ = run(
        capsys, "generate", "monogenic+", "1", "--basis", "xy", "--format", "json"
    )
    spinor = Spinor.from_json(json.loads(data_out))
    assert spinor.basis is XY
    assert spinor == Spinor(XY, {(1, 0): QPoly([1]), (0, 1): QPoly([G(0, 1)])})


def test_generate_latex_mentions_weight(capsys):
    code, out, _ = run(capsys, "generate", "monogenic-", "1", "--format", "latex")
    assert code == 0
    assert out.startswith("e^{-q^2/2}")


def test_generate_negative_m_is_error(capsys):
    code, out, err = run(capsys, "generate", "monogenic+", "-3")
    assert code == 2
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "combinatorics", "--basis", "xy"],
        ["tables", "A", "3", "--qmax", "7"],
        ["generate", "monogenic-", "2", "--qmax", "12"],
    ],
)
def test_flags_a_subcommand_never_reads_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# ---- apply ----


def test_apply_expression(tmp_path, capsys):
    path = write_spinor(tmp_path, Spinor.monomial(XY, 0, 0, QPoly([1])))
    code, out, _ = run(capsys, "apply", "y*dq + i*x*q", path)
    assert code == 0
    # dq acts through the weight, so the constant picks up a -q
    assert out.strip() == "exp(-q^2/2) * (((-1)*q)*y + (i*q)*x)"


def test_apply_zero_operator(tmp_path, capsys):
    path = write_spinor(tmp_path, Spinor.monomial(XY, 2, 1, QPoly([1, 2])))
    code, out, _ = run(capsys, "apply", "0", path)
    assert code == 0
    assert out.strip() == "0"


def test_apply_parse_error_exits_2(tmp_path, capsys):
    path = write_spinor(tmp_path, Spinor.monomial(XY, 0, 0, QPoly([1])))
    code, out, err = run(capsys, "apply", "2q", path)
    assert code == 2
    assert "position 1" in err


def test_apply_schema_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"basis": "xy", "terms": [{"e1": 0, "e2": 0, "q": [[1, 0, 0, 1]]}]}')
    code, out, err = run(capsys, "apply", "x", str(path))
    assert code == 2
    assert "terms[0].q[0]" in err


def test_apply_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "apply", "x", str(tmp_path / "none.json"))
    assert code == 2


def test_apply_deeply_nested_expression_exits_2(tmp_path, capsys):
    path = write_spinor(tmp_path, Spinor.monomial(XY, 0, 0, QPoly([1])))
    code, out, err = run(capsys, "apply", "(" * 1200 + "x" + ")" * 1200, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: nesting deeper than") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["apply", "x"], ["decompose"]])
@pytest.mark.parametrize(
    "text",
    ["[" * 1000 + "]" * 1000, '{"basis": "xy", "terms": [{"e1": 0, "e2": 0, "q": %s}]}'
     % ("[" * 1000 + "]" * 1000)],
)
def test_deeply_nested_spinor_json_is_one_line_exit_2(tmp_path, capsys, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err == "error: spinor JSON is nested too deeply\n"


def test_apply_converts_operator_to_spinor_basis(tmp_path, capsys):
    path = write_spinor(tmp_path, Spinor.monomial(ZZ, 1, 0, QPoly([1])))
    # the xy Euler operator measures homogeneity in either basis
    code, out, _ = run(capsys, "apply", "x*dx + y*dy", path)
    assert code == 0
    assert out.strip() == "exp(-q^2/2) * ((1)*z)"


def test_apply_basis_flag_converts_output(tmp_path, capsys):
    path = write_spinor(tmp_path, Spinor.monomial(ZZ, 1, 0, QPoly([1])))
    code, out, _ = run(
        capsys, "apply", "1", path, "--basis", "xy", "--format", "json"
    )
    assert code == 0
    spinor = Spinor.from_json(json.loads(out))
    assert spinor.basis is XY


# ---- decompose ----


def test_decompose_pure_component(tmp_path, capsys):
    from symtwistor.operators import named_operator

    xs = named_operator("xs")
    s = xs.apply(Spinor.monomial(XY, 0, 0, QPoly([0, 1])))
    path = write_spinor(tmp_path, s)
    code, out, _ = run(capsys, "decompose", path)
    assert code == 0
    assert "l=0 j=1" in out
    assert "components: 1, reconstruction: exact" in out


def test_decompose_two_components(tmp_path, capsys):
    path = write_spinor(tmp_path, Spinor.monomial(XY, 1, 0, QPoly([1])))
    code, out, _ = run(capsys, "decompose", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["reconstruction_exact"] is True
    assert [(c["homogeneity"], c["power"]) for c in data["components"]] == [
        (1, 0),
        (0, 1),
    ]


def test_decompose_zero_spinor(tmp_path, capsys):
    path = write_spinor(tmp_path, Spinor.zero(XY))
    code, out, _ = run(capsys, "decompose", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["components"] == []


def test_decompose_mixed_homogeneity_splits(tmp_path, capsys):
    s = Spinor(XY, {(0, 0): QPoly([1]), (1, 0): QPoly([1])})
    path = write_spinor(tmp_path, s)
    code, out, _ = run(capsys, "decompose", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    degrees = [(c["homogeneity"], c["power"]) for c in data["components"]]
    assert degrees == [(0, 0), (1, 0), (0, 1)]


def test_solver_guard_error_is_one_line_exit_1(tmp_path, capsys, monkeypatch):
    import symtwistor.cli as cli_mod

    def failing_guard(s):
        raise ArithmeticError("decomposition failed to reconstruct the input")

    monkeypatch.setattr(cli_mod, "howe_decompose", failing_guard)
    path = write_spinor(tmp_path, Spinor.monomial(XY, 1, 0, QPoly([1])))
    target = tmp_path / "out.txt"
    for output in ([], ["--output", str(target)]):
        code, out, err = run(capsys, "decompose", path, *output)
        assert code == 1
        assert out == ""
        assert err == "error: decomposition failed to reconstruct the input\n"
    assert not target.exists()  # a command writes only after it has succeeded


# ---- tables ----


def test_tables_a_row0(capsys):
    code, out, _ = run(capsys, "tables", "A", "3")
    assert code == 0
    assert out.splitlines()[0] == "j=0: 1 3 3 1"


def test_tables_a_zero(capsys):
    code, out, _ = run(capsys, "tables", "A", "0")
    assert code == 0
    assert out.strip() == "j=0: 1"


def test_tables_stirling_tilde_display(capsys):
    code, out, _ = run(capsys, "tables", "stirling-tilde", "3")
    assert code == 0
    assert "i=1 r=1: 3" in out
    assert "i=2 r=1: 3" in out


def test_tables_flat_json(capsys):
    code, out, _ = run(capsys, "tables", "A", "4", "--flat", "--format", "json")
    assert code == 0
    assert json.loads(out)["flat"] == [1, 4, 6, 4, 1, 6, 12, 6, 3]


def test_tables_negative_n_is_error(capsys):
    code, _, err = run(capsys, "tables", "A", "-1")
    assert code == 2


# ---- work limits ----


@pytest.mark.parametrize(
    "argv, name, limit",
    [
        (["tables", "A", "1000000"], "n", MAX_TABLE_ORDER),
        (["tables", "stirling-tilde", str(MAX_TABLE_ORDER + 1)], "n", MAX_TABLE_ORDER),
        (["generate", "monogenic-", "1000000"], "m", MAX_GENERATE_DEGREE),
        (["generate", "twistor", str(MAX_GENERATE_DEGREE + 1)], "m", MAX_GENERATE_DEGREE),
    ],
)
def test_table_and_generate_limits_exit_2_before_any_work(capsys, argv, name, limit):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {name} must be at most {limit}\n"


def test_limit_refusal_creates_no_output_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, "tables", "A", str(MAX_TABLE_ORDER + 1), "--output", str(target))
    assert (code, out, err) == (2, "", f"error: n must be at most {MAX_TABLE_ORDER}\n")
    assert not target.exists()


def test_apply_exponent_limit(tmp_path, capsys):
    path = write_spinor(tmp_path, Spinor.monomial(XY, 0, 0, QPoly([1])))
    code, out, err = run(capsys, "apply", "x^99999999999999999999", path)
    assert (code, out) == (2, "")
    assert err == f"error: exponent must be at most {MAX_EXPONENT} (at position 2)\n"
    code, out, _ = run(capsys, "apply", f"x^{MAX_EXPONENT}", path)
    assert code == 0 and out.strip() == f"exp(-q^2/2) * ((1)*x^{MAX_EXPONENT})"


@pytest.mark.parametrize("e1", [MAX_DECOMPOSE_HOMOGENEITY + 1, 10**9])
def test_decompose_homogeneity_limit_is_checked_before_the_basis_change(tmp_path, capsys, e1):
    path = write_spinor(tmp_path, Spinor.monomial(XY, e1, 0, QPoly([1])))
    code, out, err = run(capsys, "decompose", path, "--basis", "zzbar")
    assert (code, out) == (2, "")
    assert err == f"error: homogeneity must be at most {MAX_DECOMPOSE_HOMOGENEITY}\n"


def test_apply_degree_limit_is_checked_before_the_basis_change(tmp_path, capsys):
    path = write_spinor(tmp_path, Spinor.monomial(XY, 100000, 0, QPoly([1])))
    code, out, err = run(capsys, "apply", "x", path, "--basis", "zzbar")
    assert (code, out) == (2, "")
    assert err == f"error: position degree must be at most {MAX_APPLY_DEGREE}\n"
    path = write_spinor(tmp_path, Spinor.monomial(XY, MAX_APPLY_DEGREE, 0, QPoly([1])))
    code, out, _ = run(capsys, "apply", "y", path)
    assert code == 0 and out.strip() == f"exp(-q^2/2) * ((1)*x^{MAX_APPLY_DEGREE}*y)"


def test_apply_compose_pairs_limit(tmp_path, capsys):
    # each step of a wide power, and each product, is checked before it composes
    path = write_spinor(tmp_path, Spinor.monomial(XY, 0, 0, QPoly([1])))
    wide = "(x+y+q+dx+dy+dq)"
    too_many = f"error: product needs more than {MAX_COMPOSE_TERMS} terms"
    code, out, err = run(capsys, "apply", f"{wide}^64", path)
    assert (code, out) == (2, "")
    assert err == f"{too_many} (at position 16)\n"
    code, out, err = run(capsys, "apply", f"{wide}^6*{wide}^6", path)  # 845,796 terms
    assert (code, out) == (2, "")
    assert err == f"{too_many} (at position 18)\n"
    code, out, err = run(capsys, "apply", f"{wide}^3*{wide}^3", path)  # 5,522 terms
    assert (code, err) == (0, "")


def test_apply_composition_blow_up_is_refused_before_it_is_built(tmp_path, capsys):
    # (dx^4096)^2 * (x^4096)^2 is one term pair that normal-orders into 8,193 huge terms
    path = write_spinor(tmp_path, Spinor.monomial(XY, 0, 0, QPoly([1])))
    start = time.perf_counter()
    code, out, err = run(capsys, "apply", "--", "((dx^64)^64)^2*((x^64)^64)^2", path)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: product reaches degree 192, above {MAX_OPERATOR_DEGREE} (at position 8)\n"
    # at the degree limit a product still composes: dx^64 x^64 has 65 terms
    code, out, err = run(capsys, "apply", "--", "dx^64*x^64", path)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "apply", "--", "dx^64*x^64*x", path)
    assert (code, out) == (2, "")
    assert err == f"error: product reaches degree 129, above {MAX_OPERATOR_DEGREE} (at position 10)\n"


@pytest.mark.parametrize("qdeg", [MAX_SPINOR_QDEGREE, MAX_SPINOR_QDEGREE + 1])
@pytest.mark.parametrize("command", [["apply", "dq"], ["decompose"]])
def test_spinor_q_degree_limit_is_checked_when_the_file_is_loaded(tmp_path, capsys, qdeg, command):
    path = write_spinor(tmp_path, Spinor.monomial(XY, 1, 0, QPoly.monomial(qdeg)))
    code, out, err = run(capsys, *command, path)
    if qdeg <= MAX_SPINOR_QDEGREE:
        assert (code, err) == (0, "") and out
    else:
        assert (code, out) == (2, "")
        assert err == f"error: q-degree must be at most {MAX_SPINOR_QDEGREE}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["apply", "-x", "FILE"], "symtwistor apply: error: the following arguments are required: spinor_file"),
        (["tables", "S", "100"], "symtwistor tables: error: argument which: invalid choice: 'S' "
                                 "(choose from 'A', 'stirling', 'stirling-tilde')"),
    ],
)
def test_usage_errors_are_one_stderr_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert captured.err == f"usage: {message}\n"


# ---- plumbing ----


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "tables", "A", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "j=0: 1 2 1\nj=1: 1\n"


def test_output_to_missing_directory_is_usage_error(tmp_path, capsys):
    # a failed write is not a verification failure (exit 1) and not a traceback
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "tables", "A", "2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err
    assert not target.exists()


class RecordingOutput(io.StringIO):
    """A text stream that keeps each write as it was made."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("to_file", [False, True])
def test_large_output_is_written_in_pieces(tmp_path, monkeypatch, to_file):
    import symtwistor.cli as cli_mod

    recorder = RecordingOutput()
    if to_file:
        recorder.close = lambda: None  # the command closes its file; keep the record readable
        monkeypatch.setattr(cli_mod, "open", lambda *args, **kwargs: recorder, raising=False)
        argv = ["--output", str(tmp_path / "out.json")]
    else:
        monkeypatch.setattr(sys, "stdout", recorder)
        argv = []
    assert main(["generate", "monogenic-", "100", "--format", "json", *argv]) == 0
    want = json.dumps(monogenic_minus(100).change_basis(ZZ).to_json(), indent=2) + "\n"
    assert len(want) > 1_000_000
    assert "".join(recorder.writes) == want
    assert max(len(text) for text in recorder.writes) <= len(want) // 10


BIG = 10**4300 - 1  # 4,300 digits: the most an input number may have


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_output_number_may_exceed_the_input_digit_limit(tmp_path, capsys, fmt):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    path = write_spinor(tmp_path, Spinor.monomial(XY, 0, 0, QPoly([BIG])))
    code, out, err = run(capsys, "apply", "10", path, "--format", fmt)
    assert (code, err) == (0, "")
    assert "9" * 4300 + "0" in out  # 10 * BIG, 4,301 digits
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_input_number_past_the_digit_limit_is_one_line_exit_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"basis": "xy", "terms": [{"e1": 0, "e2": 0, "q": [[' + "9" * 4301 + ", 1, 0, 1]]}]}")
    code, out, err = run(capsys, "apply", "10", str(path))
    if hasattr(sys, "get_int_max_str_digits"):  # Python 3.10.7 on limits input numbers
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit (4300 digits)") and err.count("\n") == 1
    else:
        assert code == 0


def run_process(stdout, *argv):
    """The CLI in a fresh interpreter with the given stdout; stderr is captured."""
    src = str(Path(symtwistor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "symtwistor.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120, text=True)


def test_closed_stdout_pipe_is_one_line_exit_2():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: every write to the pipe fails
    try:
        proc = run_process(write_end, "tables", "A", "3")
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_device_is_one_line_exit_2():
    with open("/dev/full", "w") as full:
        proc = run_process(full, "tables", "A", "3")
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")


def test_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "generate", "twistor", "3", "--format", "json")
    _, second, _ = run(capsys, "generate", "twistor", "3", "--format", "json")
    assert first == second


def test_stdin_spinor(tmp_path, capsys, monkeypatch):
    import io

    payload = json.dumps(Spinor.monomial(XY, 0, 0, QPoly([1])).to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "apply", "q", "-")
    assert code == 0
    assert out.strip() == "exp(-q^2/2) * ((q))"

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_reproduce(tmp_path, capsys, monkeypatch):
    """Each `$ symtwistor ...` example in README prints the block under it; `...` elides lines."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        command, *lines = block.splitlines()
        if command.startswith("$ symtwistor "):
            pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                              for line in lines)
            examples.append((shlex.split(command)[2:], pattern))
    assert len(examples) == 5
    xs2 = raising_chain(Spinor.monomial(XY, 0, 0, [1]), 2)[-1]
    (tmp_path / "xs2.json").write_text(json.dumps(xs2.to_json()))
    monkeypatch.chdir(tmp_path)
    for argv, pattern in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert re.fullmatch(pattern, out), (argv, out)

"""The verify suite as a whole: its pinned output, and faults it must catch.

The sha256 pins are of the full `all` report in text, JSON and LaTeX.
They change only when a check's id, anchor, order or outcome changes.

Each fault of the fault table is planted by monkeypatching. It must turn
its check red (status fail or error), and that check must be green
without it. Operator faults are planted in the registry
(`operators._BUILDERS`), the one place where checks read operators.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symtwistor
import symtwistor.combinatorics as comb_mod
import symtwistor.kernels as ker
import symtwistor.operators as operators
import symtwistor.spinor as spinor_mod
import symtwistor.verify as verify_mod
from symtwistor.spinor import QPoly, Spinor
from symtwistor.weyl import BasisTag, WeylOperator

ALL_REPORT_SHA256 = {
    "text": "7778c3126147a1da3f2ab3a0ff3f849a75c14eb358d09b69fef0fc2781dc6472",
    "json": "f6c24147ee210b351b07aec0dec28be94fc2a44ee29aff1e96d853f3835ab685",
    "latex": "22aea97777d101120026b82d12f2a269ab4860e44f2e804a23eddfb129601240",
}


def test_verify_all_report_is_pinned():
    report = verify_mod.run_suite("all")
    assert [r.id for r in report.results if r.status != "pass"] == ["sl2.ds-xs"]
    renderings = {
        "text": report.render_text(),
        "json": json.dumps(report.to_json(), indent=2),
        "latex": report.render_latex(),
    }
    got = {fmt: hashlib.sha256(s.encode("utf-8")).hexdigest() for fmt, s in renderings.items()}
    assert got == ALL_REPORT_SHA256


# Reports each call into spinor, exactnum or fractions made while verify's module body runs.
_IMPORT_PROBE = """
import os, sys
watched = tuple(os.path.join(*parts) for parts in (
    ("symtwistor", "spinor.py"), ("symtwistor", "exactnum.py"), ("fractions.py",)))
body = os.path.join("symtwistor", "verify.py")
made = []

def probe(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.endswith(watched):
        caller = frame.f_back
        while caller is not None:
            if caller.f_code.co_name == "<module>" and caller.f_code.co_filename.endswith(body):
                made.append(frame.f_code.co_name)
                break
            caller = caller.f_back

sys.setprofile(probe)
import symtwistor
sys.setprofile(None)
print(made)
"""


def test_importing_the_package_builds_no_display_in_verify():
    # displays are strings read when their checks run, so verify's module body builds
    # no QPoly, Spinor, GaussianRational or Fraction
    src = str(Path(symtwistor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout == "[]\n"


# ---- the fault table ----


def _wrap(monkeypatch, module, name, change):
    """Rebind module.name to a function that passes the genuine result through change."""
    genuine = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(genuine(*args), *args))


def _with_first(family, extra):
    first, *rest = family.basis
    return family._replace(basis=(first + extra, *rest))


def _recursion_adds_q_z_m(monkeypatch):
    def change(family, kind, m, seed, qmax):
        if not family.basis:
            return family
        return _with_first(family, Spinor.monomial(family.basis[0].basis, m, 0, QPoly.monomial(1)))

    _wrap(monkeypatch, ker, "solve_recursion", change)


def _linear_solve_adds_z_m(monkeypatch):
    _wrap(monkeypatch, ker, "kernel_linear_solve", lambda family, op, m, qmax: _with_first(
        family, Spinor.monomial(op.basis, m, 0, QPoly.monomial(0))))


def _howe_doubles_a_layer(monkeypatch):
    def change(comps, s):
        if not comps:
            return comps
        last = comps[-1]
        return comps[:-1] + [last._replace(monogenic=last.monogenic.scale(2))]

    _wrap(monkeypatch, ker, "howe_decompose", change)


def _one_entry_plus_one(monkeypatch, name, n, key):
    """comb_mod.name(n) with the entry at key one too large; other n pass through."""
    _wrap(monkeypatch, comb_mod, name,
          lambda table, m: {**table, key: table[key] + 1} if m == n else table)


def _stirling_tilde_5_off_by_one(monkeypatch):
    _one_entry_plus_one(monkeypatch, "stirling_tilde", 5, (2, 1))


def _a_table_3_off_by_one(monkeypatch):
    _one_entry_plus_one(monkeypatch, "a_table", 3, (0, 1))


def _stirling_tilde_3_off_by_one(monkeypatch):
    _one_entry_plus_one(monkeypatch, "stirling_tilde", 3, (1, 1))


def _stirling_5_2_off_by_one(monkeypatch):
    _wrap(monkeypatch, comb_mod, "stirling", lambda s, n, m: s + 1 if (n, m) == (5, 2) else s)


def _plus(monkeypatch, name, extra):
    """Rebind the registry entry name to its genuine operator + extra; every check reads it."""
    genuine = operators._BUILDERS[name]
    monkeypatch.setitem(operators._BUILDERS, name, lambda: genuine() + extra)


_Q = WeylOperator.generator(BasisTag.XY, "q")
_DX = WeylOperator.generator(BasisTag.XY, "dx")


def _casimir_plus_euler(monkeypatch):
    _plus(monkeypatch, "casimir", operators.build_euler())


def _rho_h_plus_one(monkeypatch):
    _plus(monkeypatch, "rhoH", 1)


def _ts_plus_one(monkeypatch):
    _plus(monkeypatch, "ts", 1)


def _ts_plus_dx(monkeypatch):
    # ts + 1 keeps the degree n+m; the sweep reads the degree n-1+m, which dx reaches
    _plus(monkeypatch, "ts", _DX)


def _casimir_plus_q(monkeypatch):
    _plus(monkeypatch, "casimir", _Q)


def _ds_plus_one(monkeypatch):
    _plus(monkeypatch, "ds", 1)


def _xs_plus_q(monkeypatch):
    _plus(monkeypatch, "xs", _Q)


def _rho_x_plus_q(monkeypatch):
    _plus(monkeypatch, "rhoX", _Q)


def _rho_y_plus_q(monkeypatch):
    _plus(monkeypatch, "rhoY", _Q)


def _rho_h_plus_q(monkeypatch):
    _plus(monkeypatch, "rhoH", _Q)


def _ladder_constant_doubled(monkeypatch):
    _wrap(monkeypatch, ker, "ladder_constant", lambda c, l, j: c * 2)


def _reassemble_drops_top_layer(monkeypatch):
    genuine = ker.reassemble

    def dropped(comps, xs):
        top = max((c.power for c in comps), default=0)
        return genuine([c for c in comps if c.power != top], xs)

    monkeypatch.setattr(ker, "reassemble", dropped)


def _minus_exclusion_plus_one(monkeypatch):
    _wrap(monkeypatch, ker, "verify_minus_exclusion", lambda c, m: c + 1)


def _scalar_action_doubled(monkeypatch):
    _wrap(monkeypatch, ker, "scalar_action", lambda c, op, s: None if c is None else c * 2)


def _rank_plus_one(monkeypatch):
    _wrap(monkeypatch, ker, "rank", lambda r, columns, nrows: r + 1)


def _twistor_basis_first_doubled(monkeypatch):
    _wrap(monkeypatch, ker, "twistor_kernel_basis", lambda basis, m: [basis[0].scale(2), *basis[1:]])


def _weighted_dq_plus_q3(monkeypatch):
    genuine = QPoly.weighted_dq
    monkeypatch.setattr(QPoly, "weighted_dq", lambda p: genuine(p) + QPoly.monomial(3))


def _dq_negated(monkeypatch):
    """The numerator map behind QPoly.weighted_dq and the Dq chain and rows of apply, negated.

    The registry cache is emptied, so no rows grown before the fault hide it.
    """
    _wrap(monkeypatch, spinor_mod, "_dq", lambda v, *_: tuple(-x for x in v))
    monkeypatch.setattr(operators, "_BUILT", {})


def _unit_columns_unweighted(monkeypatch):
    """kernel_linear_solve's unit images with the falling-factorial weight forced to 1.

    Only the oracle's columns lose the weight: apply reads the same name in spinor,
    so perm is rebound for the duration of each call of the helper alone.
    """
    genuine = spinor_mod._unit_columns

    def unweighted(op, units):
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(spinor_mod, "perm", lambda n, k: 1)
            return genuine(op, units)

    monkeypatch.setattr(ker, "_unit_columns", unweighted)


def _negated(obj, slot):
    """obj with the generator of slot replaced by its negative: each term times (-1)^power."""
    if isinstance(obj, Spinor):
        return Spinor(obj.basis, {k: p.scale((-1) ** k[slot]) for k, p in obj.terms.items()})
    return WeylOperator(obj.basis, {m: c * (-1) ** m[slot] for m, c in obj.terms.items()})


def _wrong_form(monkeypatch, classes, source, slot):
    """change_basis out of source maps the generator of slot to minus its image.

    The registry cache is emptied, so no operator converted before the fault hides it.
    """
    for cls in classes:
        genuine = cls.change_basis

        def change_basis(obj, target, genuine=genuine):
            if obj.basis is source and target is not source:
                obj = _negated(obj, slot)
            return genuine(obj, target)

        monkeypatch.setattr(cls, "change_basis", change_basis)
    monkeypatch.setattr(operators, "_BUILT", {})


def _wrong_y_form(monkeypatch):
    _wrong_form(monkeypatch, (WeylOperator,), BasisTag.XY, 1)


def _wrong_dx_form(monkeypatch):
    _wrong_form(monkeypatch, (WeylOperator,), BasisTag.XY, 3)


def _wrong_z_form(monkeypatch):
    _wrong_form(monkeypatch, (WeylOperator, Spinor), BasisTag.ZZBAR, 0)


# (fault, check it must turn red)
FAULTS = [
    (_recursion_adds_q_z_m, "random.ds-odd-to-twistor"),
    (_linear_solve_adds_z_m, "random.twistor-in-ds2"),
    (_howe_doubles_a_layer, "howe.roundtrip"),
    (_stirling_tilde_5_off_by_one, "stirling-tilde.structure"),
    (_stirling_tilde_3_off_by_one, "stirling-tilde.displays"),
    (_a_table_3_off_by_one, "a-table.closed-rows"),
    (_stirling_5_2_off_by_one, "stirling.match"),
    (_casimir_plus_euler, "casimir.scalar"),
    (_rho_h_plus_one, "mp2.x-y"),
    (_ts_plus_one, "zbasis.ts"),
    (_ts_plus_one, "holomorphic.family"),
    (_ts_plus_dx, "exclusion.sweep"),
    (_casimir_plus_q, "casimir.central"),
    (_ds_plus_one, "howe.roundtrip"),
    (_ds_plus_one, "zbasis.ds2"),
    (_ds_plus_one, "random.twistor-in-ds2"),
    (_ds_plus_one, "sl2.euler-ds"),
    (_ds_plus_one, "monogenic-minus.family"),
    (_xs_plus_q, "displays.xs-on-constants"),
    (_xs_plus_q, "displays.ts-xs-powers"),
    (_xs_plus_q, "twistor-basis.displays"),
    (_xs_plus_q, "sl2.euler-xs"),
    (_xs_plus_q, "a-table.match"),
    (_rho_x_plus_q, "cross.xs-rhoX"),
    (_rho_x_plus_q, "cross.ds-rhoX"),
    (_rho_x_plus_q, "casimir.expansion"),
    (_rho_x_plus_q, "casimir.scalar"),
    (_rho_x_plus_q, "mp2.h-x"),
    (_rho_y_plus_q, "cross.xs-rhoY"),
    (_rho_y_plus_q, "cross.ds-rhoY"),
    (_rho_y_plus_q, "mp2.h-y"),
    (_rho_h_plus_q, "cross.xs-rhoH"),
    (_rho_h_plus_q, "cross.ds-rhoH"),
    (_ladder_constant_doubled, "ladder.constants"),
    (_ladder_constant_doubled, "howe.roundtrip"),
    (_reassemble_drops_top_layer, "howe.roundtrip"),
    (_minus_exclusion_plus_one, "minus-exclusion.values"),
    (_scalar_action_doubled, "casimir.scalar"),
    (_rank_plus_one, "oracle.recursion-vs-linear"),
    (_unit_columns_unweighted, "oracle.recursion-vs-linear"),
    (_twistor_basis_first_doubled, "twistor-basis.annihilation"),
    (_weighted_dq_plus_q3, "holomorphic.ode"),
    (_dq_negated, "holomorphic.ode"),
    (_dq_negated, "ladder.constants"),
    (_dq_negated, "howe.roundtrip"),
    (_dq_negated, "twistor-basis.annihilation"),
    (_wrong_y_form, "zbasis.xs"),
    (_wrong_y_form, "weyl.roundtrip"),
    (_wrong_dx_form, "zbasis.ds"),
    (_wrong_dx_form, "zbasis.ds2"),
    (_wrong_z_form, "weyl.roundtrip"),
    (_wrong_z_form, "monogenic-minus.displays"),
]


def test_suite_names_are_the_registered_suites_in_order_then_all(monkeypatch):
    assert verify_mod.suite_names() == ["algebra", "kernels", "combinatorics", "all"]
    extra = verify_mod.Check("demo.extra", "demo anchor", "demo", None, lambda: None)
    monkeypatch.setattr(verify_mod, "_CHECKS", [*verify_mod._CHECKS, extra])
    assert verify_mod.suite_names() == ["algebra", "kernels", "combinatorics", "demo", "all"]
    assert [r.id for r in verify_mod.run_suite("demo").results] == ["demo.extra"]


def _run_one(check_id):
    checks = [c for c in verify_mod.all_checks() if c.id == check_id]
    (result,) = verify_mod.run_suite("faults", checks=checks).results
    return result


def test_display_with_a_derivative_is_an_error(monkeypatch):
    monkeypatch.setitem(verify_mod._TWISTOR_DISPLAYS_Z, 1, "zbar*dz")
    result = _run_one("twistor-basis.displays")
    assert (result.status, result.witness) == (
        "error", "ValueError: display 'zbar*dz' has a derivative term")


def _counted(monkeypatch, name):
    """A list that gets one entry per call of WeylOperator.<name> from here on."""
    calls = []
    genuine = getattr(WeylOperator, name)

    def counted(self, other):
        calls.append(name)
        return genuine(self, other)

    monkeypatch.setattr(WeylOperator, name, counted)
    return calls


def test_sweeps_walk_each_power_and_raising_chain_once(monkeypatch):
    composes = _counted(monkeypatch, "compose")
    assert verify_mod.run_suite("combinatorics").failed == 0
    # 12 steps each of X_s^n, (q dq)^n and (q+dq)^n, one q*dq, and 3 to parse X_s if not yet built
    assert len(composes) <= 40
    applies = _counted(monkeypatch, "apply")
    assert _run_one("exclusion.sweep").status == "pass"
    # 8 raising steps for each of 5 degrees m, and one twistor apply per (n, m)
    assert len(applies) <= 75


@pytest.mark.parametrize("plant", [_ladder_constant_doubled, _reassemble_drops_top_layer])
def test_a_peel_fault_is_caught_at_its_level(monkeypatch, plant):
    # every level below the top reads the ladder constant and reassemble, so the
    # per-level D_s guard fires, before the check's own reassemble row is read
    plant(monkeypatch)
    assert _run_one("howe.roundtrip").witness == (
        "ArithmeticError: peeling left a non-monogenic remainder")


@pytest.mark.parametrize(
    "plant, check_id", FAULTS, ids=[f"{plant.__name__[1:]}->{cid}" for plant, cid in FAULTS]
)
def test_planted_fault_turns_its_check_red(monkeypatch, plant, check_id):
    assert _run_one(check_id).status == "pass"
    plant(monkeypatch)
    result = _run_one(check_id)
    assert result.status in ("fail", "error"), result
    assert result.witness

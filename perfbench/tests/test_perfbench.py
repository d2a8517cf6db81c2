"""Tests of the benchmark itself: seeded inputs, output checks, timing, tracer.

    python3 -m pytest perfbench/tests -q

Run from the repository root.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import layertrace  # noqa: E402
import meter  # noqa: E402
import run  # noqa: E402
from symtwistor import cli, kernels  # noqa: E402
from symtwistor.spinor import Spinor  # noqa: E402


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=list)


# ---- seeded inputs ----


@pytest.mark.parametrize("make", [inputs.cli_session, inputs.kernel_round])
def test_same_seed_gives_identical_inputs_and_another_seed_changes_them(make):
    assert _dump(make(1, 0)) == _dump(make(1, 0))
    assert _dump(make(1, 0)) != _dump(make(2, 0))
    assert _dump(make(1, 0)) != _dump(make(1, 1))


def test_session_mix_is_fixed():
    session = inputs.cli_session(3, 0)
    assert len(session) == inputs.SESSION_SIZE
    heavy = [
        c for c in session
        if c["check"] == "decompose" and len(c["stdin"]["terms"]) - 1 >= 6
    ]
    assert len(heavy) * 5 == inputs.SESSION_SIZE  # one command in five


# ---- output checks ----


def _cli(capsys, argv, stdin_json=None, monkeypatch=None):
    if stdin_json is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin_json)))
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _flip_first_coefficient(text: str) -> str:
    """Negate the first nonzero real numerator in a JSON spinor output."""
    data = json.loads(text)

    def walk(node):
        if isinstance(node, dict):
            return any(walk(v) for v in node.values())
        if isinstance(node, list):
            if len(node) == 4 and all(isinstance(v, int) for v in node) and node[0]:
                node[0] = -node[0]
                return True
            return any(walk(v) for v in node)
        return False

    assert walk(data)
    return json.dumps(data, indent=2) + "\n"


def _op(spec, stdout, code=0):
    return run.Op(spec, 0.1, code, stdout, "")


def test_corrupted_decompose_output_is_failed(capsys, monkeypatch):
    import random

    spinor = inputs.random_spinor_json(random.Random(4), 2, "xy", qdeg=2)
    argv = ["decompose", "-", "--format", "json"]
    code, out = _cli(capsys, argv, spinor, monkeypatch)
    assert code == 0
    spec = {"argv": argv, "stdin": spinor, "check": "decompose"}
    good, bad = _op(spec, out), _op(spec, _flip_first_coefficient(out))
    run.finish_checks("cli-session", [good, bad])
    assert good.failure is None
    assert bad.failure


def test_corrupted_apply_output_is_failed(capsys, monkeypatch):
    import random

    spinor = inputs.random_spinor_json(random.Random(5), 3, "zzbar", qdeg=2)
    argv = ["apply", "(y*dq + i*x*q)^2", "-", "--format", "json"]
    code, out = _cli(capsys, argv, spinor, monkeypatch)
    assert code == 0
    spec = {"argv": argv, "stdin": spinor, "check": "apply_power",
            "base": "y*dq + i*x*q", "power": 2}
    good, bad = _op(spec, out), _op(spec, _flip_first_coefficient(out))
    run.finish_checks("cli-session", [good, bad])
    assert good.failure is None
    assert bad.failure


def test_digest_and_closed_form_catch_a_changed_output(capsys):
    argv = ["generate", "monogenic-", "8", "--basis", "zzbar", "--format", "json"]
    code, out = _cli(capsys, argv)
    assert code == 0
    key, references = inputs.digest_key(argv), checks.load_references()
    assert checks.check_digest(key, out, references) is None
    assert checks.check_closed_forms(argv, out) is None
    assert checks.check_digest(key, _flip_first_coefficient(out), references)
    data = json.loads(out)
    data["terms"][-1]["q"][-1][0] += 1  # top coefficient: q^17 at z^8
    assert checks.check_closed_forms(argv, json.dumps(data))


def test_tables_closed_form_row():
    out = json.dumps({"which": "A", "n": 4, "rows": [{"j": 0, "entries": [1, 4, 6, 4, 1]}]})
    assert checks.check_closed_forms(["tables", "A", "4", "--format", "json"], out) is None
    out = out.replace("6", "7")
    assert checks.check_closed_forms(["tables", "A", "4", "--format", "json"], out)


def test_verify_report_checks():
    checks_ok = [
        {"id": f"c{i}", "status": "pass", "witness": None}
        for i in range(checks.VERIFY_CHECK_COUNT - 1)
    ]
    red = {"id": checks.VERIFY_KNOWN_FAILURE, "status": "fail", "witness": checks.VERIFY_WITNESS}
    report = {"passed": checks.VERIFY_CHECK_COUNT - 1, "failed": 1, "checks": checks_ok + [red]}
    assert checks.check_verify_all(1, json.dumps(report)) is None
    all_green = dict(report, passed=checks.VERIFY_CHECK_COUNT, failed=0,
                     checks=checks_ok + [dict(red, status="pass", witness=None)])
    assert checks.check_verify_all(0, json.dumps(all_green))
    assert checks.check_verify_all(1, json.dumps(all_green))
    other_witness = dict(report, checks=checks_ok + [dict(red, witness="E+1")])
    assert checks.check_verify_all(1, json.dumps(other_witness))


def test_kernel_op_check_rejects_a_wrong_basis():
    from symtwistor.operators import named_operator
    from symtwistor.weyl import BasisTag

    ts = named_operator("ts", BasisTag.ZZBAR)
    basis = list(kernels.kernel_linear_solve(ts, 4, 15).basis)
    op = {"op": "ts_linear", "m": 4}
    assert checks.check_kernel_op(op, {}, ts, basis) is None
    assert checks.check_kernel_op(op, {}, ts, basis[:-1])  # dimension
    bumped = basis[:-1] + [basis[-1] + Spinor.monomial(BasisTag.ZZBAR, 4, 0, [1])]
    assert checks.check_kernel_op(op, {}, ts, bumped)  # not annihilated


# ---- timing ----


def _child(tmp_path, code, stdin=None, timeout=60.0):
    return meter.run([sys.executable, "-c", code], env=dict(os.environ), cwd=str(tmp_path),
                     work_dir=str(tmp_path), stdin=stdin, timeout=timeout)


def test_metered_child_passes_io_and_exit_code(tmp_path):
    child = _child(tmp_path, "import sys; print(sys.stdin.read()[::-1]); "
                             "print('e', file=sys.stderr); sys.exit(3)", stdin="abc")
    assert (child.code, child.stdout, child.stderr) == (3, "cba\n", "e\n")
    assert child.maxrss_kb > 0


def test_metered_child_runs_in_slices_and_phases_are_timed(tmp_path):
    code = ("import time\n"
            "def spin(s):\n"
            "    end = time.perf_counter() + s\n"
            "    while time.perf_counter() < end: pass\n"
            "spin(0.3); t0 = time.perf_counter(); spin(0.5); t1 = time.perf_counter()\n"
            "print(t0, t1)\n")
    child = _child(tmp_path, code)
    t0, t1 = map(float, child.stdout.split())
    assert child.code == 0 and len(child.slices) >= 4
    for (_, end, _, after), (start, _, before, _) in zip(child.slices, child.slices[1:]):
        assert end < start and after == before  # stopped between slices, calibration shared
    phase = child.seconds(t0, t1)
    assert 0 < phase < child.seconds()
    assert child.raw_seconds() >= 0.8


def test_metered_child_is_killed_and_reaped_on_timeout(tmp_path):
    child = _child(tmp_path, "import os; print(os.getpid(), flush=True)\nwhile True: pass",
                   timeout=0.3)
    assert child.code is None
    with pytest.raises(ProcessLookupError):
        os.kill(int(child.stdout), 0)


def test_cli_launch_strips_the_import_mark_from_stderr():
    os.makedirs(run.WORK, exist_ok=True)
    op, calib = run.cli_command({"argv": ["tables", "A", "4"]}, run.CLI + ["tables", "A", "4"])
    assert (op.code, op.stderr) == (0, "")
    assert op.stdout and op.seconds > 0 and calib > 0
    op, _ = run.cli_command({}, run.CLI + ["no-such-command"])
    assert op.code != 0 and op.stderr.startswith("usage: symtwistor")


# ---- tracer ----


def _traced_counts(tmp_path, capsys):
    import random

    spinor = inputs.random_spinor_json(random.Random(6), 3, "xy", qdeg=2)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spinor))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli.main(["decompose", str(path), "--format", "json"]) == 0
        assert cli.main(["tables", "A", "6"]) == 0
        assert cli.main(["apply", "(i*q*dy - dx*dq)^2", str(path)]) == 0
        before_solve = tracer.summary()["stats"].get("kernels:nullspace", [0])[0]
        from symtwistor.operators import named_operator
        from symtwistor.weyl import BasisTag

        kernels.kernel_linear_solve(named_operator("ts", BasisTag.ZZBAR), 1, 9)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    summary = json.loads(json.dumps(tracer.summary()))
    return summary, before_solve


def test_two_traced_runs_give_identical_counts(tmp_path, capsys):
    first, cli_nullspace = _traced_counts(tmp_path, capsys)
    second, _ = _traced_counts(tmp_path, capsys)
    assert {k: v[0] for k, v in first["stats"].items()} == {
        k: v[0] for k, v in second["stats"].items()
    }
    assert first["counters"] == second["counters"]
    assert cli_nullspace == 0  # CLI commands never reach the elimination
    metrics = layertrace.layer_metrics([first])
    assert metrics["kernels.nullspace.count"] == 1
    assert metrics["kernels.howe_decompose.count"] == 1
    assert metrics["parsing.parse.count"] == 1
    assert metrics["exactnum.mul.count"] > 0


def test_uninstall_restores_every_name():
    from symtwistor import exactnum, operators, verify

    before = (kernels.nullspace, cli.howe_decompose, exactnum.GaussianRational.__dict__["__rmul__"],
              operators._BUILDERS["xs"], verify._CHECKS[0])
    tracer = layertrace.Tracer()
    tracer.install()
    assert cli.howe_decompose is not before[1]
    assert exactnum.GaussianRational.__rmul__ is exactnum.GaussianRational.__mul__
    assert operators._BUILDERS["xs"] is not before[3]
    tracer.uninstall()
    after = (kernels.nullspace, cli.howe_decompose, exactnum.GaussianRational.__dict__["__rmul__"],
             operators._BUILDERS["xs"], verify._CHECKS[0])
    assert all(a is b for a, b in zip(before, after))


def test_declared_metrics_match_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    summary = layertrace.Tracer().summary()
    produced = set(layertrace.layer_metrics([summary]))
    produced |= {"cli.output_bytes", "trace.overhead_ratio", "host.calib_s"}
    assert {m["name"] for m in bench["per_layer"]} == produced
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "op_p50_ms", "setup_s", "peak_rss_mb"
    }
    assert {w["name"] for w in bench["workloads"]} == set(run.JOBS)

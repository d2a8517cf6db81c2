"""symtwistor benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Workloads (see perfbench/README.md):

    verify-all    one operation is `symtwistor verify all --format json`
    kernel-solve  one operation is a round of recursion-vs-linear kernel
                  oracles and ts kernel solves, in-process, in a fresh
                  interpreter
    cli-session   a seeded session of 25 CLI commands, each a fresh process

Each workload is a closed loop with one caller. It repeats its fixed job,
at least once, until another repetition would end more than half a
repetition past S seconds. Times are reference seconds, corrected for host
speed (see meter.py). It checks every output and prints a summary on
stderr. The last line of stdout is one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics of one traced repetition
(--trace 1). Metric names and units are the ones declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import checks  # noqa: E402
import inputs  # noqa: E402
import meter  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
# Both CLI launchers print a perf_counter mark on stderr once the program is
# imported, so that start-up and the command are timed each in its own way.
CLI = [sys.executable, "-c", "import sys, time; from symtwistor.cli import main; "
       "print(repr(time.perf_counter()), file=sys.stderr, flush=True); sys.exit(main())"]
WORKER = [sys.executable, os.path.join(HERE, "worker.py")]
SETUP_SPAWNS = 15
VERIFY_TIMEOUT = 170
COMMAND_TIMEOUT = 60


class Op:
    """One finished operation: latency in reference seconds, exit code, output, and what checks it."""

    def __init__(self, spec, seconds, code, stdout, stderr, raw=None):
        self.spec, self.seconds, self.code = spec, seconds, code
        self.stdout, self.stderr = stdout, stderr
        self.raw = seconds if raw is None else raw  # unscaled running seconds, for the summary
        self.failure = None


def spawn(cmd, stdin=None, timeout=COMMAND_TIMEOUT) -> meter.Run:
    """Run cmd to completion, timed in slices; a timeout leaves code None."""
    return meter.run(cmd, env=ENV, cwd=ROOT, work_dir=WORK, stdin=stdin, timeout=timeout)


def start_scale() -> float:
    return meter.start_scale(env=ENV, cwd=ROOT, work_dir=WORK)


def measure_setup() -> float:
    """Median time from spawning a fresh interpreter until `import symtwistor.cli` returns."""
    code = "import time, symtwistor.cli; print(repr(time.perf_counter()))"
    values = []
    for _ in range(SETUP_SPAWNS):
        scale = start_scale()
        child = spawn([sys.executable, "-c", code])
        if child.code != 0:
            raise RuntimeError(f"importing symtwistor.cli failed: {child.stderr.strip()}")
        values.append(scale * child.raw_seconds(end=float(child.stdout)))
    return statistics.median(values)


def cli_command(spec, cmd, stdin=None, timeout=COMMAND_TIMEOUT):
    """Run one CLI launch; returns the operation and its median calibration.

    Start-up until the launcher's mark is scaled by a bare interpreter
    started just before; the rest is timed in calibrated slices.
    """
    scale = start_scale()
    child = spawn(cmd, stdin=stdin, timeout=timeout)
    mark, _, stderr = child.stderr.partition("\n")
    try:
        mark = float(mark)
    except ValueError:  # the program did not import: the exit code fails the operation
        op = Op(spec, child.seconds(), child.code, child.stdout, child.stderr, child.raw_seconds())
        return op, child.calib_s()
    seconds = scale * child.raw_seconds(end=mark) + child.seconds(start=mark)
    return Op(spec, seconds, child.code, child.stdout, stderr, child.raw_seconds()), child.calib_s()


# ---- workloads: each job returns (ops, wall seconds, calibration seconds) ----


def verify_job(seed, rep, trace_path=None):
    argv = ["verify", "all", "--format", "json"]
    cmd = WORKER + ["cli", trace_path] + argv if trace_path else CLI + argv
    op, calib = cli_command({"argv": argv}, cmd, timeout=VERIFY_TIMEOUT)
    if op.code is None:
        op.failure = "timeout"
    else:
        op.failure = checks.check_verify_all(op.code, op.stdout)
    return [op], op.seconds, calib


def kernel_job(seed, rep, trace_path=None):
    """One operation: a round of oracles and ts solves in a fresh worker.

    The worker reports the perf_counter bounds of the round and of each
    part, so its start-up and its checks are not timed.
    """
    cmd = WORKER + ["kernel-solve", str(seed), str(rep)] + ([trace_path] if trace_path else [])
    child = spawn(cmd, timeout=VERIFY_TIMEOUT)
    if child.code != 0:
        op = Op({"op": "round"}, child.seconds(), child.code, child.stdout, child.stderr,
                child.raw_seconds())
        op.failure = f"worker exit {child.code}: {child.stderr.strip()[-300:]}"
        return [op], op.seconds, child.calib_s()
    result = json.loads(child.stdout.splitlines()[-1])
    labels = [f"{s['op']} {s.get('kind', 'ts')} m={s['m']}" for s in inputs.kernel_round(seed, rep)]
    parts = {label: child.seconds(*bounds) for label, bounds in zip(labels, result["op_bounds"])}
    wall = child.seconds(*result["round_bounds"])
    op = Op({"op": "round", "parts": parts}, wall, 0, "", "",
            child.raw_seconds(*result["round_bounds"]))
    failures = [f"{label}: {why}" for label, why in zip(labels, result["failures"]) if why]
    op.failure = "; ".join(failures) or None
    return [op], wall, child.calib_s()


@functools.lru_cache(maxsize=None)
def vacuum_json(k: int) -> str:
    """X_s^k of the vacuum spinor, xy basis, as CLI input."""
    from symtwistor.operators import build_xs
    from symtwistor.spinor import Spinor
    from symtwistor.weyl import BasisTag

    s = Spinor.monomial(BasisTag.XY, 0, 0, [1])
    xs = build_xs()
    for _ in range(k):
        s = xs.apply(s)
    return json.dumps(s.to_json())


def stdin_text(stdin):
    """CLI input of a command spec: None, a spinor JSON object, or ("vacuum", k)."""
    if stdin is None:
        return None
    if isinstance(stdin, tuple):
        return vacuum_json(stdin[1])
    return json.dumps(stdin)


def cli_job(seed, rep, trace_dir=None):
    cmds = inputs.cli_session(seed, rep)
    texts = [stdin_text(c["stdin"]) for c in cmds]
    ops, calibs = [], []
    for i, (spec, text) in enumerate(zip(cmds, texts)):
        cmd = CLI + spec["argv"]
        if trace_dir:
            cmd = WORKER + ["cli", os.path.join(trace_dir, f"{rep}-{i}.json")] + spec["argv"]
        op, calib = cli_command(spec, cmd, stdin=text)
        ops.append(op)
        calibs.append(calib)
    return ops, sum(op.seconds for op in ops), statistics.median(calibs)


def check_cli_op(op, references):
    if op.code != 0:
        return f"exit code {op.code}: {op.stderr.strip()[-300:]}"
    spec = op.spec
    if spec["check"] == "decompose":
        return checks.check_decompose(spec["stdin"], op.stdout)
    if spec["check"] == "apply_power":
        return checks.check_apply_power(spec["stdin"], spec["base"], spec["power"], op.stdout)
    return checks.check_digest(spec["check"], op.stdout, references) or checks.check_closed_forms(
        spec["argv"], op.stdout
    )


def finish_checks(workload, ops):
    """Check the outputs that are checked after the timed loop (cli-session)."""
    if workload != "cli-session":
        return
    references = checks.load_references()
    for op in ops:
        try:
            op.failure = check_cli_op(op, references)
        except Exception as exc:  # a malformed output is a failed operation
            op.failure = f"check raised {type(exc).__name__}: {exc}"


JOBS = {"verify-all": verify_job, "kernel-solve": kernel_job, "cli-session": cli_job}


# ---- metrics ----


def run_untraced(workload, seed, seconds):
    job = JOBS[workload]
    setup_s = measure_setup()
    ops, walls, raws, calibs = [], [], [], []
    t_begin = time.perf_counter()
    rep = 0
    while True:
        job_ops, wall, calib = job(seed, rep)
        ops += job_ops
        walls.append(wall)
        raws.append(sum(op.raw for op in job_ops))
        calibs.append(calib)
        rep += 1
        elapsed = time.perf_counter() - t_begin
        if elapsed + 0.5 * elapsed / rep > seconds:  # run length stays within half a job
            break
    finish_checks(workload, ops)
    latencies = [op.seconds for op in ops]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
    }
    info = {
        "repetitions": rep,
        "operations (p50 samples)": len(latencies),
        "host.calib_s per repetition": [round(c, 4) for c in calibs],
        "unscaled running seconds per repetition": [round(r, 3) for r in raws],
    }
    if len(latencies) >= 100:  # ten samples beyond the 90th percentile
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000
        info["op_p90_ms"] = f"{p90:.6g} ms over {len(latencies)} operations"
    parts = [op.spec["parts"] for op in ops if "parts" in op.spec]
    if parts:
        info["median seconds per part"] = {
            k: round(statistics.median(p[k] for p in parts), 3) for k in parts[0]
        }
    return ops, values, info


def run_traced(workload, seed):
    """One untraced and one traced repetition of the fixed job (rep 0)."""
    import layertrace

    trace_dir = os.path.join(WORK, "trace", f"{workload}-{seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    job = JOBS[workload]
    plain_ops, plain_wall, _ = job(seed, 0)
    target = trace_dir if workload == "cli-session" else os.path.join(trace_dir, "trace.json")
    traced_ops, traced_wall, calib = job(seed, 0, target)
    ops = plain_ops + traced_ops
    finish_checks(workload, ops)
    summaries = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".json"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                summaries.append(json.load(fh))
    values = layertrace.layer_metrics(summaries)
    values["cli.output_bytes"] = sum(len(op.stdout.encode("utf-8")) for op in traced_ops)
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    values["host.calib_s"] = calib
    info = {"trace files": trace_dir, "spans kept": sum(s["spans"] for s in summaries)}
    return ops, values, info


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symtwistor", "cli.py")):
        print(f"error: program source not found under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        print("error: the program source does not compile", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    meter.pin()
    if args.trace:
        ops, values, info = run_traced(args.workload, args.seed)
        names = declared("per_layer")
    else:
        ops, values, info = run_untraced(args.workload, args.seed, args.seconds)
        names = declared("end_to_end")
    failed = [op for op in ops if op.failure]
    missing = [name for name, _ in names if name not in values]
    if missing:  # e.g. a check renamed in the program: reported as 0 until re-declared
        print(f"warning: declared metrics not produced: {', '.join(missing)}", file=sys.stderr)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in names}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"  {'failed_ratio':<44} {len(failed) / len(ops):>14.6g} "
          f"({len(failed)} of {len(ops)} operations)", file=sys.stderr)
    for key, value in info.items():
        print(f"  {key}: {value}", file=sys.stderr)
    for op in failed[:10]:
        print(f"  FAILED {' '.join(op.spec.get('argv', [op.spec.get('op', '?')]))}: {op.failure}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

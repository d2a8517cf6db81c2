"""Fresh-interpreter worker of the benchmark.

    python3 perfbench/worker.py kernel-solve SEED REP [TRACE_PATH]
        Runs one kernel-solve round in-process, checks it, and prints one
        JSON line: the perf_counter bounds of the round and of each part,
        and the failure (or null) of each part.
    python3 perfbench/worker.py cli TRACE_PATH ARG...
        Installs the tracer, prints a perf_counter mark on stderr, then runs
        symtwistor.cli.main(ARGS) and exits with its code; the trace summary
        and spans go to TRACE_PATH.

The program source is imported from ``src`` of the current directory.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from layertrace import Tracer  # noqa: E402


def _columns(spinors):
    """Coefficient columns of spinors over their joint support."""
    from symtwistor.exactnum import G

    coords = {}
    for s in spinors:
        for key in sorted(s.terms):
            for k, c in enumerate(s.terms[key].coeffs):
                if not c.is_zero() and (key, k) not in coords:
                    coords[(key, k)] = len(coords)
    cols = []
    for s in spinors:
        col = [G(0)] * len(coords)
        for key, poly in s.terms.items():
            for k, c in enumerate(poly.coeffs):
                if not c.is_zero():
                    col[coords[(key, k)]] = c
        cols.append(col)
    return cols, len(coords)


def oracle(kind_text: str, m: int, seeds: list):
    """Recursion span for the seeds, linear kernel, and whether the spans agree."""
    from symtwistor import kernels as ker
    from symtwistor.spinor import ODD, QPoly, Spinor
    from symtwistor.weyl import BasisTag

    kind = ker.RecursionKind.parse(kind_text)
    qmax = 2 * m + 4
    op = ker.operator_for_kind(kind)
    elements = list(ker.solve_recursion(kind, m, QPoly(), qmax).basis)
    for coeffs in seeds:
        family = ker.solve_recursion(kind, m, QPoly([Fraction(n, d) for n, d in coeffs]), qmax)
        if family.basis:
            elements.append(family.basis[0])
    rcols, rn = _columns([op.apply(el) for el in elements])
    exact = []
    for combo in ker.nullspace(rcols, rn):
        s = Spinor.zero(BasisTag.ZZBAR)
        for c, el in zip(combo, elements):
            if not c.is_zero():
                s = s + el.scale(c)
        if not s.is_zero():
            exact.append(s)
    qdeg = qmax + (1 if kind.parity == ODD else 0)
    linear = list(ker.kernel_linear_solve(op, m, qdeg, parity=kind.parity).basis)
    cols, n = _columns(exact + linear)
    spans_equal = (
        ker.rank(cols[: len(exact)], n) == ker.rank(cols[len(exact):], n) == ker.rank(cols, n)
    )
    return op, linear, {"spans_equal": spans_equal}


def ts_linear(m: int):
    from symtwistor import kernels as ker
    from symtwistor.operators import named_operator
    from symtwistor.weyl import BasisTag

    ts = named_operator("ts", BasisTag.ZZBAR)
    return ts, list(ker.kernel_linear_solve(ts, m, 2 * m + 7).basis), {}


def kernel_solve(seed: int, rep: int, trace_path=None) -> dict:
    import symtwistor.cli  # noqa: F401  (import cost is set-up, not an operation)

    ops = inputs.kernel_round(seed, rep)
    tracer = Tracer() if trace_path else None
    if tracer:
        tracer.install()
    bounds, outcomes = [], []
    t_start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            if op["op"] == "oracle":
                outcomes.append(oracle(op["kind"], op["m"], op["seeds"]))
            else:
                outcomes.append(ts_linear(op["m"]))
        except Exception as exc:  # a crash is a failed operation, not a failed run
            outcomes.append(exc)
        bounds.append((t0, time.perf_counter()))
    t_end = time.perf_counter()
    if tracer:
        tracer.uninstall()
        tracer.write(trace_path)
    failures = []  # one entry per operation: None or the reason it failed
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, Exception):
            failures.append(f"{type(outcome).__name__}: {outcome}")
            continue
        try:
            failures.append(checks.check_kernel_op(op, outcome[2], outcome[0], outcome[1]))
        except Exception as exc:
            failures.append(f"check raised {type(exc).__name__}: {exc}")
    return {"op_bounds": bounds, "round_bounds": (t_start, t_end), "failures": failures}


def traced_cli(trace_path: str, argv: list) -> int:
    tracer = Tracer()
    tracer.install()
    from symtwistor import cli

    print(repr(time.perf_counter()), file=sys.stderr, flush=True)  # the launcher's mark
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(trace_path)
    return code


def main(argv: list) -> int:
    if argv[:1] == ["kernel-solve"]:
        trace_path = argv[3] if len(argv) > 3 else None
        print(json.dumps(kernel_solve(int(argv[1]), int(argv[2]), trace_path)))
        return 0
    if argv[:1] == ["cli"]:
        return traced_cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end.

Subcommands: verify, generate, apply, decompose, tables. Each computes and
checks its whole result, then returns its exit code and pieces that only
render, which join to its output and final newline; `main` writes them. Output
is deterministic: identical invocations produce byte-identical text (all term
orderings are lexicographic on exponent tuples).

Exit codes: 0 success / all checks pass, 1 verification failure
(including an ArithmeticError raised by a solver guard), 2 usage, parse,
or schema error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import __version__
from .weyl import BasisTag
from .spinor import Spinor
from .parsing import parse_operator
from . import combinatorics as comb_mod
from .kernels import (
    howe_decompose,
    monogenic_minus,
    monogenic_plus,
    twistor_kernel_basis,
)
from .verify import run_suite, suite_names

# Work limits on command-line input; a larger value exits 2 before any work.
MAX_SPINOR_QDEGREE = 512  # the q-degree of an `apply` or `decompose` input
MAX_TABLE_ORDER = 100  # the n of `tables`
MAX_GENERATE_DEGREE = 100  # the m of `generate`
MAX_DECOMPOSE_HOMOGENEITY = 24  # the top position degree of a `decompose` input
MAX_APPLY_DEGREE = 100  # the top position degree of an `apply` input

_set_int_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)  # 3.10.7 on


def _require_at_most(name: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{name} must be at most {limit}")


def _top_degree(spinor: Spinor) -> int:
    return max((e1 + e2 for e1, e2 in spinor.terms), default=0)


def _json_pieces(obj) -> Iterator[str]:
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while batch := "".join(islice(chunks, 4096)):  # tiny chunks; a write can be a system call
        yield batch
    yield "\n"


def _lines(lines: Iterable[str]) -> Iterator[str]:
    return chain.from_iterable((line, "\n") for line in lines)  # a long line is not copied


def _load_spinor(path: str) -> Spinor:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        spinor = Spinor.from_json(json.loads(raw))
    except RecursionError:  # decoding, and repr in an error message, recurse per level
        raise ValueError("spinor JSON is nested too deeply") from None
    _require_at_most("q-degree", spinor.q_degree() or 0, MAX_SPINOR_QDEGREE)
    return spinor


def _render_spinors(spinors: List[Spinor], fmt: str) -> Iterable[str]:
    if fmt == "json":
        trees = [s.to_json() for s in spinors]
        return _json_pieces(trees[0] if len(trees) == 1 else trees)
    render = Spinor.to_latex if fmt == "latex" else Spinor.__str__
    return _lines(render(spinors.pop(0)) for _ in range(len(spinors)))  # each freed once rendered


# ---- verify ----


def _cmd_verify(args) -> Tuple[int, Iterable[str]]:
    report = run_suite(args.suite)
    if args.format == "json":
        return report.exit_code, _json_pieces(report.to_json())
    render = report.render_latex if args.format == "latex" else report.render_text
    return report.exit_code, _lines([render()])


# ---- generate ----


def _cmd_generate(args) -> Tuple[int, Iterable[str]]:
    _require_at_most("m", args.m, MAX_GENERATE_DEGREE)
    if args.kind == "monogenic+":
        spinors = [monogenic_plus(args.m)]
    elif args.kind == "monogenic-":
        spinors = [monogenic_minus(args.m)]
    else:
        spinors = twistor_kernel_basis(args.m)
    target = BasisTag(args.basis) if args.basis else BasisTag.ZZBAR
    spinors = [s.change_basis(target) for s in spinors]
    return 0, _render_spinors(spinors, args.format)


# ---- apply ----


def _cmd_apply(args) -> Tuple[int, Iterable[str]]:
    spinor = _load_spinor(args.spinor_file)
    _require_at_most("position degree", _top_degree(spinor), MAX_APPLY_DEGREE)
    target = BasisTag(args.basis) if args.basis else spinor.basis
    spinor = spinor.change_basis(target)
    op = parse_operator(args.op_expr, target)
    result = op.apply(spinor)
    return 0, _render_spinors([result], args.format)


# ---- decompose ----


def _homogeneous_parts(spinor: Spinor) -> List[Spinor]:
    grouped: Dict[int, dict] = {}
    for (e1, e2), poly in spinor.terms.items():
        grouped.setdefault(e1 + e2, {})[(e1, e2)] = poly
    return [Spinor(spinor.basis, grouped[l]) for l in sorted(grouped)]


def _cmd_decompose(args) -> Tuple[int, Iterable[str]]:
    spinor = _load_spinor(args.spinor_file)
    _require_at_most("homogeneity", _top_degree(spinor), MAX_DECOMPOSE_HOMOGENEITY)
    if args.basis:
        spinor = spinor.change_basis(BasisTag(args.basis))
    components = []
    for part in _homogeneous_parts(spinor):
        components.extend(howe_decompose(part))  # sums to part by construction
    components.sort(key=lambda c: (c.homogeneity + c.power, c.power))
    if args.format == "json":
        payload = {
            "components": [
                {
                    "homogeneity": c.homogeneity,
                    "power": c.power,
                    "monogenic": c.monogenic.to_json(),
                }
                for c in components
            ],
            "reconstruction_exact": True,
        }
        return 0, _json_pieces(payload)
    return 0, _component_pieces(components, args.format == "latex")


def _component_pieces(components, latex: bool) -> Iterator[str]:
    head = "% homogeneity {}, power {}\n" if latex else "l={} j={}: "
    for c in components:
        yield head.format(c.homogeneity, c.power)
        yield c.monogenic.to_latex() if latex else str(c.monogenic)
        yield "\n"
    yield f"{'%' if latex else ''}components: {len(components)}, reconstruction: exact\n"


# ---- tables ----


def _grid_latex(rows: List[List[str]], ncols: int) -> List[str]:
    lines = [r"\begin{array}{" + "r" * ncols + "}"]
    for row in rows:
        padded = row + [""] * (ncols - len(row))
        lines.append(" & ".join(padded) + r" \\")
    lines.append(r"\end{array}")
    return lines


def _cmd_tables(args) -> Tuple[int, Iterable[str]]:
    if args.n < 0:
        raise ValueError("n must be nonnegative")
    _require_at_most("n", args.n, MAX_TABLE_ORDER)
    n = args.n
    # each table gives its flat sequence, its JSON body, its text and its LaTeX
    if args.which == "A":
        table = comb_mod.a_table(n)
        rows = [[table[(j, k)] for k in range(n - 2 * j + 1)] for j in range(n // 2 + 1)]
        flat = [v for row in rows for v in row]
        body = {"rows": [{"j": j, "entries": row} for j, row in enumerate(rows)]}
        cells = [[str(v) for v in row] for row in rows]
        width = max(len(cell) for row in cells for cell in row)
        text = [
            f"j={j}: " + " ".join(cell.rjust(width) for cell in row) for j, row in enumerate(cells)
        ]
        latex = _grid_latex(cells, n + 1)
    elif args.which == "stirling":
        flat = [comb_mod.stirling(n, m) for m in range(1, n + 1)]
        body = {"entries": flat}
        text = [f"s({n}, m) for m = 1..{n}: " + " ".join(str(v) for v in flat)]
        latex = _grid_latex([[str(v) for v in flat]], max(n, 1))
    else:
        table = comb_mod.stirling_tilde(n)
        keys = sorted(table)
        flat = [table[key] for key in keys]
        body = {"entries": [{"i": i, "r": r, "value": table[(i, r)]} for i, r in keys]}
        text = [f"i={i} r={r}: {table[(i, r)]}" for i, r in keys]
        max_r = max(r for _, r in keys)
        grid = [[str(table.get((i, r), "")) for r in range(max_r + 1)] for i in range(n + 1)]
        latex = _grid_latex(grid, max_r + 1)
    if args.flat:
        body = {"flat": flat}
        text = [",".join(str(v) for v in flat)]
        latex = ["$" + ", ".join(str(v) for v in flat) + "$"]
    if args.format == "json":
        return 0, _json_pieces({"which": args.which, "n": n, **body})
    return 0, _lines(latex if args.format == "latex" else text)


# ---- argument wiring ----


class _OneLineParser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, exit 2."""

    def error(self, message: str):
        self.exit(2, f"usage: {self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=["json", "latex", "text"],
        default="text",
        help="output rendering (default: text)",
    )
    common.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write output to PATH instead of stdout",
    )

    basis = argparse.ArgumentParser(add_help=False)
    basis.add_argument(
        "--basis",
        choices=[tag.value for tag in BasisTag],
        default=None,
        help="coordinate basis for input interpretation and output",
    )

    parser = _OneLineParser(
        prog="symtwistor",
        description="Exact verification and generation tool for the symplectic "
        "Dirac/twistor system in two position variables and one ordinary "
        "commuting variable q with [dq, q] = 1.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=suite_names())
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "generate",
        parents=[common, basis],
        help="emit a canonical kernel representative",
    )
    p.add_argument("kind", choices=["monogenic+", "monogenic-", "twistor"])
    p.add_argument("m", type=int, help="homogeneity degree (nonnegative)")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser(
        "apply", parents=[common, basis], help="apply an operator expression to a spinor file"
    )
    p.add_argument("op_expr", help="operator expression, e.g. 'dx - q*dq*dx + i*q^2*dy'")
    p.add_argument("spinor_file", help="spinor JSON path, or - for stdin")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser(
        "decompose",
        parents=[common, basis],
        help="peel a polynomial spinor into raised Dirac-kernel layers",
    )
    p.add_argument("spinor_file", help="spinor JSON path, or - for stdin")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("tables", parents=[common], help="export combinatorial tables")
    p.add_argument("which", choices=["A", "stirling", "stirling-tilde"])
    p.add_argument("n", type=int, help="table order (nonnegative)")
    p.add_argument(
        "--flat",
        action="store_true",
        help="emit the row-major flat sequence over the triangular support",
    )
    p.set_defaults(fn=_cmd_tables)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        code, pieces = args.fn(args)
        _set_int_digits(0)  # input keeps the guard; an exact output number may have any length
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            try:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            except OSError:  # stdout refused it: fd 1 to devnull keeps the exit flush silent
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise
        return code
    except (ValueError, OSError) as exc:  # OperatorSyntaxError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a solver guard: the result failed its own check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _set_int_digits(digits)


if __name__ == "__main__":
    sys.exit(main())

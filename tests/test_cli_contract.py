"""Exit-code contract of the CLI under random input.

Every argument vector, operator string and spinor file, well-formed or not,
must end in exit 0, 1 or 2, never in an uncaught exception, and a nonzero
exit must leave exactly one line on stderr. The one exception is a `verify`
report with a failing check: it exits 1 with the report on stdout and
nothing on stderr. The `kernels` and `all` suites are left out of the fuzz
because each takes most of a second; `algebra` (red by design) and
`combinatorics` stand in for them.
"""

import contextlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from symtwistor.cli import main

GENERATORS = {"xy": ("x", "y", "dx", "dy"), "zzbar": ("z", "zbar", "dz", "dzbar")}
OPERATOR_TOKENS = (
    *GENERATORS["xy"], *GENERATORS["zzbar"], "q", "dq", "i",
    *"0123456789", *"+-*^/()", " ",
    "@", "#", ".", ",", "\t", "\n", "é", "\\", "'", "[",
)


def _well_formed(names):
    factor = st.tuples(st.sampled_from(names + ("q", "dq", "i", "2", "1/3")), st.integers(0, 3))
    product = st.lists(factor.map(lambda f: f"{f[0]}^{f[1]}"), min_size=1, max_size=3).map("*".join)
    return st.lists(product, min_size=1, max_size=3).map(" - ".join)


operators = st.sampled_from(sorted(GENERATORS)).flatmap(lambda b: _well_formed(GENERATORS[b])) | (
    st.lists(st.sampled_from(OPERATOR_TOKENS), max_size=10).map("".join)
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
valid_coefficients = st.tuples(
    st.integers(-4, 4), st.integers(1, 4), st.integers(-4, 4), st.integers(1, 4)
).map(list)
valid_spinors = st.fixed_dictionaries(
    {
        "basis": st.sampled_from(sorted(GENERATORS)),
        "terms": st.lists(
            st.fixed_dictionaries(
                {
                    "e1": st.integers(0, 3),
                    "e2": st.integers(0, 3),
                    "q": st.lists(valid_coefficients, max_size=3),
                }
            ),
            max_size=3,
        ),
    }
)
# wrong types, negative or huge exponents, zero denominators, an unknown basis
exponents = st.integers(-2, 3) | st.just(10**9) | json_values
coefficients = st.lists(st.integers(-4, 4), min_size=4, max_size=4) | json_values
terms = st.fixed_dictionaries(
    {"e1": exponents, "e2": exponents, "q": st.lists(coefficients, max_size=3) | json_values}
)
malformed_spinors = st.fixed_dictionaries(
    {
        "basis": st.sampled_from(["xy", "zzbar", "polar"]) | json_values,
        "terms": st.lists(terms, max_size=3) | json_values,
    }
) | json_values
# far deeper than the recursion limit, which Hypothesis raises while a test runs,
# at the top and inside a coefficient list
DEEP = "[" * 100_000 + "]" * 100_000
deep_json = st.integers(10_000, 100_000).map(lambda n: "[" * n + "]" * n)
deep_spinors = deep_json.map(
    lambda text: '{"basis": "xy", "terms": [{"e1": 0, "e2": 0, "q": [%s]}]}' % text
)
spinor_files = (
    (valid_spinors | malformed_spinors).map(json.dumps) | st.text(max_size=12)
    | deep_json | deep_spinors
)
bases = st.sampled_from([[], ["--basis", "xy"], ["--basis", "zzbar"]])
formats = st.sampled_from(["text", "json", "latex"])


def run_main(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors, --help and --version
                code = exc.code
    return code, err.getvalue(), out.getvalue()


def assert_contract(code, err, out=""):
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 1 and not err:  # a verify report whose failing check is on stdout
        assert "sl2.ds-xs" in out, out
    elif code != 0:
        assert err.endswith("\n") and err.count("\n") == 1, err


@settings(max_examples=150, deadline=None)
@given(op=operators, spinor_file=spinor_files, basis=bases, fmt=formats)
def test_apply_keeps_the_exit_code_contract(op, spinor_file, basis, fmt):
    # "--" keeps an expression such as "-x" from being read as an option
    assert_contract(*run_main(["apply", "--format", fmt, *basis, "--", op, "-"], spinor_file))


@settings(max_examples=100, deadline=None)
@given(spinor_file=spinor_files, basis=bases, fmt=formats)
def test_decompose_keeps_the_exit_code_contract(spinor_file, basis, fmt):
    assert_contract(*run_main(["decompose", "--format", fmt, *basis, "-"], spinor_file))


# ---- every subcommand, from raw argv ----

# valid, negative, signed, padded, underscored, non-numeric, huge, and past int()'s digit limit
INTEGERS = ("0", "2", "-1", "+3", "007", "1_0", "x", "", "2.5", "9" * 30, "9" * 5000)
formats_argv = st.sampled_from(
    [[], ["--format", "json"], ["--format", "latex"], ["--format", "text"], ["--format", "pdf"],
     ["--format"]]
)
bases_argv = st.sampled_from([[], ["--basis", "xy"], ["--basis", "zzbar"], ["--basis", "polar"]])
integers = st.sampled_from(INTEGERS)


@pytest.fixture(scope="module")
def spinor_paths(tmp_path_factory):
    """Paths an argv may name: stdin, files valid, malformed and deep, a directory, none."""
    root = tmp_path_factory.mktemp("spinors")
    contents = {
        "valid.json": '{"basis": "xy", "terms": [{"e1": 1, "e2": 0, "q": [[1, 1, 0, 1]]}]}',
        "malformed.json": '{"basis": "xy", "terms": [{"e1": -1}]}',
        "truncated.json": '{"basis": "xy", "terms": [',
        "deep.json": DEEP,
        "deep-q.json": '{"basis": "xy", "terms": [{"e1": 0, "e2": 0, "q": [%s]}]}' % DEEP,
    }
    for name, text in contents.items():
        (root / name).write_text(text)
    return ["-", str(root), str(root / "missing.json")] + [str(root / n) for n in contents]


def subcommand_argv(paths):
    """Argument vectors shaped like each subcommand, every slot valid or not."""
    path = st.sampled_from(paths)
    op = st.sampled_from(["x", "dx*q - i*dq", "-x", "z*dzbar", "(x", "x^99999", "--"])
    return st.one_of(
        st.tuples(st.sampled_from(["algebra", "combinatorics", "al", "ALL", "-"]), formats_argv)
        .map(lambda t: ["verify", t[0], *t[1]]),
        st.tuples(
            st.sampled_from(["monogenic+", "monogenic-", "twistor", "monogenic", "-m"]),
            integers, bases_argv, formats_argv,
        ).map(lambda t: ["generate", t[0], t[1], *t[2], *t[3]]),
        st.tuples(op, path, bases_argv, formats_argv, st.booleans()).map(
            lambda t: ["apply", *t[2], *t[3], *(["--"] if t[4] else []), t[0], t[1]]),
        st.tuples(path, bases_argv, formats_argv).map(lambda t: ["decompose", *t[1], *t[2], t[0]]),
        st.tuples(
            st.sampled_from(["A", "stirling", "stirling-tilde", "B"]), integers,
            st.sampled_from([[], ["--flat"]]), formats_argv,
        ).map(lambda t: ["tables", t[0], t[1], *t[2], *t[3]]),
    )


def raw_argv(paths):
    """Tokens in any order: subcommands, choices, flags, integers, paths and stray dashes."""
    tokens = (
        "verify", "generate", "apply", "decompose", "tables", "algebra", "combinatorics",
        "monogenic+", "twistor", "A", "stirling-tilde", "x", "-x", "-", "--", "--format", "json",
        "--basis", "zzbar", "--qmax", "--flat", "--bogus", "-h", "--version", "0", "3", "-1",
        "9" * 30, *paths,
    )
    return st.lists(st.sampled_from(tokens), max_size=6)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), stdin_text=spinor_files)
def test_every_subcommand_keeps_the_exit_code_contract(spinor_paths, data, stdin_text):
    argv = data.draw(subcommand_argv(spinor_paths) | raw_argv(spinor_paths), label="argv")
    assert_contract(*run_main(argv, stdin_text))

"""Exit-code contract of the CLI under random input.

Every operator string and every spinor file, well-formed or not, must end
in exit 0, 1 or 2, never in an uncaught exception, and a nonzero exit must
leave exactly one line on stderr.
"""

import contextlib
import io
import json
import sys
from unittest import mock

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
spinor_files = (valid_spinors | malformed_spinors).map(json.dumps) | st.text(max_size=12)
bases = st.sampled_from([[], ["--basis", "xy"], ["--basis", "zzbar"]])
formats = st.sampled_from(["text", "json", "latex"])


def run_main(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


def assert_contract(code, err):
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code != 0:
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

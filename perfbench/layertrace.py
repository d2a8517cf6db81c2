"""Outside-in tracer for the symtwistor layers.

The tracer wraps the public functions and methods of each module and
rebinds every name through which the program looks them up: module
globals (``kernels.nullspace``, ``cli.howe_decompose`` imported by name),
module-level registries (``operators._BUILDERS``), class attributes
including aliases such as ``GaussianRational.__rmul__``, and the check
functions stored in ``verify._CHECKS``. The program itself is unchanged.

Every wrapped call pushes a frame on one stack. When it returns, its
duration is added to the parent frame's child time, so a frame's self time
is its duration minus the time its child layer calls cover. Calls of the
layers above ``spinor`` are also kept as span records (id, parent id, key,
start, end). ``spinor`` and ``exactnum`` calls are too numerous for one
record each, so they are only aggregated; a scalar operation called inside
another scalar operation is counted but not timed separately.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import sys
import time
import types
from collections import Counter
from fractions import Fraction

# Layers from the top; a module's layer is its name.
LAYERS = (
    "cli",
    "verify",
    "kernels",
    "operators",
    "parsing",
    "combinatorics",
    "weyl",
    "spinor",
    "exactnum",
)
AGGREGATED_LAYERS = {"spinor", "exactnum"}

# Dunder methods of the value classes that do layer work.
_VALUE_DUNDERS = {
    "__init__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__pow__",
    "__truediv__",
    "__rtruediv__",
}
_VALUE_LAYERS = {"weyl", "spinor", "exactnum"}


class Tracer:
    """Aggregates counts and self times per wrapped name; keeps spans in memory."""

    def __init__(self):
        self.stats = {}  # key -> [calls, self_s, total_s]
        self.counters = Counter()
        self.spans = []  # (id, parent id, key, start, end)
        self.operator_builds = set()  # distinct (name, basis) pairs built
        self._stack = [[0.0, 0]]  # open frames: [child time, span id]
        self._next_id = [1]
        self._depth = Counter()  # open calls of watched keys
        self._scalar_open = [False]
        self._patched = []  # (namespace, name, original) for uninstall
        self._gr = None

    # ---- wrappers ----

    def _span_wrapper(self, key, fn, hook=None, watch=None):
        stack, spans, next_id, depth = self._stack, self.spans, self._next_id, self._depth
        st = self.stats.setdefault(key, [0, 0.0, 0.0])
        keep = key.split(":", 1)[0] not in AGGREGATED_LAYERS
        pc = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            parent_id = stack[-1][1]
            if keep:
                sid = next_id[0]
                next_id[0] = sid + 1
            else:
                sid = parent_id
            frame = [0.0, sid]
            stack.append(frame)
            if watch is not None:
                depth[watch] += 1
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = pc()
                if watch is not None:
                    depth[watch] -= 1
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                st[0] += 1
                st[1] += dt - frame[0]
                st[2] += dt
                if keep:
                    spans.append((sid, parent_id, key, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar_wrapper(self, key, fn, classify):
        stack, open_, counters = self._stack, self._scalar_open, self.counters
        st = self.stats.setdefault(key, [0, 0.0, 0.0])
        pc = time.perf_counter
        gr = self._gr

        def wrapper(*args, **kwargs):
            st[0] += 1
            if classify:
                _classify_mul(counters, gr, args[0], args[1])
            if open_[0]:
                return fn(*args, **kwargs)
            open_[0] = True
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                open_[0] = False
                stack[-1][0] += dt
                st[1] += dt
                st[2] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap(self, layer, name, fn):
        key = f"{layer}:{name}"
        short = name.split(".")[-1]
        if layer == "exactnum":
            return self._scalar_wrapper(key, fn, short in ("__mul__", "__rmul__"))
        hook = watch = None
        if layer == "weyl" and name == "WeylOperator.apply":
            hook = self._apply_hook
        elif layer == "weyl" and name == "WeylOperator.compose":
            hook = self._compose_hook
        elif layer == "kernels" and name == "nullspace":
            hook = self._nullspace_hook
        elif layer == "kernels" and name == "howe_decompose":
            watch = "howe"
        elif layer == "parsing" and name == "parse_operator":
            hook = self._parse_hook
        elif layer == "operators" and (short.startswith("build_") or short == "named_operator"):
            hook = self._build_hook(short)
            watch = "operators"
        return self._span_wrapper(key, fn, hook, watch)

    # ---- per-layer counters computed from the arguments ----

    def _apply_hook(self, args, kwargs):
        op, spinor = args[0], args[1]
        c = self.counters
        c["weyl.apply.term_pairs"] += len(op.terms) * len(spinor.terms)
        useful = dq = 0
        for (_, _, _, d, e, f) in op.terms:
            for (m1, m2) in spinor.terms:
                if d <= m1 and e <= m2:
                    useful += 1
                    dq += f
        c["weyl.apply.useful_pairs"] += useful
        c["weyl.apply.dq_steps"] += dq
        if self._depth["howe"]:
            c["kernels.howe_decompose.applies"] += 1

    def _compose_hook(self, args, kwargs):
        self.counters["weyl.compose.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def _nullspace_hook(self, args, kwargs):
        columns, nrows = args[0], args[1]
        nonzero = 0
        for col in columns:
            for c in col:
                if c.re or c.im:
                    nonzero += 1
        self.counters["kernels.nullspace.cells"] += len(columns) * nrows
        self.counters["kernels.nullspace.nonzero"] += nonzero

    def _parse_hook(self, args, kwargs):
        self.counters["parsing.chars"] += len(args[0])

    def _build_hook(self, builder_name):
        from symtwistor import operators

        # registry name and native basis of each direct builder
        native = {fn.__name__: name for name, fn in operators._BUILDERS.items()}
        native_basis = {"build_ds_squared": "zzbar"}

        def hook(args, kwargs):
            if self._depth["operators"]:
                return  # a builder called by another builder is not a separate build
            self.counters["operators.build.count"] += 1
            if builder_name == "named_operator":
                basis = args[1] if len(args) > 1 else kwargs.get("basis", operators.BasisTag.XY)
                pair = (args[0] if args else kwargs["name"], basis.value)
            else:
                name = native.get(builder_name, builder_name)
                pair = (name, native_basis.get(builder_name, "xy"))
            self.operator_builds.add(pair)

        return hook

    # ---- installation ----

    def install(self):
        """Wrap every public function and method of the symtwistor modules."""
        import symtwistor.cli  # noqa: F401  (imports every layer)
        from symtwistor.exactnum import GaussianRational

        self._gr = GaussianRational
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "symtwistor" or n.startswith("symtwistor."))
        ]
        wrappers = {}  # id(original function) -> (original, wrapper)
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif isinstance(obj, type) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._patch_class(layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(vars(mod), name, entry[1])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        entry = wrappers.get(id(v))
                        if entry is not None and entry[0] is v:
                            self._set(obj, k, entry[1])
        self._patch_checks()

    def _patch_class(self, layer, cls):
        by_function = {}  # aliases share one wrapper
        for name, attr in list(vars(cls).items()):
            func = attr.__func__ if isinstance(attr, staticmethod) else attr
            if not isinstance(func, types.FunctionType):
                continue
            public = not name.startswith("_")
            if not (public or (layer in _VALUE_LAYERS and name in _VALUE_DUNDERS)):
                continue
            if id(func) not in by_function:
                by_function[id(func)] = self._wrap(layer, f"{cls.__name__}.{name}", func)
            wrapper = by_function[id(func)]
            new = staticmethod(wrapper) if isinstance(attr, staticmethod) else wrapper
            self._patched.append((cls, name, attr))
            setattr(cls, name, new)

    def _patch_checks(self):
        from symtwistor import verify

        checks = verify._CHECKS
        for i, check in enumerate(checks):
            fn = self._span_wrapper(f"verify:check:{check.suite}:{check.id}", check.fn)
            self._set(checks, i, dataclasses.replace(check, fn=fn))

    def _set(self, namespace, name, value):
        self._patched.append((namespace, name, namespace[name]))
        namespace[name] = value

    def uninstall(self):
        """Put every original back, in reverse order."""
        while self._patched:
            namespace, name, original = self._patched.pop()
            if isinstance(namespace, type):
                setattr(namespace, name, original)
            else:
                namespace[name] = original

    # ---- output ----

    def summary(self) -> dict:
        """Counts and times of this process, in a form that sums across processes."""
        return {
            "stats": self.stats,
            "counters": dict(self.counters),
            "operator_distinct": len(self.operator_builds),
            "spans": len(self.spans),
        }

    def write(self, path: str) -> None:
        """Write the summary to path and the spans, one JSON list a line, beside it."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)
        with open(path + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _classify_mul(counters, gr, a, b):
    """Count zero-operand and Z[i]-operand multiplications."""
    ar, ai = a.re, a.im
    if type(b) is gr:
        br, bi = b.re, b.im
    elif type(b) in (int, Fraction):
        br, bi = b, 0
    else:
        return  # the call itself rejects the operand
    if not (ar or ai) or not (br or bi):
        counters["exactnum.mul.zero_operand"] += 1
    elif ar.denominator == 1 and ai.denominator == 1 and br.denominator == 1 and (
        type(bi) is int or bi.denominator == 1
    ):
        counters["exactnum.mul.integral"] += 1


def _merge(summaries):
    stats, counters = {}, Counter()
    distinct = 0
    for s in summaries:
        for key, (calls, self_s, total_s) in s["stats"].items():
            acc = stats.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
        counters.update(s["counters"])
        distinct += s["operator_distinct"]
    return stats, counters, distinct


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(summaries) -> dict:
    """Per-layer metrics of one traced job from the summaries of its processes."""
    from symtwistor.verify import all_checks

    stats, c, distinct = _merge(summaries)

    def calls(key):
        return stats.get(key, [0])[0]

    def self_s(key):
        return stats.get(key, [0, 0.0])[1]

    def layer_self(layer):
        return sum(v[1] for k, v in stats.items() if k.startswith(layer + ":"))

    def layer_calls(layer):
        return sum(v[0] for k, v in stats.items() if k.startswith(layer + ":"))

    gr = "exactnum:GaussianRational."
    mul = calls(gr + "__mul__")
    zero = c["exactnum.mul.zero_operand"]
    apply_key, compose_key = "weyl:WeylOperator.apply", "weyl:WeylOperator.compose"
    howe = calls("kernels:howe_decompose")
    out = {
        "exactnum.mul.count": mul,
        "exactnum.addsub.count": sum(calls(gr + n) for n in ("__add__", "__sub__", "__rsub__")),
        "exactnum.inverse.count": calls(gr + "inverse"),
        "exactnum.self_s": layer_self("exactnum"),
        "exactnum.mul.zero_operand_share": _share(zero, mul),
        "exactnum.mul.integral_share": _share(c["exactnum.mul.integral"], mul - zero),
        "spinor.qpoly.new.count": calls("spinor:QPoly.__init__"),
        "spinor.weighted_dq.count": calls("spinor:QPoly.weighted_dq"),
        "spinor.change_basis.count": calls("spinor:Spinor.change_basis"),
        "spinor.self_s": layer_self("spinor"),
        "weyl.compose.count": calls(compose_key),
        "weyl.compose.term_pairs": c["weyl.compose.term_pairs"],
        "weyl.compose.self_s": self_s(compose_key),
        "weyl.apply.count": calls(apply_key),
        "weyl.apply.term_pairs": c["weyl.apply.term_pairs"],
        "weyl.apply.useful_share": _share(c["weyl.apply.useful_pairs"], c["weyl.apply.term_pairs"]),
        "weyl.apply.dq_steps": c["weyl.apply.dq_steps"],
        "weyl.apply.dq_reuse_ratio": _share(
            calls("spinor:QPoly.weighted_dq"), c["weyl.apply.dq_steps"]
        ),
        "weyl.apply.self_s": self_s(apply_key),
        "weyl.change_basis.count": calls("weyl:WeylOperator.change_basis"),
        "weyl.change_basis.self_s": self_s("weyl:WeylOperator.change_basis"),
        "parsing.parse.count": calls("parsing:parse_operator"),
        "parsing.chars": c["parsing.chars"],
        "parsing.self_s": layer_self("parsing"),
        "operators.build.count": c["operators.build.count"],
        "operators.build.distinct_share": _share(distinct, c["operators.build.count"]),
        "operators.self_s": layer_self("operators"),
        "kernels.nullspace.count": calls("kernels:nullspace"),
        "kernels.nullspace.cells": c["kernels.nullspace.cells"],
        "kernels.nullspace.density": _share(
            c["kernels.nullspace.nonzero"], c["kernels.nullspace.cells"]
        ),
        "kernels.nullspace.self_s": self_s("kernels:nullspace"),
        "kernels.solve_recursion.count": calls("kernels:solve_recursion"),
        "kernels.solve_recursion.self_s": self_s("kernels:solve_recursion"),
        "kernels.kernel_linear_solve.self_s": self_s("kernels:kernel_linear_solve"),
        "kernels.howe_decompose.count": howe,
        "kernels.howe_decompose.apply_per_call": _share(c["kernels.howe_decompose.applies"], howe),
        "kernels.howe_decompose.self_s": self_s("kernels:howe_decompose"),
        "combinatorics.count": layer_calls("combinatorics"),
        "combinatorics.self_s": layer_self("combinatorics"),
        "cli.self_s": layer_self("cli"),
    }
    for check in all_checks():
        seconds = stats.get(f"verify:check:{check.suite}:{check.id}", [0, 0.0, 0.0])[2]
        out[f"verify.check.{check.id}.s"] = seconds
        suite = f"verify.suite.{check.suite}.s"
        out[suite] = out.get(suite, 0.0) + seconds
    return out

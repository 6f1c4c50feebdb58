"""Per-layer tracing from outside the package.

`Tracer.install` replaces every module-namespace binding of each traced
function with a timing wrapper.  A binding is any attribute of an nmsflow
module that is the function object: `classifier` binds `homeomorphism_key`,
`lens_canonical` and `sum_normalize` by name, so patching `manifolds` alone
would miss those calls.  Spans nest on a stack; when a span closes, its
duration minus the time covered by its child spans is added to the
function's self time, so only per-function totals stay in memory.
"""

from __future__ import annotations

import sys
from time import perf_counter

from deadline import DeadlineExceeded

# (module, function) pairs traced, as `<module>.<function>` metric prefixes.
TRACED = (
    ("cli", "main"),
    ("classifier", "validate_invariant"),
    ("classifier", "classify"),
    ("classifier", "enumerate_invariants"),
    ("manifolds", "lens_canonical"),
    ("manifolds", "sum_normalize"),
    ("manifolds", "is_prime"),
    ("manifolds", "homeomorphism_key"),
    ("seifert", "normalize"),
    ("seifert", "lens_parameters"),
    ("seifert", "isomorphism_key"),
    ("homology", "h1"),
    ("homology", "smith_normal_form"),
    ("expressions", "parse_manifold"),
    ("expressions", "render_manifold"),
    ("surgery", "invert_framing"),
    ("selfcheck", "run_selfcheck"),
)

# Counters beyond calls/self_s/fail, with their units.
EXTRA = {
    "manifolds.homeomorphism_key": {"distinct_frac": "ratio"},
    "seifert.isomorphism_key": {"fibers_max": "count", "masks_computed": "count"},
    "homology.h1": {"cells": "count", "deadline_hits": "count"},
    "homology.smith_normal_form": {"cells": "count", "deadline_hits": "count"},
    "expressions.parse_manifold": {"chars_per_s": "chars/s"},
    "expressions.render_manifold": {"chars_per_s": "chars/s"},
}


class _Stat:
    __slots__ = ("calls", "self_s", "fail", "deadline_hits", "cells", "chars",
                 "fibers_max", "masks", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.fail = 0
        self.deadline_hits = 0
        self.cells = 0
        self.chars = 0
        self.fibers_max = 0
        self.masks = 0
        self.distinct = set()


def _matrix_cells(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


class Tracer:
    def __init__(self):
        self.stats = {f"{m}.{f}": _Stat() for m, f in TRACED}
        self.stack: list[list] = []  # [name, time covered by child spans]
        self.active = False
        self.wrappers = {}
        self.patched: list[tuple] = []  # (module, attribute, original)

    def install(self) -> None:
        """Bind every traced function's wrapper in place of the original."""
        for module_name, func_name in TRACED:
            target = getattr(sys.modules[f"nmsflow.{module_name}"], func_name)
            if target not in self.wrappers:
                self.wrappers[target] = self._wrap(f"{module_name}.{func_name}", target)
        for name, mod in list(sys.modules.items()):
            if name != "nmsflow" and not name.startswith("nmsflow."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self.wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self.patched.append((mod, attr, value))

    def uninstall(self) -> None:
        """Restore the original bindings."""
        for mod, attr, original in self.patched:
            setattr(mod, attr, original)
        self.patched.clear()

    def _observe(self, name, stat, args, result):
        """Input- and output-derived counters for the functions in EXTRA."""
        if name == "manifolds.homeomorphism_key":
            stat.distinct.add(args[0])
        elif name == "seifert.isomorphism_key":
            k = sum(1 for alpha, _ in args[0] if alpha >= 2)
            stat.fibers_max = max(stat.fibers_max, k)
            stat.masks += (1 << k) - 1
        elif name == "homology.smith_normal_form":
            cells = _matrix_cells(args[0])
            stat.cells += cells
            for frame in self.stack:
                if frame[0] == "homology.h1":
                    self.stats["homology.h1"].cells += cells
                    break
        elif name == "expressions.parse_manifold":
            stat.chars += len(args[0])
        elif name == "expressions.render_manifold" and result is not None:
            stat.chars += len(result)

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self.stack
        observed = name in EXTRA

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                stat.fail += 1
                if isinstance(exc, DeadlineExceeded):
                    stat.deadline_hits += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if observed:
                    self._observe(name, stat, args, result)

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = (stat.calls, "count")
            out[f"{name}.self_s"] = (stat.self_s, "s")
            out[f"{name}.fail"] = (stat.fail, "count")
            for key, unit in EXTRA.get(name, {}).items():
                if key == "distinct_frac":
                    value = len(stat.distinct) / stat.calls if stat.calls else 0.0
                elif key == "masks_computed":
                    value = stat.masks
                elif key == "chars_per_s":
                    value = stat.chars / stat.self_s if stat.self_s else 0.0
                else:
                    value = getattr(stat, key)
                out[f"{name}.{key}"] = (value, unit)
        return out


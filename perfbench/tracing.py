"""Timing and counting wrappers around the public functions of each efk layer.

A Tracer replaces every binding of a traced function in the efk module
namespaces (``efk.minimize.potential_delta`` as well as
``efk.potentials.potential_delta``) and restores them on ``uninstall``.  Each
call records a span (name, layer, start, end, parent); a span's self time is
its duration less the time its child spans cover.  Nothing is wrapped unless a
Tracer is installed, so untraced runs execute the library unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

#: (layer, module, public functions or Class.method names)
TRACED = (
    ("spectral", "efk.spectral", ("grid_values", "project_values", "from_values")),
    ("residual", "efk.spectral", ("gradient",)),
    ("potentials", "efk.potentials", ("reaction", "potential", "force", "potential_delta")),
    ("minimize", "efk.minimize", ("lbfgs",)),
    ("eigen", "efk.eigen", ("smallest_eigenpair", "stability_report")),
    ("continuation", "efk.continuation",
     ("seed_branch", "continue_branch", "newton_at_beta", "extrapolate_endpoint",
      "smallest_jacobian_eig")),
    ("radial", "efk.radial",
     ("radial_energy_value", "radial_gradient", "radial_energy", "residual_norm",
      "radial_lambda1", "flip_transform", "monotonicity_profile")),
    ("polar", "efk.polar",
     ("PolarProblem.fun", "PolarProblem.grad", "PolarProblem.make_line",
      "PolarProblem.h0", "modewise_stability", "polar_angular_defect")),
    ("saddle", "efk.saddle",
     ("build_saddle", "reflect_tile", "saddle_sign_minimum", "window_sup",
      "reflection_smoothness")),
)

TRANSFORMS = {"spectral.grid_values", "spectral.project_values", "spectral.from_values"}
NU1 = "continuation.smallest_jacobian_eig"
PRECOND = "polar.PolarProblem.h0"

#: every metric the traced run reports, with its unit
METRICS = {
    "spectral.transforms": "count",
    "spectral.transform_s": "s",
    "spectral.ms_per_transform": "ms",
    "potentials.calls": "count",
    "potentials.s": "s",
    "minimize.iterations": "count",
    "minimize.line_evals": "count",
    "minimize.self_s": "s",
    "eigen.eigensolves": "count",
    "eigen.matvecs": "count",
    "eigen.self_s": "s",
    "continuation.points": "count",
    "continuation.residual_evals": "count",
    "continuation.nu1_s": "s",
    "continuation.self_s": "s",
    "radial.calls": "count",
    "radial.s": "s",
    "polar.calls": "count",
    "polar.precond_s": "s",
    "polar.s": "s",
    "saddle.s": "s",
    "trace.overhead_s": "s",
}

_NAME, _LAYER, _T0, _T1, _PARENT, _CHILD = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for layer, modname, names in TRACED:
            module = importlib.import_module(modname)
            short = modname.rsplit(".", 1)[1]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(layer, f"{short}.{name}", orig))
                    continue
                orig = getattr(module, name)
                wrapper = self._wrap(layer, f"{short}.{name}", orig)
                for mod in [m for k, m in sys.modules.items()
                            if k == "efk" or k.startswith("efk.")]:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ---------------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn):
        before = after = None
        if name == "minimize.lbfgs":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                make_line = bound.arguments.get("make_line")
                if make_line is not None:
                    bound.arguments["make_line"] = self._counting_line(make_line)
                return bound.args, bound.kwargs

            def after(result):
                self.counts["minimize.iterations"] += result.iterations
        elif name == "continuation.seed_branch":
            def after(result):
                self.counts["continuation.points"] += 1
        elif name == "continuation.continue_branch":
            def after(result):
                self.counts["continuation.points"] += len(result) - 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [name, layer, 0.0, 0.0, parent, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                span[_T0], span[_T1] = t0, t1
                if parent is not None:
                    self.spans[parent][_CHILD] += t1 - t0
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counting_line(self, make_line):
        def counted_make_line(x, d):
            line = make_line(x, d)

            def counted(alpha):
                self.counts["minimize.line_evals"] += 1
                return line(alpha)

            return counted

        return counted_make_line

    # -- metrics -------------------------------------------------------------
    def _has_ancestor(self, span: list, test) -> bool:
        parent = span[_PARENT]
        while parent is not None:
            if test(self.spans[parent]):
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def _outermost(self, test) -> list:
        return [s for s in self.spans if test(s) and not self._has_ancestor(s, test)]

    def metrics(self, overhead_s: float) -> dict:
        def dur(spans):
            return sum(s[_T1] - s[_T0] for s in spans)

        def self_time(spans):
            return sum(s[_T1] - s[_T0] - s[_CHILD] for s in spans)

        def layer(name):
            return lambda s: s[_LAYER] == name

        transforms = [s for s in self.spans if s[_NAME] in TRANSFORMS]
        transform_s = dur(transforms)
        potentials = self._outermost(layer("potentials"))
        eigen = [s for s in self.spans if s[_LAYER] == "eigen"]
        cont = [s for s in self.spans if s[_LAYER] == "continuation"]
        radial = self._outermost(layer("radial"))
        polar = self._outermost(layer("polar"))
        out = {
            "spectral.transforms": len(transforms),
            "spectral.transform_s": transform_s,
            "spectral.ms_per_transform":
                1e3 * transform_s / len(transforms) if transforms else 0.0,
            "potentials.calls": len(potentials),
            "potentials.s": dur(potentials),
            "minimize.iterations": self.counts["minimize.iterations"],
            "minimize.line_evals": self.counts["minimize.line_evals"],
            "minimize.self_s": self_time(s for s in self.spans if s[_LAYER] == "minimize"),
            "eigen.eigensolves": sum(s[_NAME] == "eigen.smallest_eigenpair" for s in self.spans),
            "eigen.matvecs": sum(s[_NAME] == "spectral.project_values"
                                 and self._has_ancestor(s, layer("eigen"))
                                 for s in self.spans),
            "eigen.self_s": self_time(eigen),
            "continuation.points": self.counts["continuation.points"],
            "continuation.residual_evals": sum(
                s[_NAME] == "spectral.gradient" and self._has_ancestor(s, layer("continuation"))
                for s in self.spans),
            "continuation.nu1_s": dur(self._outermost(lambda s: s[_NAME] == NU1)),
            "continuation.self_s": self_time(s for s in cont if s[_NAME] != NU1),
            "radial.calls": len(radial),
            "radial.s": dur(radial),
            "polar.calls": len(polar),
            "polar.precond_s": dur(self._outermost(lambda s: s[_NAME] == PRECOND)),
            "polar.s": dur(polar),
            "saddle.s": dur(self._outermost(layer("saddle"))),
            "trace.overhead_s": overhead_s,
        }
        assert set(out) == set(METRICS)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines relative to the first span's start."""
        t_ref = min((s[_T0] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[_NAME], "layer": s[_LAYER],
                                     "start": s[_T0] - t_ref, "end": s[_T1] - t_ref,
                                     "parent": s[_PARENT]}) + "\n")

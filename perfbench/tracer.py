"""Outside-in tracing of splitplot's public functions.

The tracer wraps each target function and rebinds every module attribute in
the ``splitplot`` package that refers to the original, so names imported
into other modules (``splitplot.inference.solve_v``,
``splitplot.cli.generate_design``, ...) are traced too.  No program file is
changed; ``uninstall`` puts the originals back.

Per function it accumulates calls, inclusive time and self time, where self
time is inclusive time minus the time spent in traced callees.  Hooks see
the call arguments and the set of traced functions currently on the stack,
which is how the derived counters (solve_v calls made inside reml_fit,
exchange starts, profiler grid points) are taken at the layer boundary.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

TARGETS = (
    "splitplot.covariance.solve_v",
    "splitplot.inference.reml_objective",
    "splitplot.inference.reml_fit",
    "splitplot.inference.fixed_effect_tests",
    "splitplot.boomerang_sim.simulate",
    "splitplot.design_gen.generate_design",
    "splitplot.design_gen.model_matrix",
    "splitplot.design_eval.power_report",
    "splitplot.design_eval.diagnostics",
    "splitplot.profiler.optimize",
    "splitplot.model_spec.build_model",
)


def _short(qualname: str) -> str:
    """'splitplot.inference.reml_fit' -> 'inference.reml_fit'."""
    return qualname.split(".", 1)[1]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.incl_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()  # derived counters filled by the hooks
        self.active = Counter()  # traced functions currently on the stack
        self._child_s = []  # per open span: time covered by traced callees
        self._patches = []

    # ------------------------------------------------------------ hooks

    def _hook(self, name, args, kwargs):
        if name == "covariance.solve_v" and self.active["inference.reml_fit"]:
            self.counts["solve_v_in_fit"] += 1
        elif name == "inference.reml_objective" and self.active["inference.reml_fit"]:
            self.counts["objective_in_fit"] += 1
        elif name == "design_gen.generate_design":
            spec = args[0] if args else kwargs["spec"]
            self.counts["starts"] += spec.n_starts
        elif name == "design_gen.model_matrix":
            if self.active["design_gen.generate_design"]:
                self.counts["model_matrix_in_search"] += 1
            if self.active["profiler.optimize"]:
                settings = args[1] if len(args) > 1 else kwargs["settings"]
                rows = getattr(settings, "shape", (1,))
                self.counts["optimize_rows"] += rows[0] if len(rows) == 2 else 1
        elif name == "profiler.optimize":
            fits = args[0] if args else kwargs["fits"]
            self.counts["optimize_fits"] += len(fits)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._hook(name, args, kwargs)
            self.active[name] += 1
            self._child_s.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = self._child_s.pop()
                self.active[name] -= 1
                self.calls[name] += 1
                self.incl_s[name] += dt
                self.self_s[name] += dt - child
                if self._child_s:
                    self._child_s[-1] += dt

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "splitplot" or n.startswith("splitplot."))]
        for qualname in TARGETS:
            mod_name, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(_short(qualname), original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

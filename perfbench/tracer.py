"""Spans around hamelflow's public functions, installed from outside.

Each traced function is patched where it is defined and in every loaded
hamelflow module that holds it by name (for example `cli` imports
`picard_iterate`, `verification` imports `tensor_convolution`);
`RadialGrid` methods are patched on the class.  Spans stay in memory as
[name, start, end, parent, attempt, error, child_time] and are written
out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path, span name)
TRACED = (
    ("hamelflow.grid", "RadialGrid.build", "grid.build"),
    ("hamelflow.grid", "RadialGrid.cum_left", "grid.cum_left"),
    ("hamelflow.grid", "RadialGrid.cum_right", "grid.cum_right"),
    ("hamelflow.grid", "RadialGrid.node_moment", "grid.node_moment"),
    ("hamelflow.horizontal", "solve_mode", "horizontal.solve_mode"),
    ("hamelflow.vertical", "solve_vertical_mode", "vertical.solve_vertical_mode"),
    ("hamelflow.nonlinear", "picard_iterate", "nonlinear.picard_iterate"),
    ("hamelflow.nonlinear", "apply_T", "nonlinear.apply_T"),
    ("hamelflow.nonlinear", "tensor_convolution", "nonlinear.tensor_convolution"),
    ("hamelflow.nonlinear", "x_norm", "nonlinear.x_norm"),
    ("hamelflow.nonlinear", "field_diff_norm", "nonlinear.field_diff_norm"),
    ("hamelflow.forcing", "build_family", "forcing.build_family"),
    ("hamelflow.verification", "weak_ns_residual", "verification.weak_ns_residual"),
    ("hamelflow.verification", "fit_decay", "verification.fit_decay"),
    ("hamelflow.cli", "run", "cli.run"),
)

NAME, START, END, PARENT, ATTEMPT, ERROR, CHILD = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.attempt = None
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.attempt, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += span[END] - span[START]

        return traced

    def install(self):
        loaded = [m for n, m in sys.modules.items()
                  if n == "hamelflow" or n.startswith("hamelflow.")]
        for module_name, path, span in TRACED:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self.wrap(span, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(span, raw))
                self._restore.append((cls, attr, raw))
                continue
            orig = getattr(owner, path)
            wrapped = self.wrap(span, orig)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapped)
                        self._restore.append((module, attr, orig))

    def uninstall(self):
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:CHILD]) + "\n")


def layer_metrics(spans, attempts: int, attempt_s: float) -> dict:
    """Per-layer metrics as {(name, unit): value}.  Counts and times are
    means per traced attempt, except grid.build.s, seconds per build."""
    agg = {}  # span name -> [calls, total, self, errors], inside attempts
    builds = [s[END] - s[START] for s in spans if s[NAME] == "grid.build"]
    for s in spans:
        if s[ATTEMPT] is None:
            continue
        a = agg.setdefault(s[NAME], [0, 0.0, 0.0, 0])
        dur = s[END] - s[START]
        a[0] += 1
        a[1] += dur
        a[2] += dur - s[CHILD]
        a[3] += s[ERROR] is not None

    def calls(name):
        return agg.get(name, [0])[0] / attempts

    def total(name):
        return agg.get(name, [0, 0.0])[1] / attempts

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[2] / attempts

    def errors(name):
        return agg.get(name, [0, 0.0, 0.0, 0])[3] / attempts

    applies = calls("nonlinear.apply_T")
    mode_solves = calls("horizontal.solve_mode") + calls("vertical.solve_vertical_mode")
    cum = total("grid.cum_left") + total("grid.cum_right")
    return {
        ("grid.build.s", "s"): sum(builds) / len(builds) if builds else 0.0,
        ("grid.cum_left.calls", "count"): calls("grid.cum_left"),
        ("grid.cum_left.s", "s"): total("grid.cum_left"),
        ("grid.cum_right.calls", "count"): calls("grid.cum_right"),
        ("grid.cum_right.s", "s"): total("grid.cum_right"),
        ("grid.node_moment.calls", "count"): calls("grid.node_moment"),
        ("grid.node_moment.s", "s"): total("grid.node_moment"),
        ("grid.cum_share", "frac"): cum / attempt_s if attempt_s else 0.0,
        ("horizontal.solve_mode.calls", "count"): calls("horizontal.solve_mode"),
        ("horizontal.solve_mode.self_s", "s"): self_s("horizontal.solve_mode"),
        ("horizontal.solve_mode.errors", "count"): errors("horizontal.solve_mode"),
        ("vertical.solve_vertical_mode.calls", "count"): calls("vertical.solve_vertical_mode"),
        ("vertical.solve_vertical_mode.self_s", "s"): self_s("vertical.solve_vertical_mode"),
        ("nonlinear.apply_T.calls", "count"): applies,
        ("nonlinear.apply_T.self_s", "s"): self_s("nonlinear.apply_T"),
        ("nonlinear.tensor_convolution.calls", "count"): calls("nonlinear.tensor_convolution"),
        ("nonlinear.tensor_convolution.s", "s"): total("nonlinear.tensor_convolution"),
        ("nonlinear.norms.s", "s"): total("nonlinear.x_norm") + total("nonlinear.field_diff_norm"),
        ("nonlinear.picard_iters", "count"): applies,
        ("nonlinear.mode_solves_per_T", "count"): mode_solves / applies if applies else 0.0,
        ("forcing.build_family.s", "s"): total("forcing.build_family"),
        ("verification.weak_ns_residual.s", "s"): total("verification.weak_ns_residual"),
        ("verification.fit_decay.s", "s"): total("verification.fit_decay"),
        ("cli.run.self_s", "s"): self_s("cli.run"),
    }

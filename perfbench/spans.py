"""Span tracer for the benchmark's traced mode.

The tracer wraps the package's layer functions under the names the calling
module looks them up by (``magnonsteer.sweep.correlation_report`` is the
name ``run_point`` calls), so every call that crosses a layer boundary
records a span: name, start, end and the span that caused it. Spans stay in
memory in flat arrays and are written out once, after the measurement.

It also counts calls to the ``numpy.linalg`` entry points the package uses,
but only while a span is open, so the benchmark's own checks are not
counted, and it counts the warnings ``model`` issues through its
``warnings`` module reference without changing the warning filters.
"""

from __future__ import annotations

import contextlib
import types
import warnings
from array import array
from time import perf_counter

import numpy as np

import magnonsteer.analytic
import magnonsteer.cli
import magnonsteer.gaussian
import magnonsteer.model
import magnonsteer.sweep

# (module the lookup happens in, attribute, span name). The span name is
# "<layer>.<function>", where the layer is the module defining the function.
WRAPPED = (
    (magnonsteer.cli, "main", "cli.main"),
    (magnonsteer.cli, "preset", "sweep.preset"),
    (magnonsteer.cli, "run_sweep", "sweep.run_sweep"),
    (magnonsteer.cli, "format_csv", "sweep.format_csv"),
    (magnonsteer.sweep, "run_point", "sweep.run_point"),
    (magnonsteer.sweep, "steady_state_covariance", "sweep.steady_state_covariance"),
    (magnonsteer.sweep, "derive", "model.derive"),
    (magnonsteer.sweep, "build_drift", "model.build_drift"),
    (magnonsteer.sweep, "build_diffusion", "model.build_diffusion"),
    (magnonsteer.sweep, "assert_stable", "model.assert_stable"),
    (magnonsteer.sweep, "solve_lyapunov", "gaussian.solve_lyapunov"),
    (magnonsteer.sweep, "check_physicality", "gaussian.check_physicality"),
    (magnonsteer.sweep, "lyapunov_residual", "gaussian.lyapunov_residual"),
    (magnonsteer.sweep, "correlation_report", "measures.correlation_report"),
    (magnonsteer.gaussian, "lyapunov_residual", "gaussian.lyapunov_residual"),
    (magnonsteer.analytic, "derive", "model.derive"),
    (magnonsteer.analytic, "analytic_covariance", "analytic.analytic_covariance"),
    (magnonsteer.model, "derive", "model.derive"),
)

LINALG = ("eigvals", "solve", "det", "cond", "norm", "cholesky")

LAYERS = ("model", "gaussian", "analytic", "measures", "sweep", "cli")

REQUEST = "request"


class Tracer:
    """Records spans and counts; the package is wrapped only while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.linalg_calls = dict.fromkeys(LINALG, 0)
        self.warnings = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[index] = t0
        self.end[index] = t1

    @contextlib.contextmanager
    def request(self):
        """Root span around one caller request; spans inside it are its children."""
        index = self._open(self._intern(REQUEST))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(index, t0, perf_counter())

    def _span_wrapper(self, name: str, fn):
        name_id = self._intern(name)

        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, t0, perf_counter())

        return wrapper

    def _count_wrapper(self, key: str, fn):
        stack, counts = self._stack, self.linalg_calls

        def wrapper(*args, **kwargs):
            if stack:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _warn(self, message, category=None, stacklevel=1, source=None):
        self.warnings += 1
        warnings.warn(message, category, stacklevel + 1, source)

    # --- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for key in LINALG:
            self._patch(np.linalg, key, self._count_wrapper(key, getattr(np.linalg, key)))
        self._patch(magnonsteer.model, "warnings", types.SimpleNamespace(warn=self._warn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- reporting -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its children.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["incl_s"] += duration
            entry["self_s"] += duration - child[i]
        return out

    def write(self, path, origin: float) -> None:
        """Write every span as CSV: index, name, parent index, start and end in s."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                handle.write(f"{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                             f"{self.start[i] - origin:.9f},{self.end[i] - origin:.9f}\n")


NULL_REQUEST = contextlib.nullcontext()


class NullTracer:
    """Stand-in for untraced passes: requests record nothing."""

    def request(self):
        return NULL_REQUEST

"""Outside-in tracing of the lcbands pipeline.

The tracer replaces module attributes that the pipeline looks up at call
time (the names `ccp` and `design` import, plus the public entry points)
with wrappers that record one span per call: name, start, end and the
index of the enclosing span.  Nothing inside the package changes, so the
untraced path runs exactly the code a user runs.  Spans stay in memory;
per-layer metrics are derived from them after the traced bands finish.

A target that no longer exists is reported as absent (with a warning on
stderr) and every metric that needs it is left out; the remaining targets
are still traced.  Because wrapping is by name, a replacement solver that
keeps the `solve_lp` name stays measured.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import NamedTuple

import numpy as np

# (owner path under the lcbands package, attribute, span name)
TARGETS = (
    ("design", "select_design_points", "design.grid"),
    ("design", "build_interval_system", "design.intervals"),
    ("design", "qbeta", "specfun.qbeta"),
    ("ccp", "pointwise_intervals", "ccp.pointwise"),
    ("ccp", "run_ccp_point", "ccp.point"),
    ("ccp", "initial_point", "ccp.initial_point"),
    ("ccp.SubproblemTemplate", "__init__", "ccp.template"),
    ("ccp.SubproblemTemplate", "instantiate", "ccp.instantiate"),
    ("ccp", "linearize_cells", "relax.linearize"),
    ("ccp", "check_feasible", "relax.check"),
    ("ccp", "solve_lp", "lpsolve.solve"),
    ("band", "build_band", "band.build"),
    ("band", "eval_density_band", "band.eval"),
)

LP_STATUSES = ("optimal", "infeasible", "unbounded", "iteration_limit")
POINT_STATUSES = ("converged", "not_converged", "crossed")


class LpCall(NamedTuple):
    span: int          # index of the call's span
    warm: bool         # a basis was passed in
    cold_retry: bool   # same program again without a basis, after a warm failure
    status: str
    pivots: int
    rows: int
    cols: int
    nnz: int


def _resolve(package, path: str):
    owner = package
    for part in path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


class Tracer:
    """Span recorder installed by wrapping attributes of the lcbands modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.absent: list[str] = []
        self.lp_calls: list[LpCall] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._last_lp = None  # (program, warm given, status) of the previous solve

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- installation ----------------------------------------------------------

    def install(self, package) -> "Tracer":
        for path, attr, name in TARGETS:
            owner = _resolve(package, path)
            orig = None if owner is None else owner.__dict__.get(attr)
            if orig is None:
                if name not in self.absent:
                    self.absent.append(name)
                    print(
                        f"warning: lcbands.{path}.{attr} not found; {name} metrics absent",
                        file=sys.stderr,
                    )
                continue
            wrapper = self._wrap_lp(orig) if name == "lpsolve.solve" else self._wrap(orig, name)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, orig))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_lp(self, fn):
        @functools.wraps(fn)
        def wrapper(lp, *args, **kwargs):
            warm = kwargs.get("warm", args[0] if args else None)
            idx = self.open("lpsolve.solve")
            try:
                sol = fn(lp, *args, **kwargs)
            finally:
                self.close(idx)
            last = self._last_lp
            retry = (
                warm is None and last is not None and last[0] is lp
                and last[1] and last[2] != "optimal"
            )
            rows = lp.rows
            nnz = rows.nnz if hasattr(rows, "nnz") else int(np.count_nonzero(rows))
            self.lp_calls.append(LpCall(
                idx, warm is not None, retry, sol.status, sol.iterations,
                rows.shape[0], rows.shape[1], nnz,
            ))
            self._last_lp = (lp, warm is not None, sol.status)
            return sol

        return wrapper

    # -- derived quantities ------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part covered by its direct children."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(dur.size)
        parents = np.asarray(self.parents, dtype=int)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child


def layer_metrics(tracer: Tracer, diagnostics: list, bands: int) -> dict[str, float]:
    """Per-band layer metrics from the spans of `bands` traced bands.

    diagnostics holds every PointDiagnostics of those bands.  Times and
    counts are per band; percentiles run over individual calls.
    """
    names = np.array(tracer.names, dtype=object)
    parents = np.asarray(tracer.parents, dtype=int)
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    own = tracer.self_times()
    absent = set(tracer.absent)
    out: dict[str, float] = {}

    def is_(name):
        return names == name

    def per_band(value):
        return float(value) / bands

    def put(metric, needs, fn):
        if absent.isdisjoint(needs):
            out[metric] = fn()

    for metric, span in (
        ("design.grid_s", "design.grid"),
        ("design.intervals_s", "design.intervals"),
        ("specfun.qbeta_s", "specfun.qbeta"),
        ("relax.linearize_s", "relax.linearize"),
        ("relax.check_s", "relax.check"),
        ("ccp.template_s", "ccp.template"),
        ("lpsolve.s", "lpsolve.solve"),
        ("band.build_s", "band.build"),
        ("band.eval_s", "band.eval"),
    ):
        put(metric, {span}, lambda span=span: per_band(dur[is_(span)].sum()))
    for metric, span in (
        ("specfun.qbeta_calls", "specfun.qbeta"),
        ("relax.linearize_calls", "relax.linearize"),
        ("relax.check_calls", "relax.check"),
        ("ccp.instantiate_calls", "ccp.instantiate"),
        ("lpsolve.calls", "lpsolve.solve"),
    ):
        put(metric, {span}, lambda span=span: per_band(is_(span).sum()))
    put("ccp.instantiate_self_s", {"ccp.instantiate"},
        lambda: per_band(own[is_("ccp.instantiate")].sum()))
    put("ccp.self_s", {"ccp.pointwise", "ccp.point", "ccp.initial_point"},
        lambda: per_band(own[is_("ccp.pointwise") | is_("ccp.point")
                             | is_("ccp.initial_point")].sum()))

    # a point is non-trivial when it ran the penalty schedule, which always
    # starts from initial_point; further initial_point calls are reruns
    point_idx = np.flatnonzero(is_("ccp.point"))
    starts_under = Counter(parents[is_("ccp.initial_point")].tolist())
    nontrivial = np.array([starts_under[i] > 0 for i in point_idx], dtype=bool)
    n_nontrivial = max(int(nontrivial.sum()), 1)
    iterations = sum(d.iterations for d in diagnostics)
    out["ccp.points"] = per_band(len(diagnostics))
    out["ccp.iterations"] = per_band(iterations)
    out["ccp.iterations_per_point"] = iterations / n_nontrivial
    put("ccp.retries", {"ccp.point", "ccp.initial_point"},
        lambda: per_band(sum(starts_under[i] for i in point_idx) - nontrivial.sum()))
    put("ccp.point_s_p50", {"ccp.point", "ccp.initial_point"},
        lambda: _pct(dur[point_idx[nontrivial]], 50))
    put("ccp.point_s_p90", {"ccp.point", "ccp.initial_point"},
        lambda: _pct(dur[point_idx[nontrivial]], 90))
    point_status = Counter(d.status for d in diagnostics)
    lp_failed = sum(c for s, c in point_status.items() if s.startswith("lp_"))
    for status in POINT_STATUSES:
        out[f"ccp.status.{status}"] = per_band(point_status[status])
    out["ccp.status.lp_failed"] = per_band(lp_failed)
    out["ccp.status.other"] = per_band(
        len(diagnostics) - lp_failed - sum(point_status[s] for s in POINT_STATUSES)
    )

    if "lpsolve.solve" not in absent:
        calls = tracer.lp_calls
        lp_dur = dur[[c.span for c in calls]] if calls else np.zeros(0)
        band_s = dur[is_("band")].sum()
        pivots = sum(c.pivots for c in calls)
        lp_status = Counter(c.status for c in calls)
        out["lpsolve.share"] = float(lp_dur.sum() / band_s) if band_s > 0 else 0.0
        out["lpsolve.call_s_p50"] = _pct(lp_dur, 50)
        out["lpsolve.call_s_p99"] = _pct(lp_dur, 99)
        out["lpsolve.pivots"] = per_band(pivots)
        out["lpsolve.pivots_per_call"] = pivots / max(len(calls), 1)
        out["lpsolve.warm_calls"] = per_band(sum(c.warm for c in calls))
        out["lpsolve.cold_retries"] = per_band(sum(c.cold_retry for c in calls))
        for status in LP_STATUSES:
            out[f"lpsolve.status.{status}"] = per_band(lp_status[status])
        out["lpsolve.status.other"] = per_band(
            len(calls) - sum(lp_status[s] for s in LP_STATUSES)
        )
        for field in ("rows", "cols", "nnz"):
            out[f"lpsolve.{field}"] = float(max((getattr(c, field) for c in calls), default=0))
    return out


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_log"):
        return "log"
    if metric.endswith(("share", "_frac")):
        return "ratio"
    if metric.endswith(("_s", ".s", "_s_p50", "_s_p90", "_s_p99")):
        return "s"
    return "count"

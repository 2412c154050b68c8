"""Benchmark for the lcbands pipeline.

Each timed operation is one band: a sample drawn here goes through
select_design_points -> build_interval_system -> pointwise_intervals ->
build_band.  Bands run one after another in this process (a closed loop
with one client), until the next band would overrun --seconds.

    python3 bench/run.py --workload study-n100 --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seconds 36   # every workload, one table
    python3 bench/run.py --selftest                     # checks the benchmark itself
    python3 bench/run.py --make-reference               # rewrites bench/reference.json

Run it from the repository root; it imports lcbands from ./src and exits
with an error when that is missing.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  The
line before it, starting with "context", records the src line count,
library versions, CPU count, BLAS thread settings and git commit.

Workloads (sample i of a run with seed s comes from Philox(key=[s, i])):

- study-n100: n=100, shapes cycling gaussian, uniform(-10,10), chisq(3),
  gamma(1,1), all 13 knots.  Tiny LPs (36 vars x 58 rows), so per-call
  work outside the pivots (instantiate, linearize_cells, solver set-up)
  is a large share of the band.
- gauss-n400: Gaussian n=400 on knots 1, 17, 34 and 50, the
  evenly_spread_subset(50, 0.08) knots.  LPs of 183 vars x 351 rows at
  about 24 pivots per solve, over 90% of band time in the solver:
  pivot-bound.  The knots are far apart, so chaining starts between knots
  should help least here.
- scaled-n257: Gaussian n=257 mapped by x*1e-3 + 1e6, on the adjacent
  knots 5..9 of 33.  The same pipeline in hostile units; its band must
  equal the unscaled band after the affine map.  Adjacent knots are where
  continuation between knots should help most.

band_s is the mean time per band, each shape weighted alike.  Band cost
varies by +-15% from sample to sample, so a run must hold a dozen or more
samples to be steady: the larger cells use a few knots per band, not the
whole grid, and n=1000 (7 s for even four knots) does not fit at all.
Times are calibrated against the host's speed; see CalibratedTimes.

Correctness: every band must satisfy lo <= hi at each knot, lower <= upper
from eval_density_band on a grid, and an exact band_to_json /
band_from_json round trip.  Bands of the default seed are also compared
with bench/reference.json, to TOL_LOG in log-density; a scaled band is
mapped back first (x -> (x - 1e6)/1e-3, ell -> ell + log(1e-3)) and
compared with the unscaled reference.  Gain claims must also hold on
HELD_OUT_SEED, which no tuning uses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

ALPHA = 0.1
DEFAULT_SEED = 0
HELD_OUT_SEED = 104729
TOL_LOG = 1e-3        # largest allowed |ell - ell_ref| at any knot, log units
SETUP_PROBES = 3      # fresh interpreters timed per run for setup_s
EVAL_GRID = 2001      # points on which lower <= upper is checked
SCALE, SHIFT = 1e-3, 1e6
CAL_REF_S = 0.1       # calibration() time that makes one calibrated second
IMPORT_REF_S = 0.5    # import_calibration() time that makes one calibrated second

END_TO_END_UNITS = {
    "setup_s": "s",
    "band_s": "s",
    "peak_rss_mb": "MB",
    "point_converged_frac": "ratio",
    "band_match_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    shapes: tuple[str, ...]
    knots: tuple[int, ...] | None   # 1-based design indices; None means all
    scaled: bool = False
    reference_bands: int = 24       # default-seed bands kept in reference.json

    def subset(self, m: int) -> np.ndarray:
        return np.arange(1, m + 1) if self.knots is None else np.array(self.knots)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study-n100", 100, ("gaussian", "uniform", "chisq", "gamma"), None),
        Workload("gauss-n400", 400, ("gaussian",), (1, 17, 34, 50)),
        Workload("scaled-n257", 257, ("gaussian",), (5, 6, 7, 8, 9), scaled=True,
                 reference_bands=16),
    )
}


def draw(shape: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if shape == "gaussian":
        return rng.normal(size=n)
    if shape == "uniform":
        return rng.uniform(-10.0, 10.0, size=n)
    if shape == "chisq":
        return rng.chisquare(3.0, size=n)
    if shape == "gamma":
        return rng.gamma(1.0, 1.0, size=n)
    raise ValueError(f"unknown shape {shape!r}")


def raw_sample(w: Workload, seed: int, i: int) -> np.ndarray:
    """Sample i of a run with this seed, in the workload's natural units."""
    rng = np.random.Generator(np.random.Philox(key=[seed, i]))
    return draw(w.shapes[i % len(w.shapes)], w.n, rng)


def band_input(w: Workload, seed: int, i: int) -> np.ndarray:
    x = raw_sample(w, seed, i)
    return x * SCALE + SHIFT if w.scaled else x


def import_lcbands():
    """Import lcbands from this checkout's src, never from elsewhere."""
    pkg = SRC / "lcbands"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: {pkg} not found; run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import lcbands

    if Path(lcbands.__file__).resolve().parent != pkg:
        sys.exit(f"error: imported lcbands from {lcbands.__file__}, not {pkg}")
    return lcbands


# -- one band ------------------------------------------------------------------


def run_band(lc, w: Workload, x: np.ndarray, cfg):
    """The timed operation: sample to ConfidenceBand, through module attributes."""
    grid = lc.design.select_design_points(x)
    system = lc.design.build_interval_system(grid, ALPHA)
    intervals = lc.ccp.pointwise_intervals(grid, system, cfg, w.subset(grid.m))
    band = lc.band.build_band(grid, intervals, alpha=ALPHA)
    return intervals, band


def check_band(lc, w: Workload, band, ref: dict | None) -> tuple[list[str], float, float]:
    """Problems found in one band, plus (max deviation, max narrowing) in log units.

    The two numbers are measured against the reference and are 0 without one.
    """
    problems = []
    lo, hi, knots = band.lo_log, band.hi_log, band.knots
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        problems.append("non-finite lo/hi")
    if not (lo <= hi).all():
        problems.append(f"lo > hi at knots {np.flatnonzero(lo > hi).tolist()}")
    pad = 0.25 * (knots[-1] - knots[0])
    xs = np.linspace(knots[0] - pad, knots[-1] + pad, EVAL_GRID)
    lower, upper = lc.band.eval_density_band(band, xs)
    if not (lower <= upper).all():
        problems.append(f"lower > upper at {int((lower > upper).sum())} grid points")
    back = lc.band.band_from_json(json.loads(json.dumps(lc.band.band_to_json(band))))
    if not _same_band(band, back):
        problems.append("band_to_json/band_from_json round trip changed the band")
    dev = narrowing = 0.0
    if ref is not None:
        if w.scaled:
            knots = (knots - SHIFT) / SCALE
            lo = lo + math.log(SCALE)
            hi = hi + math.log(SCALE)
        ref_knots, ref_lo, ref_hi = (np.array(ref[k]) for k in ("knots", "lo_log", "hi_log"))
        same_knots = knots.shape == ref_knots.shape and np.allclose(
            knots, ref_knots, rtol=1e-9, atol=1e-6
        )
        if not same_knots:
            problems.append("knots differ from the reference")
        else:
            dev = float(max(np.abs(lo - ref_lo).max(), np.abs(hi - ref_hi).max()))
            narrowing = float(max(0.0, ((ref_hi - ref_lo) - (hi - lo)).max()))
            if not dev <= TOL_LOG:
                problems.append(f"deviates from the reference by {dev:.3g} log units")
    return problems, dev, narrowing


def _same_band(a, b) -> bool:
    arrays = ("knots", "lo_log", "hi_log", "L", "R", "xbar")
    return (
        all(np.array_equal(getattr(a, k), getattr(b, k), equal_nan=True) for k in arrays)
        and a.mode == b.mode and a.n == b.n
        and (a.alpha == b.alpha or (math.isnan(a.alpha) and math.isnan(b.alpha)))
    )


def load_reference(w: Workload, seed: int) -> list:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text())["workloads"].get(w.name, [])


# -- measurement ---------------------------------------------------------------


def until_deadline(seconds: float):
    """Yield 0, 1, 2, ... while one more step of median length still fits.

    The first step always runs, so every run measures at least one band.
    """
    start = time.perf_counter()
    costs: list[float] = []
    i = 0
    while not costs or time.perf_counter() - start + statistics.median(costs) <= seconds:
        t0 = time.perf_counter()
        yield i
        costs.append(time.perf_counter() - t0)
        i += 1


class Tally:
    """Counts bands and points, and checks each band as it completes."""

    def __init__(self, lc, w: Workload, seed: int):
        self.lc, self.w = lc, w
        self.refs = load_reference(w, seed)
        self.attempted = self.failed = self.points = self.converged = 0
        self.devs: list[float] = []
        self.narrowings: list[float] = []

    def raised(self, i: int) -> None:
        traceback.print_exc()
        print(f"band {i} raised", file=sys.stderr)
        self.failed += 1

    def accept(self, i: int, intervals, band) -> bool:
        self.points += len(intervals.diagnostics)
        self.converged += sum(d.status == "converged" for d in intervals.diagnostics)
        ref = self.refs[i] if i < len(self.refs) else None
        problems, dev, narrowing = check_band(self.lc, self.w, band, ref)
        if ref is not None:
            self.devs.append(dev)
            self.narrowings.append(narrowing)
        if problems:
            self.failed += 1
            print(f"band {i} mismatch: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }


def warm_up(lc) -> None:
    """One small band, so that lazy imports and first-call set-up are not timed."""
    x = np.random.Generator(np.random.Philox(key=[2**32 - 1, 0])).normal(size=40)
    grid = lc.design.select_design_points(x)
    system = lc.design.build_interval_system(grid, ALPHA)
    intervals = lc.ccp.pointwise_intervals(
        grid, system, lc.ccp.CcpConfig(), np.arange(1, grid.m + 1)
    )
    lc.band.build_band(grid, intervals, alpha=ALPHA)


def calibration() -> float:
    """Wall time of a fixed mix of interpreter, NumPy and sparse-matrix work.

    The mix follows where band time goes (bytecode, small NumPy operations,
    scipy.sparse construction and slicing, SuperLU) but calls nothing in
    lcbands, so no change to the package can move it; only the speed the
    host gives this process at that moment can.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    rng = np.random.Generator(np.random.Philox(key=[2**32 - 1, 1]))
    n = 60
    rows, cols, vals = rng.integers(0, n, 240), rng.integers(0, n, 240), rng.random(240)
    shift = sparse.identity(n, format="csc") * 5.0
    rhs = np.linspace(1.0, 2.0, n)
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    a = np.linspace(0.1, 1.0, 200)
    for _ in range(800):
        a = np.where(a > 0.5, np.exp(-a), a * 1.5)[::-1].copy()
    for k in range(150):
        mat = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc() + shift
        col = mat[:, k % n].toarray().ravel()
        z = splu(mat).solve(rhs)
        j = int(np.argmin(np.where(col > 0, z / (col + 1.0), np.inf)))
        rhs[j] += 1e-9 * abs(z[j])
    return time.perf_counter() - t0


def import_calibration() -> float:
    """Wall time of a fresh interpreter that imports only NumPy and SciPy's sparse LU."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.sparse.linalg"],
                   check=True, timeout=60)
    return time.perf_counter() - t0


class CalibratedTimes:
    """Step times in calibrated seconds.

    The host's speed drifts by up to 2x within a minute, which no amount of
    repetition inside one run averages out.  So a calibration runs before
    the first step and after every step, and each step's wall time is scaled
    by ref_s over the mean of the two calibrations around it: a slower host
    stretches both alike, and the ratio keeps the program's own cost.
    """

    def __init__(self, calibrate=calibration, ref_s: float = CAL_REF_S) -> None:
        self.calibrate, self.ref_s = calibrate, ref_s
        self.cals = [calibrate()]
        self.walls: list[float] = []

    def add(self, wall: float) -> None:
        self.walls.append(wall)
        self.cals.append(self.calibrate())

    def calibrated(self) -> list[float]:
        return [
            w * self.ref_s * 2.0 / (a + b)
            for w, a, b in zip(self.walls, self.cals, self.cals[1:])
        ]


def measure_setup(w: Workload, seed: int) -> CalibratedTimes:
    """Fresh interpreters that import lcbands and build the workload's inputs.

    Each is calibrated against fresh interpreters that import only the
    libraries lcbands needs, which start, page in and warm up alike.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", w.name, "--seed", str(seed)]
    times = CalibratedTimes(import_calibration, IMPORT_REF_S)
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60, stdout=subprocess.DEVNULL)
        times.add(time.perf_counter() - t0)
    return times


def setup_probe(w: Workload, seed: int) -> None:
    import_lcbands()
    for i in range(w.reference_bands):
        band_input(w, seed, i)


def shape_mean(w: Workload, times: list[float]) -> float:
    """Mean time per band, each shape weighted alike however many of it ran."""
    k = len(w.shapes)
    return statistics.mean(statistics.mean(times[j::k]) for j in range(min(k, len(times))))


def measure_untraced(lc, w: Workload, seed: int, seconds: float) -> dict:
    setup = measure_setup(w, seed)
    warm_up(lc)
    cfg = lc.ccp.CcpConfig()
    tally = Tally(lc, w, seed)
    bands = CalibratedTimes()
    for i in until_deadline(seconds):
        x = band_input(w, seed, i)
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            intervals, band = run_band(lc, w, x, cfg)
        except Exception:
            tally.raised(i)
            band = None
        bands.add(time.perf_counter() - t0)
        if band is not None:
            tally.accept(i, intervals, band)
    metrics = {
        "setup_s": statistics.median(setup.calibrated()),
        "band_s": shape_mean(w, bands.calibrated()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "point_converged_frac": tally.converged / max(tally.points, 1),
        "band_match_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    print("wall " + json.dumps({
        "setup_s": statistics.median(setup.walls),
        "band_s": shape_mean(w, bands.walls),
        "calibration_s": statistics.median(bands.cals),
        "import_calibration_s": statistics.median(setup.cals),
    }))
    return tally.result({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def measure_traced(lc, w: Workload, seed: int, seconds: float) -> dict:
    """Each sample runs untraced, then traced; the layer metrics come from the traced run.

    Layer times are raw wall seconds: they are shares of one run, and
    trace.overhead_frac compares neighbouring untraced and traced bands.
    """
    from layertrace import Tracer, layer_metrics, unit_of

    warm_up(lc)
    cfg = lc.ccp.CcpConfig()
    tally = Tally(lc, w, seed)
    tracer = Tracer()
    diagnostics: list = []
    plain_times, traced_times = [], []
    for i in until_deadline(seconds):
        x = band_input(w, seed, i)
        tally.attempted += 1
        try:
            t0 = time.perf_counter()
            _, plain = run_band(lc, w, x, cfg)
            plain_s = time.perf_counter() - t0
            tracer.install(lc)
            try:
                t0 = time.perf_counter()
                intervals, band = tracer.call("band", run_band, lc, w, x, cfg)
                traced_s = time.perf_counter() - t0
                ok = tally.accept(i, intervals, band)
            finally:
                tracer.uninstall()
        except Exception:
            tally.raised(i)
            continue
        diagnostics.extend(intervals.diagnostics)
        if ok and not _same_band(plain, band):
            print(f"band {i}: tracing changed the band", file=sys.stderr)
            tally.failed += 1
        elif ok:
            plain_times.append(plain_s)
            traced_times.append(traced_s)
    bands = tracer.names.count("band")
    metrics = layer_metrics(tracer, diagnostics, max(bands, 1))
    metrics["band.max_dev_log"] = max(tally.devs, default=0.0)
    metrics["band.max_narrowing_log"] = max(tally.narrowings, default=0.0)
    metrics["band.ref_bands"] = float(len(tally.devs))
    metrics["trace.bands"] = float(bands)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0
        if plain_times else 0.0
    )
    return tally.result({k: (v, unit_of(k)) for k, v in metrics.items()})


# -- context, reference and self-test -------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def context() -> dict:
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": git_commit(),
    }


def make_reference(lc) -> None:
    """Store the default seed's bands, in natural units, as the correctness reference."""
    cfg = lc.ccp.CcpConfig()
    out = {"seed": DEFAULT_SEED, "commit": git_commit(), "tol_log": TOL_LOG, "workloads": {}}
    for w in WORKLOADS.values():
        natural = Workload(w.name, w.n, w.shapes, w.knots)
        bands = []
        for i in range(w.reference_bands):
            _, band = run_band(lc, natural, raw_sample(w, DEFAULT_SEED, i), cfg)
            bands.append({k: getattr(band, k).tolist() for k in ("knots", "lo_log", "hi_log")})
            print(f"{w.name} band {i} done", file=sys.stderr)
        out["workloads"][w.name] = bands
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


def selftest(lc) -> bool:
    """Check the benchmark itself; prints one line per check."""
    from layertrace import Tracer, layer_metrics

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks: list[tuple[str, bool]] = []
    w = WORKLOADS["study-n100"]

    plain = measure_untraced(lc, w, DEFAULT_SEED, 1)
    traced = measure_traced(lc, w, DEFAULT_SEED, 1)
    checks.append(("untraced run emits exactly the end_to_end metrics",
                   set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}))
    checks.append(("traced run emits exactly the per_layer metrics",
                   set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}))
    checks.append(("both runs are correct with one reference band each",
                   plain["correct"] and traced["correct"]
                   and traced["metrics"]["band.ref_bands"]["value"] == 1))

    ref = load_reference(w, DEFAULT_SEED)[0]
    _, band = run_band(lc, w, band_input(w, DEFAULT_SEED, 0), lc.ccp.CcpConfig())
    for field, delta in (("hi_log", 2 * TOL_LOG), ("lo_log", -2 * TOL_LOG)):
        arr = getattr(band, field).copy()
        arr[arr.size // 2] += delta
        bad = lc.band.ConfidenceBand(**{**band.__dict__, field: arr})
        checks.append((f"{field} moved by {delta:+g} counts as a mismatch",
                       bool(check_band(lc, w, bad, ref)[0])))
    checks.append(("the unperturbed band matches", not check_band(lc, w, band, ref)[0]))

    for wl in WORKLOADS.values():
        same = np.array_equal(band_input(wl, 1, 0), band_input(wl, 1, 0))
        moved = not np.array_equal(band_input(wl, DEFAULT_SEED, 0), band_input(wl, 1, 0))
        checks.append((f"{wl.name}: one seed gives one input, another seed another",
                       same and moved))

    # hook sanity cell: Gaussian n=200, Philox(key=[0, 0]), all knots
    x = np.random.Generator(np.random.Philox(key=[0, 0])).normal(size=200)
    tracer = Tracer().install(lc)
    try:
        intervals, _ = tracer.call(
            "band", run_band, lc, Workload("sanity-n200", 200, ("gaussian",), None), x,
            lc.ccp.CcpConfig(),
        )
    finally:
        tracer.uninstall()
    cell = layer_metrics(tracer, list(intervals.diagnostics), 1)
    checks.append((f"sanity cell n=200: {cell['lpsolve.calls']:.0f} LP calls (want 1440), "
                   f"{cell['lpsolve.pivots']:.0f} pivots (want 13957)",
                   cell["lpsolve.calls"] == 1440 and cell["lpsolve.pivots"] == 13957))

    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return all(ok for _, ok in checks)


# -- entry point -----------------------------------------------------------------


def print_table(name: str, res: dict) -> None:
    for metric, m in res["metrics"].items():
        print(f"{name:12s} {metric:28s} {m['value']:14.6g} {m['unit']}")
    print(f"{name:12s} bands {res['attempted']} attempted, {res['failed']} failed, "
          f"correct={res['correct']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_probe(WORKLOADS[args.workload], args.seed)
        return 0
    lc = import_lcbands()
    sys.path.insert(0, str(BENCH_DIR))
    if args.make_reference:
        make_reference(lc)
        return 0
    if args.selftest:
        return 0 if selftest(lc) else 1
    measure = measure_traced if args.trace else measure_untraced
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(lc, WORKLOADS[name], args.seed, args.seconds)
        print_table(name, results[name])
    print("context " + json.dumps(context()))
    if args.workload == "all":
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

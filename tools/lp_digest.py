"""Per-band digests of every linear program the CCP solves and of the band.

For each band of a benchmark workload this prints one SHA-256 over every
LP's inputs as the solver reads them (objective, the CSC data, indices and
indptr of its rows, rhs, lower, upper) and outputs
(status, z, iterations), in solve order, plus the LP call and pivot counts
(sha256=).  A second SHA-256 (band_sha256=) covers the band itself: knots,
lo_log, hi_log, L, R, xbar and every PointDiagnostics.  Two checkouts whose
LP digests agree solved the same programs, pivot for pivot, to the same
bits; two whose band digests agree returned the same bands, however many
LPs they solved.  A change that must not move the bands can be checked by
diffing this script's output across the two checkouts.

Hooking solve_lp keeps pointwise_intervals' runs in this process, one
after another.  So each band is also run once unhooked, with its runs
fanned out over worker processes, and its band digest must equal the
hooked one: a band that differs gets MISMATCH and the fan-out's digest
appended to its line, and the script exits with status 1.

    python3 tools/lp_digest.py --workload all --seed 0 --bands 0-3
    python3 tools/lp_digest.py --workload gauss-n400 --seed 104729 --bands 2

Run it from the repository root.  It loads bench/run.py without changing
it, so workloads, inputs and the lcbands import are those of the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
from scipy import sparse

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def load_bench_run():
    name = "_lcbands_bench_run"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH_RUN)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


def band_range(text: str) -> range:
    """'3' is band 3 alone; '0-3' is bands 0 to 3 inclusive."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


class LpHasher:
    """Wraps ccp.solve_lp and folds each program and its solution into a hash."""

    def __init__(self, ccp):
        self.ccp = ccp
        self.solve = ccp.solve_lp
        self.sha = hashlib.sha256()
        self.calls = self.pivots = 0

    def __call__(self, lp, warm=None):
        sol = self.solve(lp, warm)
        # scipy.sparse rows are hashed as the CSC matrix they convert to, so
        # checkouts that hand the solver sparse matrices and ones that hand
        # it CSC arrays digest alike
        rows = lp.rows.tocsc() if sparse.issparse(lp.rows) else lp.rows
        for arr in (lp.objective, rows.data, rows.indices, rows.indptr, lp.rhs,
                    lp.lower, lp.upper):
            self.sha.update(np.ascontiguousarray(arr).tobytes())
        self.sha.update(sol.status.encode())
        if sol.z is not None:
            self.sha.update(np.ascontiguousarray(sol.z).tobytes())
        self.sha.update(int(sol.iterations).to_bytes(8, "little"))
        self.calls += 1
        self.pivots += sol.iterations
        return sol

    def __enter__(self):
        self.ccp.solve_lp = self
        return self

    def __exit__(self, *exc) -> None:
        self.ccp.solve_lp = self.solve


def band_digest(intervals, band) -> str:
    """SHA-256 over the band's arrays and its points' diagnostics."""
    sha = hashlib.sha256()
    for arr in (band.knots, band.lo_log, band.hi_log, band.L, band.R, band.xbar):
        sha.update(np.ascontiguousarray(arr).tobytes())
    for diag in intervals.diagnostics:
        sha.update(repr(diag).encode())  # float repr round-trips exactly
    return sha.hexdigest()


def main() -> int:
    bench = load_bench_run()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*bench.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--bands", type=band_range, default=band_range("0-3"))
    args = parser.parse_args()

    lc = bench.import_lcbands()
    cfg = lc.ccp.CcpConfig()
    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    mismatches = 0
    for name in names:
        w = bench.WORKLOADS[name]
        for i in args.bands:
            x = bench.band_input(w, args.seed, i)
            with LpHasher(lc.ccp) as hasher:
                digest = band_digest(*bench.run_band(lc, w, x, cfg))
            line = (f"{name} seed={args.seed} band={i} calls={hasher.calls} "
                    f"pivots={hasher.pivots} sha256={hasher.sha.hexdigest()} "
                    f"band_sha256={digest}")
            fanned = band_digest(*bench.run_band(lc, w, x, cfg))
            if fanned != digest:
                mismatches += 1
                line += f" MISMATCH fan_out_band_sha256={fanned}"
            print(line, flush=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

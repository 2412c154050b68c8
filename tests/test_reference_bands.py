"""The benchmark's correctness gate, run on a few reference bands.

bench/run.py compares default-seed bands with bench/reference.json to
TOL_LOG in log-density; a change that moves any band by more than that
fails the benchmark.  This test runs the same check_band on one band per
study shape and the first band of the two larger workloads, so band drift
shows in the test suite before it shows in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import lcbands

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _load_bench_run():
    name = "_lcbands_bench_run"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH_RUN)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules[name]


bench = _load_bench_run()


@pytest.mark.parametrize(
    "workload, index",
    [("study-n100", i) for i in range(4)]  # one band per shape
    + [("gauss-n400", 0), ("scaled-n257", 0)],
)
def test_band_matches_reference(workload, index):
    w = bench.WORKLOADS[workload]
    refs = bench.load_reference(w, bench.DEFAULT_SEED)
    assert len(refs) > index
    x = bench.band_input(w, bench.DEFAULT_SEED, index)
    _, band = bench.run_band(lcbands, w, x, lcbands.CcpConfig())
    problems, _, _ = bench.check_band(lcbands, w, band, refs[index])
    assert problems == []

"""The benchmark's own test.  Run from the root of a checkout:

    python3 -m pytest perfbench/test_bench.py -q

Every count the benchmark records must repeat exactly for a given seed, in
the untraced and in the traced run; the no-work prediction of meta.json must
hold; and the metric names must match BENCHMARK.json.
"""

import fnmatch
import json
import os

import pytest

import checkout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
checkout.load_gapsvt(ROOT)

import bench  # noqa: E402  (needs gapsvt on the path first)

SEED = 3

# the counts named for each workload; each must be recorded, and nonzero
NAMED_COUNTS = {
    "trials": {
        "untraced": ("verifier.checks_run.align", "verifier.checks_run.cost", "verifier.checks_run.structural"),
        "traced": ("mechanisms.run_calls", "core.draw_tape_calls", "core.check_workload_calls"),
    },
    "enum": {
        "untraced": ("verifier.enum_grid_points", "verifier.enum_outputs"),
        "traced": ("vectorized.kernel_rows", "vectorized.decode_calls"),
    },
    "mc-dlap": {"untraced": ("verifier.mc_outputs",), "traced": ("vectorized.kernel_rows",)},
    "mc-laplace": {"untraced": ("verifier.mc_outputs",), "traced": ("vectorized.kernel_rows",)},
}


def _run(workload, trace):
    # one warm-up cycle plus one untraced (and, traced, one traced) cycle
    result = bench.run(workload, SEED, 0, trace, ROOT, setup_reps=1, cycles=2)
    assert result.failures == []
    return result


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_counts_repeat_exactly(workload):
    plain = [_run(workload, False).counts for _ in range(2)]
    traced = [_run(workload, True).counts for _ in range(2)]
    assert plain[0] == plain[1]
    assert traced[0] == traced[1]
    # the traced run records everything the untraced one does, unchanged
    assert {k: traced[0][k] for k in plain[0]} == plain[0]
    for name in NAMED_COUNTS[workload]["untraced"]:
        assert plain[0][name] > 0, name
    for name in NAMED_COUNTS[workload]["traced"]:
        assert traced[0][name] > 0, name


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_no_work_prediction_holds(workload):
    """Every metric meta.json predicts to be 0 on a workload is measured
    there and is 0; each pattern of the prediction names some metric."""
    patterns = bench.no_work_prediction(workload)
    for pattern in patterns:
        assert fnmatch.filter(bench.PER_LAYER_NAMES, pattern), pattern
    assert bench.no_work_violations(workload, _run(workload, True).per_layer) == []


def test_traced_run_reports_every_per_layer_metric():
    result = _run("mc-dlap", True)
    assert set(result.per_layer) == set(bench.PER_LAYER_NAMES)
    assert result.per_layer["trace.accounted_frac"][0] == pytest.approx(1.0, abs=0.05)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER_NAMES)
    units = {name: unit for name, unit, _ in bench.PER_LAYER}
    units["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)


"""Checks on the benchmark itself: workload generation and tracer coverage."""

import json
from pathlib import Path

import pytest

import run
import tracer
from liemult import additive, experiments, jumps, multiplicative
from liemult.config import default_config, validate_config
from workloads import DEFAULT_SPLIT, SEED_STRIDE, WORKLOADS, make_config

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Spans each workload must reach; together they name every span, so a rename
# in src/ that leaves a span without a binding or without calls fails here.
EXPECTED_SPANS = {
    "jump-stream": ["additive.sample_additive", "additive.sample_times", "rng.substream",
                    "groups.mul", "groups.norm", "groups.exp", "groups.prefix_products",
                    "multiplicative.product_exponential", "jumps.batteries", "stats.ks"],
    "pairwise-mc": ["multiplicative.batch_prefixes", "groups.pairwise_chart_norms",
                    "regularity.oscillation_dp", "regularity.mc_batteries",
                    "geometry.step_counts_batch", "geometry.moment_batteries"],
    "kernel-checks": ["additive.refine", "groups.log", "multiplicative.verify_multiplicative",
                      "multiplicative.convergence_study", "regularity.exhaustive_reference",
                      "geometry.step_count_upper"],
    "unipotent-mc": ["groups.mul", "groups.norm", "groups.exp", "groups.log",
                     "groups.prefix_products", "groups.pairwise_chart_norms",
                     "regularity.oscillation_dp", "geometry.step_count_upper",
                     "geometry.step_counts_batch", "geometry.moment_batteries"],
}
ALWAYS = ["config.build_context", "experiments.run_experiment", "reporting.dump_json", "cli"]

# Trial-like parameters, cut down so that a traced run takes seconds.
SHRINK = {"trials", "samples", "products", "instances", "cases", "paths", "triples"}


def _shrunk(cfg):
    for entry in cfg["experiments"]:
        params = entry.get("params", {})
        for key in SHRINK & set(params):
            params[key] = max(1, params[key] // 20)
    return cfg


def test_default_workloads_partition_the_default_battery():
    default = default_config()
    indices = sorted(i for split in DEFAULT_SPLIT.values() for i in split)
    assert indices == list(range(len(default["experiments"])))
    entries = []
    for workload in DEFAULT_SPLIT:
        cfg = make_config(workload, 0, default)
        assert {k: v for k, v in cfg.items() if k != "experiments"} == \
            {k: v for k, v in default.items() if k != "experiments"}
        entries += cfg["experiments"]
    key = json.dumps
    assert sorted(map(key, entries)) == sorted(map(key, default["experiments"]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_seed_derives_experiment_seeds(workload):
    default = default_config()
    base = make_config(workload, 0, default)
    shifted = make_config(workload, 7, default)
    validate_config(base)
    validate_config(shifted)
    assert shifted == make_config(workload, 7, default)
    assert [e["seed"] + 7 * SEED_STRIDE for e in base["experiments"]] == \
        [e["seed"] for e in shifted["experiments"]]
    with pytest.raises(ValueError):
        make_config(workload, -1, default)


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.metric_units())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


def test_expected_spans_name_every_span():
    named = set(ALWAYS).union(*EXPECTED_SPANS.values())
    assert named == {span.name for span in tracer.SPANS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracer_reaches_every_expected_span(workload, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_shrunk(make_config(workload, 0, default_config()))))
    original = additive.sample_additive
    code, trace = tracer.traced_run(str(config), str(tmp_path / "out"))
    assert code in (0, 1)  # shrunk statistical gates may fail; nothing may raise
    assert trace.missing == []
    silent = [name for name in EXPECTED_SPANS[workload] + ALWAYS
              if trace.stats[name]["calls"] == 0]
    assert silent == []
    # every binding is restored after the run
    for module in (additive, experiments, jumps, multiplicative):
        assert module.sample_additive is original

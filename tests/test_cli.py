"""Batch driver: catalog, exit codes, schema diagnostics, determinism."""

import copy
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from liemult import cli, config, experiments, geometry, jumps, multiplicative, regularity
from liemult.cli import main
from liemult.config import default_config, load_config, read_config, validate_config
from liemult.errors import ConfigError
from liemult.experiments import EXPERIMENTS, catalog, resolve_params, run_experiment

NAN, INF = float("nan"), float("inf")    # written to a config as NaN and Infinity
CATALOG = Path(__file__).with_name("catalog.json")

BASE = {
    "schema_version": 1,
    "group": {"kind": "heisenberg", "N": 2, "p": 2.0},
    "grids": {"g8": {"T": 1.0, "cells": 8}},
    "models": {"still": {}, "noisy": {"diffusion": 0.2}},
    "experiments": [
        {"name": "group-axioms", "seed": 1, "params": {"samples": 200}},
        {"name": "cocycle-exactness", "seed": 2,
         "params": {"model": "noisy", "grid": "g8", "paths": 2, "triples": 50}},
    ],
}


# a small run over four experiments, whose --out holds exactly the files of OUT_DIGESTS
OUT_CONFIG = {
    "schema_version": 1,
    "group": {"kind": "heisenberg", "N": 2, "p": 2.0},
    "grids": {"g16": {"T": 1.0, "cells": 16}, "g128": {"T": 1.0, "cells": 128}},
    "models": {
        "brownian_mild": {"diffusion": 0.11},
        "cp_detector": {"diffusion": 0.15, "jump_intensity": 3.0,
                        "jump_law": {"kind": "fixed_atom", "vector": [0.6, 0.0, 0.0, 0.0, 0.0]}},
        "tail_model": {"jump_intensity": 2.0,
                       "jump_law": {"kind": "fixed_atom", "vector": [0.4, 0.0, 0.0, 0.0, 0.0]}},
        "block_brownian_x": {"space": "x", "diffusion": 0.5},
        "block_brownian_y": {"space": "y", "diffusion": 0.5},
        "block_brownian_z": {"space": "z", "diffusion": 0.2},
    },
    "experiments": [
        {"name": "detector-fidelity", "seed": 7,
         "params": {"model": "cp_detector", "grid": "g128", "epsilon": 0.25, "trials": 20}},
        {"name": "product-limit-convergence", "seed": 8,
         "params": {"model_x": "block_brownian_x", "model_y": "block_brownian_y",
                    "model_z": "block_brownian_z", "grid": "g16", "refinements": 5,
                    "trials": 20, "expect": "order-half"}},
        {"name": "expectation-bound", "seed": 9,
         "params": {"model": "brownian_mild", "grid": "g16", "delta": 0.5, "trials": 200}},
        {"name": "tail-decay", "seed": 10,
         "params": {"model": "tail_model", "r": 0.25, "u": 1.0, "alpha": 0.5, "delta": 0.5,
                    "trials": 800}},
    ],
}
OUT_DIGESTS = {
    "00_detector-fidelity.json":
        "d0b8f80bd90941c4e6bb0cce7f8f8330d4cf62bb210bd2ebad5a617f5ed33f7e",
    "01_product-limit-convergence.json":
        "7b4869de9bea6288f939bd37aa11152df6f37326c8085fa1599a41e88a822cae",
    "02_expectation-bound.json":
        "c5e181e71e248f3d630abe1f8b68a9f66cabe276dde6b78c989017cb9ebb379b",
    "03_tail-decay.json":
        "56acdd2cc5674ef26e1757ea86703bc07dadb94baac14f825e5d04ef8d673b68",
    "summary.json": "b1efb2544372eafba702e53b07f15ad9a4127f6f633201f8c9c52314a71315be",
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def default_entry(name):
    """The first entry of the default battery that runs experiment ``name``."""
    return copy.deepcopy(next(e for e in default_config()["experiments"] if e["name"] == name))


def latin1_config(tmp_path):
    """A config file that is valid JSON in Latin-1 but not UTF-8."""
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps({**BASE, "note": "caf\u00e9"}, ensure_ascii=False)
                     .encode("latin-1"))
    return path


def text_config(name, text):
    """A maker of the config file ``name`` holding ``text``."""
    def make(tmp_path):
        path = tmp_path / name
        path.write_text(text)
        return path
    return make


# every experiment that reads a model, with a valid entry on the default config's
# models; all but product-limit-convergence build group paths from it
MODEL_ENTRIES = {name: default_entry(name) for name in (
    "cocycle-exactness", "right-limit-refinement", "oscillation-axioms", "max-oscillation-bound",
    "largest-step-bound", "expectation-bound", "uniform-continuity-probe", "detector-fidelity",
    "poisson-battery", "restart-probe", "bounded-jumps-gate", "exp-moment", "tail-decay",
    "metric-modulus", "product-limit-convergence")}
MODEL_ENTRIES["cocycle-fault-injection"] = {
    "name": "cocycle-fault-injection", "seed": 1,
    "params": {"model": "brownian_jump", "grid": "g64", "cell": 3}}


# the default entries whose gauge metric exists on the p = 2 Heisenberg group only
GAUGE_ENTRIES = ("gauge-metric", "metric-modulus")


def block_config(p):
    """The default config on the Heisenberg group of exponent ``p``, without the
    entries that need p = 2."""
    cfg = default_config()
    cfg["group"]["p"] = p
    cfg["experiments"] = [e for e in cfg["experiments"] if e["name"] not in GAUGE_ENTRIES]
    return cfg


# every experiment with a delta: its other parameters, valid on delta_config for both
# groups of CHARTS; BALL_POWER ones certify a ball power and stay below rho_double_prime
DELTA_PARAMS = {
    "chart-certification": {},
    "oscillation-axioms": {"model": "m", "grid": "g"},
    "max-oscillation-bound": {"model": "m", "grid": "g"},
    "largest-step-bound": {"model": "m", "grid": "g"},
    "expectation-bound": {"model": "m", "grid": "g"},
    "uniform-continuity-probe": {"model": "m", "T": 1.0, "alpha": 0.1},
    "step-triangle": {},
    "bounded-jumps-gate": {"model": "m", "n_power": 1},
    "exp-moment": {"model": "m", "r": 0.25, "u": 1.0, "alpha": 0.5},
    "tail-decay": {"model": "m", "r": 0.25, "u": 1.0, "alpha": 0.5},
}
BALL_POWER = ("chart-certification", "max-oscillation-bound", "largest-step-bound")
# a group block -> the (rho_prime, rho_double_prime) of its default chart
CHARTS = {"heisenberg": ({"kind": "heisenberg", "N": 2, "p": 2.0}, 1e6, 2.5e5),
          "unipotent": ({"kind": "unipotent", "n": 4}, 0.5, 0.125)}


def delta_config(group, name, delta):
    return {"schema_version": 1, "group": group, "grids": {"g": {"T": 1.0, "cells": 16}},
            "models": {"m": {"diffusion": 0.1}},
            "experiments": [{"name": name, "seed": 1,
                             "params": {**DELTA_PARAMS[name], "delta": delta}}]}


# a valid block of every config schema, each field set: the base of the schema walk
WALK_CHARTS = {"heisenberg": {"rho_prime": 1e6, "rho_double_prime": 2.5e5, "bracket_bound": 2.0},
               "unipotent": {"rho_prime": 0.5, "rho_double_prime": 0.125, "bracket_bound": 2.0}}
WALK_GROUPS = {"heisenberg": {"kind": "heisenberg", "N": 2, "p": 2.0},
               "unipotent": {"kind": "unipotent", "n": 3}}
WALK_LAWS = {"uniform_ball": {"radius": 0.3}, "subspace_ball": {"radius": 0.3, "indices": [0, 1]},
             "fixed_atom": {"vector": [0.1, 0, 0, 0, 0]},
             "discrete": {"vectors": [[0.1, 0, 0, 0, 0]], "probs": [1.0]}}


def walk_config(group="heisenberg", law="uniform_ball"):
    return {"schema_version": 1,
            "group": {**WALK_GROUPS[group], "chart": WALK_CHARTS[group]},
            "grids": {"g": {"T": 1.0, "cells": 8}},
            "models": {"m": {"space": "group", "drift": 0.0, "diffusion": 0.1,
                             "jump_intensity": 1.0, "jump_law": {"kind": law, **WALK_LAWS[law]},
                             "scale": {"breaks": [0.0], "rates": [1.0]}}},
            "experiments": [{"name": "group-axioms", "seed": 1, "params": {"samples": 20}}]}


KIND = {"kind": (str, None)}   # the row a kind's block adds to its kind's schema
# (config, keys of the checked object in it, the object's schema)
SCHEMA_WALK = [
    (walk_config(), (), config._TOP),
    *((walk_config(group), ("group",), {**KIND, **config._GROUPS[group][0]})
      for group in config._GROUPS),
    (walk_config(), ("group", "chart"), config._CHART),
    (walk_config(), ("grids", "g"), config._GRID),
    (walk_config(), ("models", "m"), config._MODEL),
    *((walk_config(law=law), ("models", "m", "jump_law"), {**KIND, **config._LAWS[law][0]})
      for law in config._LAWS),
    (walk_config(), ("models", "m", "scale"), config._SCALE),
    (walk_config(), ("experiments", 0), config._ENTRY),
]


def walk_path(keys):
    return "config" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)


def walk_object(cfg, keys):
    for key in keys:
        cfg = cfg[key]
    return cfg


class TestCatalog:
    def test_at_least_fifteen_entries(self):
        assert len(catalog()) >= 15

    def test_module_filter_subsets(self, capsys):
        assert main(["list-experiments", "--module", "regularity"]) == 0
        out = capsys.readouterr().out
        assert "expectation-bound" in out
        assert "gauge-metric" not in out

    def test_json_catalog(self, capsys):
        assert main(["list-experiments", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["name"] for e in entries} == set(EXPERIMENTS)
        assert all("verifies" in e and "params" in e for e in entries)

    @pytest.mark.parametrize("argv, digest", [
        (["list-experiments"],
         "eefbb7b589d9246547f09e0d0294f9369e503da044625774a1f3e7103fff931a"),
    ])
    def test_catalog_output_pinned(self, capsys, argv, digest):
        # a change to a name, description, module or parameter default of the
        # catalog updates this digest and declares the change
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_json_catalog_equals_committed_catalog(self, capsys):
        # tests/catalog.json is the output of `liemult list-experiments --json`; a
        # catalog change rewrites that file, so the diff declares the change
        assert main(["list-experiments", "--json"]) == 0
        assert capsys.readouterr().out == CATALOG.read_text()

    def test_every_delta_is_bounded_by_a_chart_radius(self):
        # a delta the chart does not hold fails inside its battery; the bound names it first
        bounds = {name: spec.params["delta"] for name, spec in EXPERIMENTS.items()
                  if "delta" in spec.params}
        assert set(bounds) == set(DELTA_PARAMS)
        for name, (typ, default, *bound) in bounds.items():
            radius = "rho_double_prime" if name in BALL_POWER else "rho_prime"
            assert (typ, default, bound) == (float, None, [radius]), name


class TestRun:
    def test_zero_driver_battery_exits_zero(self, tmp_path, capsys):
        cfg = dict(BASE)
        cfg["experiments"] = [
            {"name": "cocycle-exactness", "seed": 1,
             "params": {"model": "still", "grid": "g8", "paths": 1, "triples": 30}},
            {"name": "max-oscillation-bound", "seed": 2,
             "params": {"model": "still", "grid": "g8", "delta": 0.5, "trials": 50}},
        ]
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["counts"] == {"pass": 2, "fail": 0, "inconclusive": 0}

    def test_fault_injection_passes_and_names_triple(self, tmp_path):
        # the negative control passes when it detects the corruption and its
        # worst triple spans the corrupted cell
        cfg = dict(BASE)
        cfg["experiments"] = [
            {"name": "cocycle-fault-injection", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "cell": 4, "triples": 200}},
        ]
        out = tmp_path / "out"
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "00_cocycle-fault-injection.json").read_text())
        assert report["status"] == "pass"
        assert report["max_defect"] > report["tol"]
        j, _, l = report["argmax_triple"]
        assert j <= report["corrupted_cell"] < l

    def test_fault_injection_below_tolerance_fails(self, tmp_path):
        # a tolerance above the injected defect hides it: the control fails
        cfg = dict(BASE)
        cfg["experiments"] = [
            {"name": "cocycle-fault-injection", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "cell": 4, "triples": 200,
                        "tol": 1e6}},
        ]
        out = tmp_path / "out"
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert code == 1
        report = json.loads((out / "00_cocycle-fault-injection.json").read_text())
        assert report["status"] == "fail"
        assert report["max_defect"] <= report["tol"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_out_holds_the_reports_only(self, tmp_path, jobs):
        # the reports and the summary, with their pinned bytes, are all that a run
        # leaves under --out: no other file and no directory, serial or in workers
        out = tmp_path / "out"
        code = main(["run", str(write_config(tmp_path, OUT_CONFIG)), "--out", str(out),
                     "--jobs", jobs])
        assert code == 0
        # a directory has no bytes to read: one under --out fails here too
        digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.rglob("*")}
        assert digests == OUT_DIGESTS

    def test_context_built_once_per_run(self, tmp_path, monkeypatch):
        # the one build that checks the file serves every entry, whatever the
        # number of entries
        original = config.build_context
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return original(cfg)

        for module in (config, cli):
            if getattr(module, "build_context", None) is original:
                monkeypatch.setattr(module, "build_context", counted)
        cfg = copy.deepcopy(BASE)
        cfg["experiments"] += [{"name": "group-axioms", "seed": 3, "params": {"samples": 100}},
                               {"name": "exp-log-roundtrip", "seed": 4,
                                "params": {"samples": 100}}]
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o"),
                     "--jobs", "1"])
        assert code == 0
        assert len(calls) == 1

    def test_reports_byte_identical_and_jobs_invariant(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        for args in (["--out", str(tmp_path / "a")],
                     ["--out", str(tmp_path / "b")],
                     ["--out", str(tmp_path / "c"), "--jobs", "2"]):
            assert main(["run", str(cfg_path), *args]) == 0
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files
        for name in files:
            blob = (tmp_path / "a" / name).read_bytes()
            assert blob == (tmp_path / "b" / name).read_bytes()
            assert blob == (tmp_path / "c" / name).read_bytes()

    def test_progress_line_per_entry_under_jobs(self, tmp_path, capsys):
        cfg = copy.deepcopy(BASE)
        cfg["experiments"] += [{"name": "group-axioms", "seed": 3, "params": {"samples": 100}},
                               {"name": "exp-log-roundtrip", "seed": 4,
                                "params": {"samples": 100}}]
        cfg_path = write_config(tmp_path, cfg)
        printed = {}
        for jobs in ("1", "2"):
            assert main(["run", str(cfg_path), "--out", str(tmp_path / jobs), "--jobs", jobs]) == 0
            printed[jobs] = capsys.readouterr().out.splitlines()
        names = [f"{i:02d} {e['name']}" for i, e in enumerate(cfg["experiments"])]
        for lines in printed.values():
            assert sorted(line[15:] for line in lines[:-1]) == sorted(names)
            assert all(line.startswith("[        PASS] ") for line in lines[:-1])
        assert printed["1"][:-1] == [f"[        PASS] {name}" for name in names]
        files = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "2").iterdir())
        for name in files:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_schema_violation_exits_two_with_field_path(self, tmp_path, capsys):
        cfg = dict(BASE)
        cfg["experiments"] = [{"name": "group-axioms", "seed": 1,
                               "params": {"sample": 10}}]
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "experiments[0].params" in err

    def test_json_syntax_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"schema_version": 1,,}')
        code = main(["run", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert ":1:" in capsys.readouterr().err

    def test_missing_seed_rejected(self, tmp_path, capsys):
        cfg = dict(BASE)
        cfg["experiments"] = [{"name": "group-axioms", "params": {}}]
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_runtime_error_exits_three_naming_experiment(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1,
            # the degree-3 BCH series on a step-5 group is a runtime error by design
            "group": {"kind": "unipotent", "n": 6},
            "grids": {},
            "models": {},
            "experiments": [{"name": "bch-consistency", "seed": 1,
                             "params": {"samples": 20}}],
        }
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "bch-consistency" in capsys.readouterr().err

    @pytest.mark.parametrize("rho_prime, rho_double_prime", [(1e6, 2.5e5), (0.25, 0.2)])
    def test_violated_bracket_bound_fails_chart_certification(self, tmp_path, rho_prime,
                                                              rho_double_prime):
        # the bracket bound is the battery's own assertion: a sampled violation is a
        # failed verdict (exit 1), also where the ball-power radius leaves the chart
        chart = {"rho_prime": rho_prime, "rho_double_prime": rho_double_prime,
                 "bracket_bound": 0.1}
        cfg = {"schema_version": 1, "group": {"kind": "heisenberg", "N": 2, "chart": chart},
               "grids": {}, "models": {},
               "experiments": [{"name": "chart-certification", "seed": 1,
                                "params": {"delta": 0.1, "power": 3, "products": 2000}}]}
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 1
        report = json.loads((tmp_path / "o" / "00_chart-certification.json").read_text())
        assert report["status"] == "fail" and report["bracket_bound_worst_ratio"] > 1.0
        assert (report["certified_radius"] is None) == (rho_prime < 1.0)

    def test_zero_bracket_bound_report_is_strict_json(self, tmp_path):
        # C = 0 makes the worst ratio infinite; the report writes it as null, not the
        # non-standard token Infinity
        chart = {"rho_prime": 1e6, "rho_double_prime": 2.5e5, "bracket_bound": 0.0}
        cfg = {"schema_version": 1, "group": {"kind": "heisenberg", "N": 2, "chart": chart},
               "grids": {}, "models": {},
               "experiments": [{"name": "chart-certification", "seed": 1,
                                "params": {"delta": 0.1, "power": 3, "products": 2000}}]}
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        for path in (tmp_path / "o").glob("*.json"):
            report = json.loads(path.read_text(), parse_constant=reject)
            if path.name == "00_chart-certification.json":
                assert report["status"] == "fail"
                assert report["bracket_bound_worst_ratio"] is None

    def test_runtime_error_keeps_other_reports(self, tmp_path, capsys):
        # the degree-3 BCH series on a step-5 group is a runtime error by design
        cfg = {"schema_version": 1, "group": {"kind": "unipotent", "n": 6}, "grids": {},
               "models": {}}
        cfg["experiments"] = [
            {"name": "group-axioms", "seed": 1, "params": {"samples": 200}},
            {"name": "bch-consistency", "seed": 2, "params": {"samples": 200}},
        ]
        cfg_path = write_config(tmp_path, cfg)
        for out, jobs in (("a", "1"), ("b", "2")):
            assert main(["run", str(cfg_path), "--out", str(tmp_path / out), "--jobs", jobs]) == 3
            err = capsys.readouterr().err
            assert "runtime error in experiment 01 bch-consistency (seed 2)" in err
            assert "Traceback (most recent call last)" in err
            assert "exact only up to nilpotency step 3" in err
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == ["00_group-axioms.json", "01_bch-consistency.json", "summary.json"]
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert json.loads((tmp_path / "a" / "01_bch-consistency.json").read_text()) == {
            "experiment": "bch-consistency", "seed": 2, "status": "error", "schema_version": 1,
            "error": "ParameterError: the BCH series is truncated at degree 3, exact only up to"
                     " nilpotency step 3, got step 5",
        }
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["counts"] == {"pass": 1, "fail": 0, "inconclusive": 0, "error": 1}
        assert [row["status"] for row in summary["experiments"]] == ["pass", "error"]

    def test_early_stop_keeps_finished_reports(self, tmp_path, capsys, monkeypatch):
        # a stop that no entry catches (Ctrl-C, a kill) in entry 02: the two reports
        # finished before it are on disk with their full-run bytes, and no summary is
        cfg = copy.deepcopy(BASE)
        cfg["experiments"].append({"name": "gauge-metric", "seed": 5, "params": {"samples": 10}})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()

        class Stop(BaseException):
            pass

        def stop(ctx, params, seed):
            raise Stop

        monkeypatch.setitem(EXPERIMENTS, "gauge-metric",
                            dataclasses.replace(EXPERIMENTS["gauge-metric"], runner=stop))
        with pytest.raises(Stop):
            main(["run", str(cfg_path), "--out", str(tmp_path / "b"), "--jobs", "1"])
        assert capsys.readouterr().out.splitlines() == [
            "[        PASS] 00 group-axioms", "[        PASS] 01 cocycle-exactness"]
        files = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files == ["00_group-axioms.json", "01_cocycle-exactness.json"]
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_unipotent_six_runs_and_names_the_bch_step(self, tmp_path):
        # a group of nilpotency step 5: the kernel checks and the step counter run,
        # and the two entries built on the degree-3 BCH series error out naming the step
        cfg = {
            "schema_version": 1,
            "group": {"kind": "unipotent", "n": 6},
            "grids": {},
            "models": {},
            "experiments": [
                {"name": "group-axioms", "seed": 1, "params": {"samples": 500}},
                {"name": "bch-consistency", "seed": 2, "params": {"samples": 500}},
                {"name": "exp-log-roundtrip", "seed": 3, "params": {"samples": 500}},
                {"name": "chart-certification", "seed": 4,
                 "params": {"samples": 500, "delta": 0.1, "products": 500}},
                {"name": "step-triangle", "seed": 5, "params": {"samples": 5, "delta": 0.3}},
            ],
        }
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert [row["status"] for row in summary["experiments"]] == [
            "pass", "error", "pass", "error", "pass"]
        step = ("ParameterError: the BCH series is truncated at degree 3, exact only up to"
                " nilpotency step 3, got step 5")
        for name in ("01_bch-consistency.json", "03_chart-certification.json"):
            assert json.loads((out / name).read_text())["error"] == step

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patch reaches the workers only through fork")
    def test_dead_worker_exits_three(self, tmp_path, capsys, monkeypatch):
        # forked workers inherit the patch and die without raising
        monkeypatch.setattr("liemult.cli.run_experiment", lambda *args: os._exit(1))
        code = main(["run", str(write_config(tmp_path, BASE)), "--out", str(tmp_path / "o"),
                     "--jobs", "2"])
        assert code == 3
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patch reaches the workers only through fork")
    def test_dead_worker_keeps_finished_reports(self, tmp_path, capsys, monkeypatch):
        cfg = copy.deepcopy(BASE)
        cfg["experiments"].append({"name": "gauge-metric", "seed": 5, "params": {"samples": 10}})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()

        marks = tmp_path / "marks"
        marks.mkdir()

        def patched(name, runner):
            def run(ctx, params, seed):
                if name != "gauge-metric":
                    report = runner(ctx, params, seed)
                    (marks / name).touch()
                    return report
                # die once the other two entries have returned to the parent
                deadline = time.monotonic() + 60
                while len(list(marks.iterdir())) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)
                os._exit(1)
            return run

        for name in ("group-axioms", "cocycle-exactness", "gauge-metric"):
            spec = EXPERIMENTS[name]
            monkeypatch.setitem(EXPERIMENTS, name,
                                dataclasses.replace(spec, runner=patched(name, spec.runner)))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "b"), "--jobs", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert "runtime error in experiment 02 gauge-metric (seed 5)" in err
        assert "lost when a worker process died" in err

        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in ("00_group-axioms.json", "01_cocycle-exactness.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        lost = json.loads((tmp_path / "b" / "02_gauge-metric.json").read_text())
        assert lost == {"experiment": "gauge-metric", "seed": 5, "status": "error",
                        "schema_version": 1, "error": lost["error"]}
        assert lost["error"].startswith("BrokenProcessPool: ")
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary["counts"] == {"pass": 2, "fail": 0, "inconclusive": 0, "error": 1}
        assert [row["status"] for row in summary["experiments"]] == ["pass", "pass", "error"]

    def test_report_files_carry_schema_version(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, BASE)), "--out", str(out)]) == 0
        report = json.loads((out / "00_group-axioms.json").read_text())
        assert report["schema_version"] == 1

    def test_strict_flag_fails_inconclusive(self, tmp_path):
        cfg = dict(BASE)
        # zero driver never hits the jump set: underpowered, hence inconclusive
        cfg["experiments"] = [
            {"name": "poisson-battery", "seed": 4,
             "params": {"model": "still", "grid": "g8", "epsilon": 0.5, "trials": 20}},
        ]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "x")]) == 0
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "y"), "--strict"]) == 1


class TestValidation:
    def test_unknown_top_level_key(self):
        cfg = dict(BASE)
        cfg["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_config(cfg)

    def test_unknown_experiment_name(self):
        cfg = dict(BASE)
        cfg["experiments"] = [{"name": "nope", "seed": 1}]
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate_config(cfg)

    def test_unknown_model_reference(self):
        cfg = dict(BASE)
        cfg["experiments"] = [{"name": "cocycle-exactness", "seed": 1,
                               "params": {"model": "ghost", "grid": "g8"}}]
        with pytest.raises(ConfigError, match="ghost"):
            validate_config(cfg)

    @pytest.mark.parametrize("name, key, model, space", [
        *((name, "model", "block_brownian_x", "the group")
          for name in MODEL_ENTRIES if name != "product-limit-convergence"),
        *(("product-limit-convergence", key, "brownian_mild", f"block {key[-1]}")
          for key in ("model_x", "model_y", "model_z")),
    ])
    def test_model_on_the_wrong_space_exits_two(self, tmp_path, capsys, monkeypatch,
                                                name, key, model, space):
        started = []
        monkeypatch.setattr(cli, "_execute_entry", lambda *args: started.append(args))
        cfg = default_config()
        cfg["experiments"] = [copy.deepcopy(MODEL_ENTRIES[name])]
        cfg["experiments"][0]["params"][key] = model
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 2
        assert (f"config error: config.experiments[0].params.{key}: expected a model on"
                f" {space}, got '{model}'") in capsys.readouterr().err
        assert started == []

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("key, model", [("model_x", "block_cp_y"), ("model_y", "block_cp_x"),
                                            ("model_x", "block_brownian_z")])
    def test_model_on_another_block_exits_two(self, tmp_path, capsys, monkeypatch, p, key,
                                              model):
        # each block model must be on the group's own space of its block: at p = 3 an x/y
        # swap would draw the x jumps from the l^q ball, and a z model has the wrong length
        started = []
        monkeypatch.setattr(cli, "_execute_entry", lambda *args: started.append(args))
        cfg = block_config(p)
        i = next(i for i, entry in enumerate(cfg["experiments"])
                 if entry["params"].get("expect") == "jump-separation")
        cfg["experiments"][i]["params"][key] = model
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 2
        assert (f"config error: config.experiments[{i}].params.{key}: expected a model on"
                f" block {key[-1]}, got '{model}'\n") in capsys.readouterr().err
        assert started == []

    def test_block_models_in_place_pass_at_p_three(self):
        cfg = block_config(3.0)
        ctx = validate_config(cfg)
        for entry in cfg["experiments"]:
            if entry["name"] == "product-limit-convergence":
                report = run_experiment(entry["name"], ctx, entry["params"], entry["seed"])
                assert report["status"] == "pass", report

    @pytest.mark.parametrize("kind", sorted(CHARTS))
    @pytest.mark.parametrize("name", sorted(DELTA_PARAMS))
    def test_delta_beyond_the_chart_radius_exits_two(self, tmp_path, capsys, monkeypatch, kind,
                                                     name):
        started = []
        monkeypatch.setattr(cli, "_execute_entry", lambda *args: started.append(args))
        group, rho_prime, rho_double_prime = CHARTS[kind]
        radius = rho_double_prime if name in BALL_POWER else rho_prime
        validate_config(delta_config(group, name, math.nextafter(radius, 0.0)))
        above = math.nextafter(radius, INF)
        cfg_path = write_config(tmp_path, delta_config(group, name, above))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert (f"config error: config.experiments[0].params.delta: expected a value in"
                f" (0, {radius}), got {json.dumps(above)}\n") in capsys.readouterr().err
        assert started == []

    @pytest.mark.parametrize("name, model, expected", [
        ("poisson-battery", "cp_nonstat",
         "the Poisson battery requires a stationary model, got one with a scale"),
    ])
    def test_model_outside_the_battery_hypothesis_exits_two(self, tmp_path, capsys, monkeypatch,
                                                            name, model, expected):
        started = []
        monkeypatch.setattr(cli, "_execute_entry", lambda *args: started.append(args))
        cfg = default_config()
        cfg["experiments"] = [default_entry(name)]
        cfg["experiments"][0]["params"]["model"] = model
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 2
        assert (f"config error: config.experiments[0].params.model: {expected}\n"
                in capsys.readouterr().err)
        assert started == []

    def test_undeclared_jump_model_runs_the_moment_batteries(self, tmp_path):
        # a uniform-ball law is bounded by its radius, so the model declares no bound
        cfg = default_config()
        assert cfg["models"]["brownian_jump"]["jump_law"]["kind"] == "uniform_ball"
        cfg["experiments"] = [default_entry(name)
                              for name in ("exp-moment", "tail-decay", "metric-modulus")]
        for entry in cfg["experiments"]:
            entry["params"].update(model="brownian_jump", trials=50)
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) != 2
        for i, entry in enumerate(cfg["experiments"]):
            report = json.loads((out / f"{i:02d}_{entry['name']}.json").read_text())
            assert report["status"] in ("pass", "fail", "inconclusive")

    @pytest.mark.parametrize("group, name, field, built", [
        ({"kind": "unipotent", "n": 4}, "gauge-metric", "name", "UnipotentGroup(n=4)"),
        ({"kind": "heisenberg", "N": 2, "p": 3.0}, "gauge-metric", "name",
         "HeisenbergGroup(N=2, p=3.0)"),
        ({"kind": "heisenberg", "N": 2, "p": 3.0}, "metric-modulus", "params.model",
         "HeisenbergGroup(N=2, p=3.0)"),
    ])
    def test_gauge_battery_off_the_p_two_group_exits_two(self, tmp_path, capsys, monkeypatch,
                                                         group, name, field, built):
        # gauge-metric has no parameter that names the group, so its name is at fault
        started = []
        monkeypatch.setattr(cli, "_execute_entry", lambda *args: started.append(args))
        params = {"gauge-metric": {"samples": 10},
                  "metric-modulus": {"model": "still", "T": 1.0, "alpha": 0.5,
                                     "window_sizes": [0.25], "trials": 5, "cells": 16}}[name]
        cfg = {"schema_version": 1, "group": group, "grids": {}, "models": {"still": {}},
               "experiments": [{"name": "group-axioms", "seed": 1, "params": {"samples": 20}},
                               {"name": name, "seed": 2, "params": params}]}
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 2
        assert (f"config error: config.experiments[1].{field}: the gauge metric needs"
                f" the p = 2 Heisenberg group, got {built}\n" in capsys.readouterr().err)
        assert started == []

    def test_additive_determinism_accepts_a_block_model(self):
        # it only samples the driver, which lives on the model's own space
        cfg = default_config()
        cfg["experiments"] = [{"name": "additive-determinism", "seed": 1,
                               "params": {"model": "block_brownian_x", "grid": "g16"}}]
        ctx = validate_config(cfg)
        report = run_experiment("additive-determinism", ctx, cfg["experiments"][0]["params"], 1)
        assert report["status"] == "pass"

    @pytest.mark.parametrize("edit, path, field", [
        (lambda cfg: cfg["grids"]["g8"].update(T=0), "config.grids.g8", "T"),
        (lambda cfg: cfg["group"].update(N=2.5), "config.group", "N"),
        (lambda cfg: cfg["models"]["noisy"].update(diffusion=[0.1, 0.2]),
         "config.models.noisy", "diffusion"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0, jump_law={"kind": "uniform_ball", "radius": -1}),
         "config.models.noisy.jump_law", "radius"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0, jump_law={"kind": "uniform_ball", "radius": float("nan")}),
         "config.models.noisy.jump_law", "radius"),
        # a jump law whose dimension does not fit the 5-dim group
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0, jump_law={"kind": "fixed_atom", "vector": [0.1, 0.2]}),
         "config.models.noisy", "vector"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0,
            jump_law={"kind": "subspace_ball", "radius": 0.3, "indices": [0, 7]}),
         "config.models.noisy", "indices"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0,
            jump_law={"kind": "discrete", "vectors": [[0.1, 0.2]], "probs": [1.0]}),
         "config.models.noisy", "vectors"),
        # subspace indices that are negative or repeated
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0,
            jump_law={"kind": "subspace_ball", "radius": 0.3, "indices": [-1, -1]}),
         "config.models.noisy.jump_law", "indices"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0,
            jump_law={"kind": "subspace_ball", "radius": 0.3, "indices": [0, 0]}),
         "config.models.noisy.jump_law", "indices"),
        # count parameters below the range a battery's arithmetic needs
        (lambda cfg: cfg["experiments"].append(
            {"name": "right-limit-refinement", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "refinements": 0}}),
         "config.experiments[2].params.refinements", "at least 1"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "poisson-battery", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "epsilon": 0.1, "trials": 0}}),
         "config.experiments[2].params.trials", "at least 2"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "expectation-bound", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "delta": 0.5, "trials": 1}}),
         "config.experiments[2].params.trials", "at least 2"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "cocycle-fault-injection", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "cell": -1}}),
         "config.experiments[2].params.cell", "at least 0"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "oscillation-dp-bruteforce", "seed": 3,
             "params": {"max_points": 1}}),
         "config.experiments[2].params.max_points", "a value in (1, 17), got 1"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "oscillation-dp-bruteforce", "seed": 3,
             "params": {"max_points": 17}}),
         "config.experiments[2].params.max_points", "a value in (1, 17), got 17"),
        # bounds that depend on the referenced grid
        (lambda cfg: cfg["experiments"].append(
            {"name": "cocycle-fault-injection", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "cell": 8}}),
         "config.experiments[2].params.cell", "cell must lie in 0..7, got 8"),
        (lambda cfg: (cfg["grids"].update(g1={"T": 1.0, "cells": 1}),
                      cfg["experiments"].append(
                          {"name": "oscillation-axioms", "seed": 3,
                           "params": {"model": "noisy", "grid": "g1", "delta": 0.25}})),
         "config.experiments[2].params.grid",
         "the concatenation check needs a grid of at least 2 cells, got 1"),
        # enumerated strings
        (lambda cfg: cfg["experiments"].append(
            {"name": "restart-probe", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "epsilon": 0.1, "h": 0.25,
                        "expect": "maybe"}}),
         "config.experiments[2].params.expect", "one of ['match', 'reject']"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "product-limit-convergence", "seed": 3,
             "params": {"model_x": "noisy", "model_y": "noisy", "model_z": "noisy",
                        "grid": "g8", "expect": "maybe"}}),
         "config.experiments[2].params.expect",
         "one of ['exact', 'jump-separation', 'order-half']"),
        # float ranges, from the schema bound
        (lambda cfg: cfg["experiments"].append(
            {"name": "uniform-continuity-probe", "seed": 3,
             "params": {"model": "noisy", "T": 1.0, "delta": 0.5, "alpha": 1.5}}),
         "config.experiments[2].params.alpha", "a value in (0, 1), got 1.5"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "max-oscillation-bound", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "delta": -0.5}}),
         "config.experiments[2].params.delta", "a value in (0, 250000.0), got -0.5"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "chart-certification", "seed": 3, "params": {"delta": -0.1}}),
         "config.experiments[2].params.delta", "a value in (0, 250000.0), got -0.1"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "restart-probe", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "epsilon": 0.1, "h": 0.0}}),
         "config.experiments[2].params.h", "a value in (0, inf), got 0.0"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "detector-fidelity", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "epsilon": -1.0}}),
         "config.experiments[2].params.epsilon", "a value in (0, inf), got -1.0"),
        # a negative scale, which the residual batteries' uniform norm draw refuses
        *((lambda cfg, name=name: cfg["experiments"].append(
            {"name": name, "seed": 3, "params": {"scale": -1.0}}),
           "config.experiments[2].params.scale", "at least 0, got -1.0")
          for name in ("group-axioms", "exp-log-roundtrip", "bch-consistency",
                       "bracket-properties")),
        # bounds between parameters or on the grid
        (lambda cfg: cfg["experiments"].append(
            {"name": "restart-probe", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "epsilon": 0.1, "h": 1.0}}),
         "config.experiments[2].params.h", "h must lie in (0, T) = (0, 1.0), got 1.0"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "metric-modulus", "seed": 3,
             "params": {"model": "noisy", "T": 1.0, "alpha": 0.5, "window_sizes": []}}),
         "config.experiments[2].params.window_sizes",
         "window sizes must be a nonempty list in (0, 1.0], got []"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "exp-moment", "seed": 3,
             "params": {"model": "noisy", "r": 0.9, "u": 0.2, "alpha": 0.5, "delta": 0.5}}),
         "config.experiments[2].params.r",
         "window must satisfy 0 <= r < u <= T = 0.2, got (0.9, 0.2)"),
        # windows and lags counted on the battery's grid
        (lambda cfg: cfg["experiments"].append(
            {"name": "exp-moment", "seed": 3,
             "params": {"model": "noisy", "r": 0.9, "u": 1.0, "alpha": 0.5, "delta": 0.5,
                        "cells": 4}}),
         "config.experiments[2].params.r",
         "window (0.9, 1.0) holds fewer than two points of the 4-cell grid"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "tail-decay", "seed": 3,
             "params": {"model": "noisy", "r": 0.9, "u": 1.0, "alpha": 0.5, "delta": 0.5,
                        "cells": 4}}),
         "config.experiments[2].params.r",
         "window (0.9, 1.0) holds fewer than two points of the 4-cell grid"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "metric-modulus", "seed": 3,
             "params": {"model": "noisy", "T": 1.0, "alpha": 0.5, "window_sizes": [0.01],
                        "cells": 8}}),
         "config.experiments[2].params.window_sizes",
         "window (0.495, 0.505) holds fewer than two points of the 8-cell grid"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "restart-probe", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "epsilon": 0.1, "h": 0.3}}),
         "config.experiments[2].params.h", "h must be a multiple of the grid mesh 0.125, got 0.3"),
        # JSON booleans where a number is expected (isinstance(True, int) holds)
        (lambda cfg: cfg["experiments"][0].update(seed=True),
         "config.experiments[0].seed", "expected an integer, got true"),
        (lambda cfg: cfg.update(schema_version=True), "config.schema_version", "got true"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "metric-modulus", "seed": 3,
             "params": {"model": "noisy", "T": 1.0, "alpha": 0.5, "window_sizes": [True]}}),
         "config.experiments[2].params.window_sizes[0]", "got true"),
        (lambda cfg: cfg["grids"]["g8"].update(T=True), "config.grids.g8.T", "got true"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=True, jump_law={"kind": "uniform_ball", "radius": 0.3}),
         "config.models.noisy.jump_intensity", "got true"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0, jump_law={"kind": "uniform_ball", "radius": True}),
         "config.models.noisy.jump_law.radius", "got true"),
        # a boolean in a string parameter that shares its name with a boolean one
        (lambda cfg: cfg["experiments"].append(
            {"name": "restart-probe", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "epsilon": 0.1, "h": 0.25,
                        "expect": False}}),
         "config.experiments[2].params.expect", "expected a string, got false"),
        # non-finite values, rejected by the constructor or schema check that owns them
        (lambda cfg: cfg["models"]["noisy"].update(diffusion=NAN),
         "config.models.noisy", "diffusion"),
        (lambda cfg: cfg["models"]["noisy"].update(drift=INF),
         "config.models.noisy", "drift"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=NAN, jump_law={"kind": "uniform_ball", "radius": 0.3}),
         "config.models.noisy", "jump_intensity"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=INF, jump_law={"kind": "uniform_ball", "radius": 0.3}),
         "config.models.noisy", "jump_intensity"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0, jump_law={"kind": "uniform_ball", "radius": INF}),
         "config.models.noisy.jump_law", "radius"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0, jump_law={"kind": "fixed_atom", "vector": [NAN, 0, 0, 0, 0]}),
         "config.models.noisy.jump_law", "vector"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0, jump_law={"kind": "discrete", "vectors": [[INF, 0, 0, 0, 0]],
                                          "probs": [1.0]}),
         "config.models.noisy.jump_law", "vector"),
        (lambda cfg: cfg["models"]["noisy"].update(
            scale={"breaks": [0.0, 0.5], "rates": [1.0, NAN]}),
         "config.models.noisy.scale", "rates"),
        (lambda cfg: cfg["models"]["noisy"].update(
            scale={"breaks": [0.0, NAN], "rates": [1.0, 2.0]}),
         "config.models.noisy.scale", "breaks"),
        (lambda cfg: cfg["group"].update(
            chart={"rho_prime": 1.0, "rho_double_prime": 0.5, "bracket_bound": NAN}),
         "config.group", "bracket_bound"),
        (lambda cfg: cfg["group"].update(
            chart={"rho_prime": INF, "rho_double_prime": 0.5, "bracket_bound": 2.0}),
         "config.group", "rho_prime"),
        (lambda cfg: cfg["group"].update(N=INF), "config.group", "N must be a positive integer"),
        (lambda cfg: cfg["grids"]["g8"].update(T=INF), "config.grids.g8", "T=inf"),
        (lambda cfg: cfg["grids"]["g8"].update(T=NAN), "config.grids.g8", "T=nan"),
        (lambda cfg: cfg["grids"]["g8"].update(cells=INF), "config.grids.g8", "cells=inf"),
        (lambda cfg: cfg["grids"]["g8"].update(cells=10**400), "config.grids.g8", "too large"),
        # 8 PiB of grid points: numpy refuses the allocation at once
        (lambda cfg: cfg["grids"]["g8"].update(cells=10**15), "config.grids.g8",
         "Unable to allocate"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "cocycle-exactness", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "tol": NAN}}),
         "config.experiments[2].params.tol", "expected a finite number, got NaN"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "exp-moment", "seed": 3,
             "params": {"model": "noisy", "r": 0.25, "u": 1.0, "alpha": INF, "delta": 0.5}}),
         "config.experiments[2].params.alpha", "expected a finite number, got Infinity"),
        # structure: kinds, coordinate blocks and the shape of each block
        (lambda cfg: cfg["group"].update(kind="orthogonal"), "config.group.kind",
         "expected one of ['heisenberg', 'unipotent'], got \"orthogonal\""),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0, jump_law={"kind": "gaussian", "radius": 0.3}),
         "config.models.noisy.jump_law.kind", 'got "gaussian"'),
        (lambda cfg: cfg["group"].update(n=3), "config.group", "unknown keys ['n']"),
        # a jump law bounds itself, so a model declares no bound
        (lambda cfg: cfg["models"]["noisy"].update(bound_delta=0.3), "config.models.noisy",
         "unknown keys ['bound_delta']"),
        (lambda cfg: cfg["models"]["noisy"].update(space="w"), "config.models.noisy.space",
         "expected one of ['group', 'x', 'y', 'z'], got \"w\""),
        (lambda cfg: (cfg.update(group={"kind": "unipotent", "n": 3}),
                      cfg["models"]["noisy"].update(space="x")),
         "config.models.noisy.space", "expected one of ['group'], got \"x\""),
        (lambda cfg: cfg.update(experiments=[]), "config.experiments", "nonempty list"),
        (lambda cfg: cfg.update(experiments={}), "config.experiments", "nonempty list"),
        (lambda cfg: cfg["experiments"][0].update(params=[200]),
         "config.experiments[0].params", "expected an object"),
        (lambda cfg: cfg.update(grids=[]), "config.grids", "expected an object, got []"),
        (lambda cfg: cfg.update(models=[]), "config.models", "expected an object, got []"),
        # the run's one output is its JSON reports: an output block is an unknown key
        (lambda cfg: cfg.update(output={"csv": False}), "config", "unknown keys ['output']"),
        # an empty scale block is a malformed scale, not a stationary model
        (lambda cfg: cfg["models"]["noisy"].update(scale={}), "config.models.noisy.scale",
         "missing required key 'breaks'"),
        # a truthy non-boolean is no boolean
        *((lambda cfg, value=value: cfg["experiments"].append(
            {"name": "bounded-jumps-gate", "seed": 3,
             "params": {"model": "noisy", "delta": 0.5, "n_power": 1, "expect": value}}),
           "config.experiments[2].params.expect", f"expected a boolean, got {shown}")
          for value, shown in (("no", '"no"'), (0.5, "0.5"), (1, "1"))),
        # unhashable names and kinds, and a version printed as it is written
        (lambda cfg: cfg["experiments"][0].update(name=["group-axioms"]),
         "config.experiments[0].name", 'expected a string, got ["group-axioms"]'),
        (lambda cfg: cfg["group"].update(kind=["heisenberg"]), "config.group.kind",
         'expected a string, got ["heisenberg"]'),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0, jump_law={"kind": ["uniform_ball"], "radius": 0.3}),
         "config.models.noisy.jump_law.kind", 'expected a string, got ["uniform_ball"]'),
        (lambda cfg: cfg["models"]["noisy"].update(space=["x"]), "config.models.noisy.space",
         'expected a string, got ["x"]'),
        (lambda cfg: cfg.update(schema_version="1"), "config.schema_version",
         'expected an integer, got "1"'),
    ])
    def test_constructor_rejections_exit_two_with_field_path(self, tmp_path, capsys,
                                                             edit, path, field):
        cfg = copy.deepcopy(BASE)
        edit(cfg)
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: " in err and field in err

    @pytest.mark.parametrize("edit, path", [
        (lambda cfg: cfg["group"].update({"k" * 1000: 1}), "config.group"),
        (lambda cfg: cfg["models"]["noisy"].update(
            jump_intensity=1.0, jump_law={"kind": "fixed_atom", "vector": [NAN] + [0.0] * 300}),
         "config.models.noisy.jump_law"),
        (lambda cfg: cfg["models"]["noisy"].update(
            scale={"breaks": [0.0, 1.0], "rates": [1.0, -1.0] * 150}),
         "config.models.noisy.scale"),
        (lambda cfg: (cfg["group"].update(N=40), cfg["models"]["noisy"].update(drift=[NAN] * 81)),
         "config.models.noisy"),
    ], ids=["unknown-key", "atom", "rates", "drift"])
    def test_long_values_are_cut_in_errors(self, tmp_path, capsys, edit, path):
        # a value is echoed up to 60 characters, so a long input gives a short line
        cfg = copy.deepcopy(BASE)
        edit(cfg)
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"config error: {path}: ") and " ..." in err
        assert all(len(line) < 200 for line in err.splitlines())

    @pytest.mark.parametrize("cfg, keys, schema", SCHEMA_WALK,
                             ids=[walk_path(keys) + (f"-{walk_object(cfg, keys).get('kind')}"
                                                     if "kind" in schema else "")
                                  for cfg, keys, schema in SCHEMA_WALK])
    def test_every_field_has_a_type(self, tmp_path, capsys, cfg, keys, schema):
        # a string, a boolean, a list and an object in each field of each schema exit 2
        # at that field or an entry inside it, so no field can come without a type
        assert set(WALK_LAWS) == set(config._LAWS) and set(WALK_GROUPS) == set(config._GROUPS)
        assert set(walk_object(cfg, keys)) == set(schema)
        validate_config(cfg)
        for field, (typ, *_) in schema.items():
            for value in ("?", True, ["?"], {"?": 1}):
                bad = copy.deepcopy(cfg)
                walk_object(bad, keys)[field] = value
                code = main(["run", str(write_config(tmp_path, bad)), "--out", str(tmp_path / "o")])
                err = capsys.readouterr().err
                assert code == 2 and err.startswith(f"config error: {walk_path(keys)}.{field}")
                assert err[len(f"config error: {walk_path(keys)}.{field}")] in ":[.", err

    def test_null_optional_fields_and_integral_floats_build_the_same_context(self):
        written = copy.deepcopy(BASE)
        written["group"].update(N=2.0, chart=None)
        written["grids"]["g8"].update(cells=8.0)
        for model in written["models"].values():
            model.update(jump_law=None, scale=None)
        want, got = validate_config(copy.deepcopy(BASE)), validate_config(written)
        assert repr(got["group"]) == repr(want["group"])
        assert got["group"].chart == want["group"].chart
        assert np.array_equal(got["grids"]["g8"].points, want["grids"]["g8"].points)
        for name, model in want["models"].items():
            for field in dataclasses.fields(model):
                a, b = getattr(got["models"][name], field.name), getattr(model, field.name)
                assert (repr(a) == repr(b) if field.name == "space"
                        else np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b)

    def test_run_experiment_checks_ranges_before_running(self):
        # the range check also guards direct calls, before any reference lookup
        with pytest.raises(ConfigError, match=r"right-limit-refinement\.params\.refinements"
                                              r": expected at least 1, got 0"):
            run_experiment("right-limit-refinement", {},
                           {"model": "noisy", "grid": "g8", "refinements": 0}, 3)

    def test_run_experiment_checks_list_entries(self):
        # each entry of a list parameter is a finite number, a boolean included
        with pytest.raises(ConfigError, match=r"metric-modulus\.params\.window_sizes\[0\]"
                                              r": expected a finite number, got true"):
            run_experiment("metric-modulus", {},
                           {"model": "noisy", "T": 1.0, "alpha": 0.5,
                            "window_sizes": [True, 0.5]}, 0)

    def test_default_config_is_valid(self):
        validate_config(default_config())

    def test_load_config_roundtrip(self, tmp_path):
        path = write_config(tmp_path, BASE)
        cfg = load_config(path)
        assert cfg["group"]["kind"] == "heisenberg"

    def test_read_config_parses_without_validating(self, tmp_path):
        cfg = {**BASE, "schema_version": 2}
        path = write_config(tmp_path, cfg)
        assert read_config(path) == cfg
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)
        path.write_text('{"schema_version": 1,,}')
        with pytest.raises(ConfigError) as exc:
            read_config(path)
        assert exc.value.path == f"{path}:1:22"

    @pytest.mark.parametrize("make, message", [
        (lambda tmp_path: tmp_path / "missing.json", "No such file or directory"),
        (lambda tmp_path: tmp_path, "Is a directory"),
        (latin1_config, "can't decode byte 0xe9"),
        # valid JSON syntax that json cannot turn into values
        (text_config("deep.json", "[" * 100_000 + "]" * 100_000),
         "maximum recursion depth exceeded"),
        (text_config("digits.json", '{"schema_version": ' + "9" * 5000 + "}"),
         "an integer has 5000 digits, above the limit of 4300"),
    ], ids=["missing", "directory", "not-utf8", "deep-nesting", "long-integer"])
    def test_unreadable_config_exits_two_at_its_path(self, tmp_path, capsys, make, message):
        path = make(tmp_path)
        with pytest.raises(ConfigError) as exc:
            read_config(path)
        assert exc.value.path == str(path) and message in str(exc.value)
        code = main(["run", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1
        # the message names the file's fault, not interpreter settings
        assert "sys." not in err
        assert not (tmp_path / "o").exists()


class TestArguments:
    @pytest.mark.parametrize("argv, argument", [
        (["run", "--default", "--jobs", "0"], "argument --jobs: expected a positive integer"),
        (["run", "--default", "--jobs", "-2"], "argument --jobs: expected a positive integer"),
        (["run", "CONFIG", "--default"], "argument --default: not allowed with argument config"),
        (["run"], "one of the arguments config --default is required"),
        (["list-experiments", "--module", "nosuch"], "argument --module: invalid choice"),
    ])
    def test_bad_arguments_exit_two_and_name_the_argument(self, tmp_path, capsys, monkeypatch,
                                                          argv, argument):
        started = []
        monkeypatch.setattr(cli, "_execute_entry", lambda *args: started.append(args))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *args, **kw: started.append(kw))
        argv = [str(write_config(tmp_path, BASE)) if a == "CONFIG" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argument in capsys.readouterr().err
        assert started == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_out_that_cannot_be_created_exits_two(self, tmp_path, capsys, monkeypatch, jobs):
        started = []
        monkeypatch.setattr(cli, "_execute_entry", lambda *args: started.append(args))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda *args, **kw: started.append(kw))
        taken = tmp_path / "taken"
        taken.write_text("")
        for out in (taken, taken / "sub"):
            code = main(["run", str(write_config(tmp_path, BASE)), "--out", str(out),
                         "--jobs", jobs])
            assert code == 2
            assert f"argument --out: cannot create {out}: " in capsys.readouterr().err
        assert started == []
        assert taken.read_text() == ""

    @pytest.mark.parametrize("jobs, entries, workers", [
        ("1000", 2, [2]), ("2", 1, [1]), ("2", 3, [2]), ("1", 2, [])])
    def test_pool_has_at_most_one_worker_per_entry(self, tmp_path, monkeypatch,
                                                   jobs, entries, workers):
        made = []

        class InProcessPool:
            """Records its ``max_workers`` and runs each submitted call in this process."""

            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        cfg = copy.deepcopy(BASE)
        cfg["experiments"] = [{"name": "group-axioms", "seed": i, "params": {"samples": 50}}
                              for i in range(entries)]
        out = tmp_path / "o"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out),
                     "--jobs", jobs]) == 0
        assert made == workers
        assert len(list(out.glob("0*_group-axioms.json"))) == entries

    def test_module_choices_come_from_the_catalog(self, capsys):
        with pytest.raises(SystemExit):
            main(["list-experiments", "--module", "nosuch"])
        err = capsys.readouterr().err
        assert all(e["module"] in err for e in catalog())


# each row that calls a battery whose report carries its own pass: the battery's
# module and its name there
BATTERY_ROWS = {
    "oscillation-axioms": (regularity, "oscillation_axioms_test"),
    "max-oscillation-bound": (regularity, "mc_maximum_oscillation"),
    "largest-step-bound": (regularity, "mc_largest_step"),
    "expectation-bound": (regularity, "mc_expectation_bound"),
    "poisson-battery": (jumps, "poisson_battery"),
    "step-triangle": (geometry, "step_triangle_test"),
    "exp-moment": (geometry, "exp_moment_estimate"),
    "tail-decay": (geometry, "tail_decay_fit"),
    "metric-modulus": (geometry, "metric_modulus_curve"),
}


class TestBatteryRows:
    @pytest.mark.parametrize("name", sorted(BATTERY_ROWS))
    def test_row_calls_the_battery_on_its_module(self, tmp_path, monkeypatch, name):
        # a wrapper installed on the module binding, such as a profiling span, sees the call
        module, attr = BATTERY_ROWS[name]
        calls = []

        def stub(*args):
            calls.append(args)
            return {"pass": True, "stub": name}

        monkeypatch.setattr(module, attr, stub)
        monkeypatch.chdir(tmp_path)
        ctx = validate_config(default_config())
        report = run_experiment(name, ctx, default_entry(name)["params"], 987654)
        assert report["stub"] == name and report["status"] == "pass"
        assert len(calls) == 1 and 987654 in calls[0]
        if name == "step-triangle":
            assert calls[0][0] is ctx["group"]
        if name == "poisson-battery":
            assert calls[0][2] == jumps.JumpSetSpec(0.05)
        if name in ("exp-moment", "tail-decay"):
            assert calls[0][1] == (0.25, 1.0)
        assert list(tmp_path.iterdir()) == []    # a row writes no file


HEIS_P2, HEIS_P3 = {"kind": "heisenberg", "N": 2, "p": 2.0}, {"kind": "heisenberg", "N": 2, "p": 3.0}
WINDOW = {"alpha": 0.5, "delta": 0.5}
# one entry per battery precondition that validation runs: (group, experiment, its
# params on joint_config, the field the check names); every _JOINT_BOUNDS row has one
JOINT_CASES = [
    (HEIS_P2, "cocycle-fault-injection", {"model": "noisy", "grid": "g8", "cell": 8},
     "params.cell"),
    (HEIS_P2, "oscillation-axioms", {"model": "noisy", "grid": "g1", "delta": 0.25},
     "params.grid"),
    (HEIS_P2, "poisson-battery", {"model": "scaled", "grid": "g8", "epsilon": 0.1},
     "params.model"),
    *((HEIS_P2, "restart-probe", {"model": "noisy", "grid": "g8", "epsilon": 0.1, "h": h},
       "params.h") for h in (1.0, 0.3)),
    *((HEIS_P2, name, {"model": "noisy", "r": 0.9, "u": u, "cells": cells, **WINDOW},
       "params.r") for name in ("exp-moment", "tail-decay") for u, cells in ((0.2, 64), (1.0, 4))),
    *((group, "metric-modulus", {"model": "noisy", "T": 1.0, "alpha": 0.5, "window_sizes": sizes,
                                 "cells": 8}, field)
      for group, sizes, field in ((HEIS_P3, [0.5], "params.model"),
                                  (HEIS_P2, [], "params.window_sizes"),
                                  (HEIS_P2, [0.5, 1.5], "params.window_sizes"),
                                  (HEIS_P2, [0.5, 0.01], "params.window_sizes"))),
    (HEIS_P3, "gauge-metric", {"samples": 10}, "name"),
    ({"kind": "unipotent", "n": 4}, "gauge-metric", {"samples": 10}, "name"),
    # a battery's own grid too large to allocate (8 TB), or for numpy to size at all
    *((HEIS_P2, name, {"model": "noisy", "r": 0.25, "u": 1.0, "cells": cells, **WINDOW},
       "params.cells") for name in ("exp-moment", "tail-decay") for cells in (10**12, 10**20)),
    (HEIS_P2, "metric-modulus", {"model": "noisy", "T": 1.0, "alpha": 0.5, "window_sizes": [0.5],
                                 "cells": 10**12}, "params.cells"),
    (HEIS_P2, "uniform-continuity-probe", {"model": "noisy", "T": 1.0, "delta": 0.5, "alpha": 0.1,
                                           "cells": 10**12}, "params.cells"),
]


def joint_config(group, entries):
    return {"schema_version": 1, "group": group,
            "grids": {"g8": {"T": 1.0, "cells": 8}, "g1": {"T": 1.0, "cells": 1}},
            "models": {"noisy": {"diffusion": 0.2},
                       "scaled": {"diffusion": 0.2,
                                  "scale": {"breaks": [0.0, 0.5], "rates": [1.0, 2.0]}}},
            "experiments": entries}


class TestJointChecks:
    @pytest.mark.parametrize("group, name, params, field", JOINT_CASES,
                             ids=[f"{name}-{field}" for _, name, _, field in JOINT_CASES])
    def test_validation_prints_the_battery_own_message(self, tmp_path, capsys, monkeypatch,
                                                       group, name, params, field):
        # validation exits 2 with the message of the battery's own check, and the
        # battery, called on the same values with validation's checks off, raises
        # that message before it draws a path
        cfg = joint_config(group, [{"name": name, "seed": 1, "params": params}])
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        prefix = f"config error: config.experiments[0].{field}: "
        assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1
        message = err[len(prefix):-1]

        def no_path(*args):
            raise AssertionError("a path was drawn before the check")

        for module in (experiments, jumps, geometry, regularity, multiplicative):
            for binding in ("driver_paths", "batch_prefixes"):
                if hasattr(module, binding):
                    monkeypatch.setattr(module, binding, no_path)
        ctx = validate_config(joint_config(group, [{"name": "group-axioms", "seed": 1}]))
        monkeypatch.setattr(experiments, "_checked", lambda *args: None)
        _, resolved = resolve_params(name, params, "params", ctx)
        # a ParameterError, or numpy refusing the battery's grid
        with pytest.raises((ValueError, MemoryError)) as exc:
            EXPERIMENTS[name].runner(ctx, resolved, 1)
        assert str(exc.value) == message

    def test_every_check_row_has_a_case(self):
        rows = {(name, f"params.{key}") for name, checks in experiments._JOINT_BOUNDS.items()
                for key, _ in checks}
        assert rows <= {(name, field) for _, name, _, field in JOINT_CASES}
        # a row calls a check of a battery module, never one of experiments
        for checks in experiments._JOINT_BOUNDS.values():
            for _, check in checks:
                assert not set(check.__code__.co_names) & set(vars(experiments)) - {
                    "geometry", "jumps", "multiplicative", "regularity", "TimeGrid"}


# a fresh interpreter with scipy blocked: the two KS helpers, then a small
# poisson-battery and restart-probe of the default battery's models
NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None     # every import of scipy now raises ImportError
import numpy as np
import liemult, liemult.cli
from liemult.config import build_context, default_config, validate_config
from liemult.experiments import run_experiment
from liemult.stats import batched_ks_exponential, batched_ks_two_sample
rng = np.random.default_rng(5)
a, b = rng.exponential(0.5, 120), rng.exponential(0.6, 130)
got = [batched_ks_exponential(a, 2.0)["batch_pvalues"],
       batched_ks_two_sample(a, b)["batch_pvalues"]]
cfg = default_config()
validate_config(cfg)
ctx = build_context(cfg)
jumps = {"model": "cp_poisson", "grid": "poisson", "epsilon": 0.05, "trials": 200}
status = [run_experiment("poisson-battery", ctx, jumps, 118)["status"],
          run_experiment("restart-probe", ctx, {**jumps, "h": 0.25}, 119)["status"]]
loaded = sorted(name for name, module in sys.modules.items()
                if name.split(".")[0] == "scipy" and module is not None)
print(json.dumps({"got": got, "status": status, "loaded": loaded}))
"""


def child_env() -> dict:
    """This environment with the repository's ``src`` first on PYTHONPATH, so a
    child interpreter imports the same liemult as the tests."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


class TestEntryPoint:
    def test_ks_batteries_run_without_scipy(self):
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY], capture_output=True,
                              text=True, check=True, env=child_env())
        result = json.loads(proc.stdout)
        assert result["loaded"] == []
        assert result["status"] == ["pass", "pass"]
        rng = np.random.default_rng(5)
        a, b = rng.exponential(0.5, 120), rng.exponential(0.6, 130)
        want = [[stats.kstest(x, "expon", args=(0.0, 0.5)).pvalue for x in np.array_split(a, 2)],
                [stats.ks_2samp(x, y).pvalue
                 for x, y in zip(np.array_split(a, 2), np.array_split(b, 2))]]
        np.testing.assert_allclose(result["got"], want, rtol=1e-10, atol=0)

    def test_module_invocation(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        proc = subprocess.run(
            [sys.executable, "-m", "liemult", "run", str(cfg_path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "pass" in proc.stdout

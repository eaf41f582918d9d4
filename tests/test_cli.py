"""Batch driver: catalog, exit codes, schema diagnostics, determinism."""

import copy
import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from liemult import cli
from liemult.cli import main
from liemult.config import default_config, load_config, validate_config
from liemult.errors import ConfigError
from liemult.experiments import EXPERIMENTS, catalog, run_experiment

NAN, INF = float("nan"), float("inf")    # written to a config as NaN and Infinity

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


# one experiment per CSV side output
CSV_CONFIG = {
    "schema_version": 1,
    "group": {"kind": "heisenberg", "N": 2, "p": 2.0},
    "grids": {"g16": {"T": 1.0, "cells": 16}, "g128": {"T": 1.0, "cells": 128}},
    "models": {
        "brownian_mild": {"diffusion": 0.11},
        "cp_detector": {"diffusion": 0.15, "jump_intensity": 3.0,
                        "jump_law": {"kind": "fixed_atom", "vector": [0.6, 0.0, 0.0, 0.0, 0.0]}},
        "tail_model": {"jump_intensity": 2.0, "bound_delta": 0.4,
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
    "output": {"csv": True},
}
CSV_DIGESTS = {
    "00_detector-fidelity.json":
        "d0b8f80bd90941c4e6bb0cce7f8f8330d4cf62bb210bd2ebad5a617f5ed33f7e",
    "00_detector-fidelity/hitting_times.csv":
        "4f575dcbeeba469f13ffa11255fe3152eb50e71b4f9f727af4f02801dc045272",
    "01_product-limit-convergence.json":
        "7b4869de9bea6288f939bd37aa11152df6f37326c8085fa1599a41e88a822cae",
    "01_product-limit-convergence/convergence.csv":
        "3671b3f8d42f09cb5f96fe3710e56e86f07eb6d0b573668777b70d8c486d4049",
    "02_expectation-bound.json":
        "c5e181e71e248f3d630abe1f8b68a9f66cabe276dde6b78c989017cb9ebb379b",
    "02_expectation-bound/oscillation_counts.csv":
        "54dd6fd55a27f1c8f3057e1aec926688549d0cdbc9ddc20798a67226bc155f33",
    "03_tail-decay.json":
        "56acdd2cc5674ef26e1757ea86703bc07dadb94baac14f825e5d04ef8d673b68",
    "03_tail-decay/tail_decay.csv":
        "4b5157a1ce11634f1be7a71f423fc82ef12b6f213d0a93b94b8a93af5bc7f98b",
    "summary.json": "b1efb2544372eafba702e53b07f15ad9a4127f6f633201f8c9c52314a71315be",
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


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
        (["list-experiments", "--json"],
         "8c69b60f9e2b8544086943deaf2abda178a561cdedbcf23c329e4d4da1ad5f2d"),
    ])
    def test_catalog_output_pinned(self, capsys, argv, digest):
        # a change to a name, description, module or parameter default of the
        # catalog updates this digest and declares the change
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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

    def test_csv_side_outputs_pinned(self, tmp_path):
        # every file of a small run with CSV side outputs, one per CSV writer;
        # the default battery writes none of them
        out = tmp_path / "out"
        code = main(["run", str(write_config(tmp_path, CSV_CONFIG)), "--out", str(out)])
        assert code == 0
        digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.rglob("*") if p.is_file()}
        assert digests == CSV_DIGESTS

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
            "group": {"kind": "heisenberg", "N": 2, "p": 3.0},   # gauge needs p = 2
            "grids": {},
            "models": {"still": {}},
            "experiments": [{"name": "metric-modulus", "seed": 1,
                             "params": {"model": "still", "T": 1.0, "alpha": 0.5,
                                        "window_sizes": [0.25], "trials": 5,
                                        "cells": 16}}],
        }
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "metric-modulus" in capsys.readouterr().err

    def test_runtime_error_keeps_other_reports(self, tmp_path, capsys):
        cfg = dict(BASE)
        cfg["grids"] = {"g64": {"T": 5.0, "cells": 64}}
        cfg["models"] = {"cp_nonstat": {"jump_intensity": 2.0,
                                        "jump_law": {"kind": "uniform_ball", "radius": 0.4},
                                        "scale": {"breaks": [0.0, 2.5], "rates": [0.1, 6.0]}}}
        cfg["experiments"] = [
            {"name": "group-axioms", "seed": 1, "params": {"samples": 200}},
            {"name": "poisson-battery", "seed": 2,
             "params": {"model": "cp_nonstat", "grid": "g64", "epsilon": 0.05, "trials": 10}},
        ]
        cfg_path = write_config(tmp_path, cfg)
        for out, jobs in (("a", "1"), ("b", "2")):
            assert main(["run", str(cfg_path), "--out", str(tmp_path / out), "--jobs", jobs]) == 3
            err = capsys.readouterr().err
            assert "runtime error in experiment 01 poisson-battery (seed 2)" in err
            assert "Traceback (most recent call last)" in err
            assert "requires a stationary model" in err
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == ["00_group-axioms.json", "01_poisson-battery.json", "summary.json"]
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert json.loads((tmp_path / "a" / "01_poisson-battery.json").read_text()) == {
            "experiment": "poisson-battery", "seed": 2, "status": "error", "schema_version": 1,
            "error": "ParameterError: the Poisson battery requires a stationary model",
        }
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["counts"] == {"pass": 1, "fail": 0, "inconclusive": 0, "error": 1}
        assert [row["status"] for row in summary["experiments"]] == ["pass", "error"]

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

    def test_csv_outputs_written(self, tmp_path):
        cfg = dict(BASE)
        cfg["models"] = {"tail": {"jump_intensity": 2.0,
                                  "jump_law": {"kind": "fixed_atom",
                                               "vector": [0.4, 0.0, 0.0, 0.0, 0.0]},
                                  "bound_delta": 0.4}}
        cfg["experiments"] = [
            {"name": "tail-decay", "seed": 9,
             "params": {"model": "tail", "r": 0.25, "u": 1.0, "alpha": 0.5,
                        "delta": 0.5, "trials": 300, "cells": 32}},
        ]
        cfg["output"] = {"csv": True}
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) in (0,)
        csv_path = out / "00_tail-decay" / "tail_decay.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "k,gamma,exceedances,p_hat,se"
        assert len(lines) == 6

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
         "config.experiments[2].params.max_points", "at least 2"),
        # bounds that depend on the referenced grid
        (lambda cfg: cfg["experiments"].append(
            {"name": "cocycle-fault-injection", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "cell": 8}}),
         "config.experiments[2].params.cell", "below n_cells, got 8 with n_cells = 8"),
        (lambda cfg: (cfg["grids"].update(g1={"T": 1.0, "cells": 1}),
                      cfg["experiments"].append(
                          {"name": "oscillation-axioms", "seed": 3,
                           "params": {"model": "noisy", "grid": "g1", "delta": 0.25}})),
         "config.experiments[2].params.grid", "at least 2 cells, got 'g1' with n_cells = 1"),
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
         "config.experiments[2].params.delta", "a value in (0, inf), got -0.5"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "chart-certification", "seed": 3, "params": {"delta": -0.1}}),
         "config.experiments[2].params.delta", "a value in (0, inf), got -0.1"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "restart-probe", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "epsilon": 0.1, "h": 0.0}}),
         "config.experiments[2].params.h", "a value in (0, inf), got 0.0"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "detector-fidelity", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "epsilon": -1.0}}),
         "config.experiments[2].params.epsilon", "a value in (0, inf), got -1.0"),
        # bounds between parameters or on the grid
        (lambda cfg: cfg["experiments"].append(
            {"name": "restart-probe", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "epsilon": 0.1, "h": 1.0}}),
         "config.experiments[2].params.h", "a lag below T, got 1.0 with n_cells = 8, T = 1.0"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "metric-modulus", "seed": 3,
             "params": {"model": "noisy", "T": 1.0, "alpha": 0.5, "window_sizes": []}}),
         "config.experiments[2].params.window_sizes",
         "a nonempty list of sizes in (0, T], got []"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "exp-moment", "seed": 3,
             "params": {"model": "noisy", "r": 0.9, "u": 0.2, "alpha": 0.5, "delta": 0.5}}),
         "config.experiments[2].params.r", "a window start below u, got 0.9"),
        # windows and lags counted on the battery's grid
        (lambda cfg: cfg["experiments"].append(
            {"name": "exp-moment", "seed": 3,
             "params": {"model": "noisy", "r": 0.9, "u": 1.0, "alpha": 0.5, "delta": 0.5,
                        "cells": 4}}),
         "config.experiments[2].params.r", "two grid points in (r, u), got 0.9"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "tail-decay", "seed": 3,
             "params": {"model": "noisy", "r": 0.9, "u": 1.0, "alpha": 0.5, "delta": 0.5,
                        "cells": 4}}),
         "config.experiments[2].params.r", "two grid points in (r, u), got 0.9"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "metric-modulus", "seed": 3,
             "params": {"model": "noisy", "T": 1.0, "alpha": 0.5, "window_sizes": [0.01],
                        "cells": 8}}),
         "config.experiments[2].params.window_sizes",
         "sizes whose windows hold two grid points, got [0.01]"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "restart-probe", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "epsilon": 0.1, "h": 0.3}}),
         "config.experiments[2].params.h",
         "a multiple of the mesh, got 0.3 with n_cells = 8, T = 1.0"),
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
        (lambda cfg: cfg["models"]["noisy"].update(bound_delta=NAN),
         "config.models.noisy", "bound_delta"),
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
        (lambda cfg: cfg["experiments"].append(
            {"name": "cocycle-exactness", "seed": 3,
             "params": {"model": "noisy", "grid": "g8", "tol": NAN}}),
         "config.experiments[2].params.tol", "expected a finite number, got nan"),
        (lambda cfg: cfg["experiments"].append(
            {"name": "exp-moment", "seed": 3,
             "params": {"model": "noisy", "r": 0.25, "u": 1.0, "alpha": INF, "delta": 0.5}}),
         "config.experiments[2].params.alpha", "expected a finite number, got inf"),
    ])
    def test_constructor_rejections_exit_two_with_field_path(self, tmp_path, capsys,
                                                             edit, path, field):
        cfg = copy.deepcopy(BASE)
        edit(cfg)
        code = main(["run", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: " in err and field in err

    def test_run_experiment_checks_ranges_before_running(self):
        # the range check also guards direct calls, before any reference lookup
        with pytest.raises(ConfigError, match=r"right-limit-refinement\.params\.refinements"
                                              r": expected at least 1, got 0"):
            run_experiment("right-limit-refinement", {},
                           {"model": "noisy", "grid": "g8", "refinements": 0}, 3)

    def test_default_config_is_valid(self):
        validate_config(default_config())

    def test_load_config_roundtrip(self, tmp_path):
        path = write_config(tmp_path, BASE)
        cfg = load_config(path)
        assert cfg["group"]["kind"] == "heisenberg"


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

    def test_module_choices_come_from_the_catalog(self, capsys):
        with pytest.raises(SystemExit):
            main(["list-experiments", "--module", "nosuch"])
        err = capsys.readouterr().err
        assert all(e["module"] in err for e in catalog())


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        proc = subprocess.run(
            [sys.executable, "-m", "liemult", "run", str(cfg_path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "pass" in proc.stdout

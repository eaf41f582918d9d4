"""Batch driver: catalog, exit codes, schema diagnostics, determinism."""

import copy
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from liemult.cli import main
from liemult.config import default_config, load_config, validate_config
from liemult.errors import ConfigError
from liemult.experiments import EXPERIMENTS, catalog, run_experiment

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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE)
        proc = subprocess.run(
            [sys.executable, "-m", "liemult", "run", str(cfg_path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "pass" in proc.stdout

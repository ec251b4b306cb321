"""The scripts under `scripts/`, each run once through its `main`: the README's
command sequence as `synthetic_end_to_end.py` runs it (synth, featurize,
train, evaluate and plot through the public CLI), and the per-layer benchmark
`bench_layers.py` at a small input size, with its boosted trees at their
reference shape and its bundle load and feature pass at that small size (the
feature pass's short trial is always 8 x 256 samples), and the per-verb
figures of `verb_rusage.py` on a small copy of a benchmark workload and, in
fresh processes, on a benchmark workload itself.  `measure.py`, the one
measuring path of the bench scripts, is checked on its own too."""

import dataclasses
import json
import os
import runpy
import sys
from pathlib import Path

import pytest

from eegspeech import networks

from conftest import workers

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "synthetic_end_to_end.py"


def test_synthetic_end_to_end_replays_train(tmp_path, monkeypatch):
    script = runpy.run_path(str(SCRIPT))
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--workdir", str(tmp_path),
                                      "--n-trials", "30", "--epochs", "1"])
    assert script["main"]() == 0
    for task in ("uw", "nasal"):
        assert (tmp_path / "replay" / task / "predictions.csv").read_bytes() == \
               (tmp_path / "models" / task / "predictions.csv").read_bytes()
    assert (tmp_path / "features" / "features.tensors").is_file()
    assert (tmp_path / "plots" / "metrics.svg").is_file()


BENCH_LAYERS = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"


def test_bench_layers_writes_every_layer_time(tmp_path, monkeypatch):
    script = runpy.run_path(str(BENCH_LAYERS))
    out = tmp_path / "layers.json"
    monkeypatch.setattr(sys, "argv", [str(BENCH_LAYERS), "--out", str(out), "--size", "8",
                                      "--batch", "4", "--repeats", "1"])
    assert script["main"]() == 0
    result = json.loads(out.read_text())
    assert set(result) == {"input_size", "batch", "repeats", "env", "layers", "adam_step",
                           "trees", "cnn_train_step", "bundle_load", "feature_pass"}
    assert set(result["layers"]) == {"cnn.layer0.conv2d", "cnn.layer2.conv2d",
                                     "cnn.layer6.dense", "lstm.layer0.lstm",
                                     "lstm.layer1.lstm"}
    assert result["layers"]["cnn.layer6.dense"]["weights"] == [64, 64 * 4 * 4]
    for entry in result["layers"].values():
        assert entry["forward_s"] > 0 and entry["backward_s"] > 0
    cnn_params = sum(t.size for _, t in networks.build_cnn_model(8).net.parameters())
    adam = result["adam_step"]
    assert set(adam) == {"params", "first_s", "warm_s", "warm_runs"}
    assert adam["params"] == cnn_params
    assert adam["first_s"] > 0 and adam["warm_s"] > 0
    assert len(adam["warm_runs"]) == 1
    trees = result["trees"]
    assert (trees["rows"], trees["features"], trees["trees"]) == (1500, 32, 3)
    assert trees["nodes"] >= 3 * 3  # every tree splits at least once
    assert trees["fit_s_per_tree"] > 0 and trees["predict_s_per_tree"] > 0
    assert len(trees["fit_runs"]) == len(trees["predict_runs"]) == 1
    assert result["env"]["workers"] == len(os.sched_getaffinity(0))
    step = result["cnn_train_step"]
    assert set(step) == {"batch", "one_cpu", "all_cpus"}
    assert step["batch"] == 4
    assert step["one_cpu"]["workers"] == 1
    assert step["all_cpus"]["workers"] == result["env"]["workers"]
    for run in (step["one_cpu"], step["all_cpus"]):
        assert set(run) == {"s", "utime_s", "stime_s", "minflt", "workers", "peak_rss_mb",
                            "held_mb", "grad_mb"}
        # the kernel splits CPU time between user and system by tick, so
        # either part of a short step can read 0, but not their sum
        assert run["s"] > 0 and run["utime_s"] >= 0 and run["stime_s"] >= 0
        assert run["utime_s"] + run["stime_s"] > 0
        assert run["minflt"] >= 0
        assert run["peak_rss_mb"] > 0
        assert run["held_mb"] == 0
        assert run["grad_mb"] == 0
    load = result["bundle_load"]
    assert set(load) == {"params", "archive_mb", "first_s", "warm_s", "warm_runs",
                         "first_forward_s", "warm_forward_s", "runs", "peak_rss_mb"}
    assert load["params"] == cnn_params + sum(
        t.size for model in (networks.build_lstm_model(8),
                             networks.build_dae_model(networks.FUSED_DIM))
        for _, t in model.net.parameters())
    assert load["archive_mb"] > 8 * load["params"] / 2**20
    assert load["first_s"] > 0 and load["warm_s"] > 0 and load["peak_rss_mb"] > 0
    assert len(load["warm_runs"]) == 1
    assert load["first_forward_s"] > 0 and load["warm_forward_s"] > 0
    assert len(load["runs"]) == 2 and load["runs"][0]["load_s"] == load["first_s"]
    assert [run["load_s"] for run in load["runs"][1:]] == load["warm_runs"]
    for run in load["runs"]:
        assert set(run) == {f"{part}_{key}" for part in ("load", "forward")
                            for key in ("s", "utime_s", "stime_s", "minflt")}
        assert run["load_s"] > 0 and run["forward_s"] > 0
        assert min(run[f"{part}_{key}"] for part in ("load", "forward")
                   for key in ("utime_s", "stime_s", "minflt")) >= 0
    passes = result["feature_pass"]
    assert set(passes) == {"reference", "short"}
    assert [(e["channels"], e["times"], e["rate_hz"]) for e in passes.values()] == \
           [(8, 5000, 1000.0), (8, 256, 128.0)]
    for entry in passes.values():
        assert set(entry) == {"channels", "times", "rate_hz", "first_s", "first_minflt",
                              "warm_s", "warm_minflt", "warm_runs", "warm_minflt_runs"}
        assert entry["first_s"] > 0 and entry["warm_s"] > 0
        assert entry["first_minflt"] >= 0 and entry["warm_minflt"] >= 0
        assert len(entry["warm_runs"]) == len(entry["warm_minflt_runs"]) == \
               script["FEATURE_TRIALS"]


VERB_RUSAGE = Path(__file__).resolve().parents[1] / "scripts" / "verb_rusage.py"


def test_verb_rusage_reports_each_verb(tmp_path):
    script = runpy.run_path(str(VERB_RUSAGE))
    small = dataclasses.replace(
        script["WORKLOADS"]["noise_trees"],
        synth={"n_trials": 24, "n_channels": 6, "n_subjects": 2, "n_times": 64},
        config={"tasks": ["uw"], "covariance": {"input_size": 6},
                **{net: {"epochs": 0} for net in ("cnn", "lstm", "dae")},
                "gbt": {"n_estimators": 2}})
    with workers(2):  # crossval's two folds train in children
        result = script["run_verbs"](small, 3, tmp_path)
    assert list(result) == ["synth", "crossval", "evaluate"]
    for figures in result.values():
        assert set(figures) == set(script["FIELDS"])
        assert figures["wall_s"] > 0 and figures["minflt"] >= 0
        assert figures["utime_s"] >= 0 and figures["stime_s"] >= 0
        assert figures["peak_rss_mb"] > 0
        assert figures["children_minflt"] >= 0
        assert figures["children_utime_s"] >= 0 and figures["children_stime_s"] >= 0
    crossval = result["crossval"]
    assert crossval["children_utime_s"] + crossval["children_stime_s"] > 0
    assert crossval["children_minflt"] > 0 and crossval["children_peak_rss_mb"] > 0
    # synth and evaluate start no child
    for verb in ("synth", "evaluate"):
        assert result[verb]["children_utime_s"] == result[verb]["children_minflt"] == 0
    assert (tmp_path / "replay" / "uw" / "predictions.csv").read_bytes() == \
           (tmp_path / "out" / "uw" / "predictions.csv").read_bytes()


def test_verb_rusage_main_merges_the_medians_of_fresh_processes(tmp_path, monkeypatch):
    script = runpy.run_path(str(VERB_RUSAGE))
    record = tmp_path / "BENCH_x.json"
    record.write_text(json.dumps({"wall_s": 1.0}))
    monkeypatch.setattr(sys, "argv", [str(VERB_RUSAGE), "--workload", "noise_trees",
                                      "--seed", "1", "--runs", "1", "--merge", str(record)])
    assert script["main"]() == 0
    merged = json.loads(record.read_text())
    assert merged["wall_s"] == 1.0
    rusage = merged["rusage"]
    assert (rusage["workload"], rusage["seed"], len(rusage["runs"])) == ("noise_trees", 1, 1)
    assert list(rusage["medians"]) == ["synth", "crossval", "evaluate"]
    for figures in rusage["medians"].values():
        assert set(figures) == set(script["FIELDS"])
        assert figures["wall_s"] > 0 and figures["peak_rss_mb"] > 0


def test_verb_rusage_main_reports_a_failing_child(monkeypatch, capsys):
    script = runpy.run_path(str(VERB_RUSAGE))
    monkeypatch.setattr(sys, "argv", [str(VERB_RUSAGE), "--workload", "noise_trees",
                                      "--seed", "-1", "--runs", "1"])
    with pytest.raises(SystemExit) as exit_:
        script["main"]()
    assert exit_.value.code == 1
    assert "config error" in capsys.readouterr().err


MEASURE = Path(__file__).resolve().parents[1] / "scripts" / "measure.py"


def test_measured_returns_the_value_and_four_figures_under_a_prefix():
    measure = runpy.run_path(str(MEASURE))
    value, figures = measure["measured"](lambda: sum(range(10**5)), prefix="load_")
    assert value == sum(range(10**5))
    assert set(figures) == {"load_s", "load_utime_s", "load_stime_s", "load_minflt"}
    assert figures["load_s"] > 0 and min(figures.values()) >= 0


def test_a_failing_fresh_process_prints_its_stderr_and_exits_1(tmp_path, capsys):
    measure = runpy.run_path(str(MEASURE))
    child = tmp_path / "child.py"
    child.write_text("import sys\n"
                     "if sys.argv[1] == '--child':\n"
                     "    raise ValueError('child failed on ' + sys.argv[2])\n")
    with pytest.raises(SystemExit) as exit_:
        measure["in_fresh_process"](child, "its argument")
    assert exit_.value.code == 1
    assert "ValueError: child failed on its argument" in capsys.readouterr().err

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from evoadapt.benchmarks import registry_list
from evoadapt import cli
from evoadapt.cli import main
from evoadapt.cmaes import StateNotFinite
from evoadapt.config import (ConfigError, config_from_dict, config_to_dict,
                             load_config)
from evoadapt.envloop import FixedSigmaController
from evoadapt.observe import ObservationSpec
from evoadapt.policy import PolicyNet, save_checkpoint

from conftest import assert_no_child_left, poison_policy_gradient

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def base_config(tmp_path, **overrides):
    """Small training setup: 49-step episodes, 4 episodes per rollout."""
    doc = {
        "algorithm": "de",
        "action": "de_uniform",
        "training": {"mode": "single", "function": "Sphere", "dimension": 10,
                     "episodes": 8, "retries": 3},
        "ppo": {"horizon": 196, "minibatch": 196, "epochs": 2, "hidden": [4],
                "optimizer": "adam", "learning_rate": 1e-3, "checkpoint_every": 1},
        "seed": 1,
        "out": str(tmp_path / "run"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


def test_list_functions_prints_registry(capsys):
    assert main(["list-functions"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 46
    assert lines == [f"{name},{dim}" for name, dim in registry_list()]


class TestTrain:
    def test_smoke_run_writes_artifacts(self, tmp_path):
        cfg_path, doc = base_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        assert (out / "checkpoint.json").exists()
        assert (out / "config.json").exists()
        log = (out / "training_log.csv").read_text().strip().splitlines()
        # floor(8 episodes * 49 steps / horizon 196) = 2 iterations
        assert log[0] == "iteration,episodes_done,mean_return,policy_loss,value_loss,entropy"
        assert len(log) == 3
        episodes = (out / "episodes.csv").read_text().strip().splitlines()
        assert episodes[0] == "episode,function,dimension"
        assert len(episodes) == 9
        assert all(line.endswith(",Sphere,10") for line in episodes[1:])
        assert "attempt 1 seed 1 ok" in (out / "attempts.log").read_text()
        # checkpoint_every=1 also leaves per-iteration snapshots
        assert (out / "checkpoint_iter0.json").exists()

    def test_multi_mode_logs_sampled_function_identities(self, tmp_path):
        cfg_path, _ = base_config(tmp_path, training={"mode": "multi", "episodes": 8,
                                                      "retries": 0})
        assert main(["train", "--config", str(cfg_path)]) == 0
        rows = (tmp_path / "run" / "episodes.csv").read_text().strip().splitlines()[1:]
        registry = set(registry_list())
        seen = set()
        for row in rows:
            _, name, dim = row.split(",")
            assert (name, int(dim)) in registry
            seen.add((name, int(dim)))
        assert len(seen) > 1  # 8 draws from 46 functions repeat one only rarely

    def test_instability_triggers_retry_with_next_seed(self, tmp_path, nan_gradient_once):
        ppo = {"horizon": 196, "minibatch": 196, "epochs": 2, "hidden": [4],
               "optimizer": "adam", "learning_rate": 1e-3}
        cfg_path, _ = base_config(tmp_path, ppo=ppo)
        assert main(["train", "--config", str(cfg_path)]) == 0
        log = (tmp_path / "run" / "attempts.log").read_text()
        assert "attempt 1 seed 1 unstable" in log
        assert "attempt 2 seed 2 ok" in log
        assert (tmp_path / "run" / "checkpoint.json").exists()

    @pytest.mark.parametrize("poisoned_step,rows", [(0, 0), (2, 1)])
    def test_unstable_attempt_keeps_its_finished_iterations(self, tmp_path, monkeypatch,
                                                            poisoned_step, rows):
        """Two policy gradient steps per iteration: a NaN at the first update
        leaves a header-only log, one at the second keeps iteration 0's row."""
        poison_policy_gradient(monkeypatch, poisoned_step)
        cfg_path, _ = base_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "run"
        assert f"attempt 1 seed 1 unstable: non-finite weights at iteration {rows}" in \
            (out / "attempts.log").read_text()
        log = (out / "training_log_attempt1.csv").read_text().strip().splitlines()
        assert log[0] == "iteration,episodes_done,mean_return,policy_loss,value_loss,entropy"
        assert [line.split(",")[0] for line in log[1:]] == [str(i) for i in range(rows)]

    def test_exhausted_retries_exit_unstable(self, tmp_path, capsys, nan_gradient_once):
        ppo = {"horizon": 196, "minibatch": 196, "epochs": 2, "hidden": [4]}
        cfg_path, _ = base_config(tmp_path, ppo=ppo,
                                  training={"mode": "single", "function": "Sphere",
                                            "dimension": 10, "episodes": 8, "retries": 0})
        assert main(["train", "--config", str(cfg_path)]) == 3
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    def test_bad_config_exits_with_config_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"algorithm": "de", "action": "cma_sigma"}))
        assert main(["train", "--config", str(path)]) == 2
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == 2

    def test_outputs_do_not_depend_on_openblas_threads(self, tmp_path):
        # both PPO learners call BLAS at once, each in its own process; the
        # default sizes put the minibatch products past OpenBLAS's threading
        # threshold
        ppo = {"horizon": 490, "minibatch": 128, "epochs": 4}
        outputs = []
        for threads in ("1", None):
            work = tmp_path / f"threads-{threads or 'default'}"
            work.mkdir()
            cfg_path, _ = base_config(work, ppo=ppo,
                                      training={"mode": "multi", "episodes": 10})
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
            subprocess.run([sys.executable, "-m", "evoadapt.cli", "train", "--config",
                            str(cfg_path)], env=env, check=True)
            outputs.append([(work / "run" / name).read_bytes()
                            for name in ("checkpoint.json", "training_log.csv")])
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command,overrides,flags,cause", [
    ("train", {"action": "de_bogus"}, [], "de_bogus"),
    ("train", {"training": {"mode": "single", "function": "NoSuch", "dimension": 10}}, [],
     "NoSuch"),
    ("train", {"ppo": {"optimizer": "rmsprop"}}, [], "rmsprop"),
    ("evaluate", {}, ["--checkpoint", "{tmp}/absent.json"], "absent.json"),
    ("evaluate", {}, ["--adaptation", "fixed", "--runs", "0"], "--runs"),
    ("compare", {}, ["--checkpoint", "{tmp}/absent.json", "--runs", "-1"], "--runs"),
    ("evaluate", {}, ["--adaptation", "jde", "--jobs", "0"], "--jobs"),
    ("train", {"ppo": {"horizon": 100, "minibatch": 0}}, [], "minibatch must be at least 1"),
    ("train", {"ppo": {"horizon": 100, "minibatch": -5}}, [], "minibatch must be at least 1"),
    ("train", {"ppo": {"horizon": 0, "minibatch": 0}}, [], "horizon must be at least 1"),
    ("train", {"ppo": {"horizon": 36, "minibatch": 36, "epochs": 0}}, [],
     "epochs must be at least 1"),
    ("train", {"training": {"mode": "single", "function": "Sphere", "dimension": 10,
                            "episodes": 3}}, [], "x 49 = 147 steps fill no ppo.horizon of 196"),
    ("train", {"ppo": {"horizon": 36, "minibatch": 36, "epochs": 2, "checkpoint_every": 0}},
     [], "checkpoint_every must be at least 1"),
    ("train", {"ppo": {"horizon": 36, "minibatch": 36, "epochs": 2, "hidden": [0]}}, [],
     "hidden must be at least 1"),
    ("train", {"algorithm": "cmaes"}, [], "'de_uniform' steers de, not cmaes"),
    ("train", {"training": {"mode": "mutli"}}, [], "unknown training.mode 'mutli'"),
    ("train", {"observation": {"history_length": -3}}, [],
     "history_length must be a non-negative integer, got -3"),
    ("train", {"observation": {"history_length": "x"}}, [],
     "history_length must be of type int, got 'x'"),
    ("train", {"seed": "1"}, [], "seed must be of type int, got '1'"),
    ("train", {"training": {"episodes": "8"}}, [], "episodes must be of type int, got '8'"),
    ("train", {"training": {"mode": "single", "function": "Sphere", "dimension": 10,
                            "episodes": 8, "retries": -3}}, [],
     "training.retries must not be negative, got -3"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "clip": "0.3"}}, [],
     "clip must be of type float, got '0.3'"),
    ("compare", {}, ["--checkpoint", "{tmp}/absent.json", "--function", "sphere:10"],
     "function Sphere:10 is given twice (--function Sphere:10)"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "grad_clip": 0.0}}, [],
     "grad_clip must be positive, got 0.0"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "grad_clip": -1.0}}, [],
     "grad_clip must be positive, got -1.0"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "clip": -0.2}}, [],
     "clip must be positive, got -0.2"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "gamma": 1.5}}, [],
     "gamma must be in [0, 1], got 1.5"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "gamma": -0.1}}, [],
     "gamma must be in [0, 1], got -0.1"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "gae_lambda": 1.01}}, [],
     "gae_lambda must be in [0, 1], got 1.01"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "gae_lambda": -1.0}}, [],
     "gae_lambda must be in [0, 1], got -1.0"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "value_coef": -0.5}}, [],
     "value_coef must not be negative, got -0.5"),
    ("train", {"training": {"mode": "single", "function": 5, "dimension": 10}}, [],
     "function must be of type str | None, got 5"),
    ("train", {"training": {"mode": "single", "function": "Sphere", "dimension": 10.5}}, [],
     "dimension must be of type int | None, got 10.5"),
    ("train", {"training": {"mode": "single", "function": "Sphere", "dimension": True}}, [],
     "dimension must be of type int | None, got True"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "hidden": [50.5]}}, [],
     "hidden must be of type list of int, got [50.5]"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "hidden": [True]}}, [],
     "hidden must be of type list of int, got [True]"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "hidden": 50}}, [],
     "hidden must be of type list of int, got 50"),
    ("train", {"seed": -1}, [], "seed must not be negative, got -1"),
    ("train", {}, ["--seed", "-1"], "--seed must not be negative, got -1"),
    ("evaluate", {}, ["--adaptation", "fixed", "--seed", "-1"],
     "--seed must not be negative, got -1"),
    ("compare", {}, ["--checkpoint", "{tmp}/absent.json", "--seed", "-1"],
     "--seed must not be negative, got -1"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "learning_rate": math.nan}}, [],
     "learning_rate must be of type float, got nan"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "value_coef": math.inf}}, [],
     "value_coef must be of type float, got inf"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "clip": math.inf}}, [],
     "clip must be of type float, got inf"),
    ("train", {"ppo": {"horizon": 196, "minibatch": 196, "grad_clip": math.inf}}, [],
     "grad_clip must be of type float, got inf"),
], ids=["unknown-action", "unknown-training-function", "unknown-optimizer",
        "missing-checkpoint", "no-runs", "compare-negative-runs", "no-jobs", "minibatch-zero",
        "minibatch-negative", "horizon-zero", "epochs-zero", "budget-fills-no-horizon",
        "checkpoint-every-zero", "hidden-zero", "cmaes-with-de-action", "training-mode-unknown",
        "history-length-negative", "history-length-not-int", "seed-not-int",
        "episodes-not-int", "retries-negative", "clip-not-float", "compare-function-twice",
        "grad-clip-zero", "grad-clip-negative", "clip-negative", "gamma-above-one",
        "gamma-negative", "gae-lambda-above-one", "gae-lambda-negative",
        "value-coef-negative", "function-not-str", "dimension-not-int", "dimension-bool",
        "hidden-float-width", "hidden-bool-width", "hidden-not-list", "seed-negative",
        "train-seed-flag-negative", "evaluate-seed-flag-negative",
        "compare-seed-flag-negative", "learning-rate-nan", "value-coef-infinite",
        "clip-infinite", "grad-clip-infinite"])
def test_user_input_errors_exit_with_config_code(tmp_path, capsys, command, overrides, flags,
                                                 cause):
    cfg_path, _ = base_config(tmp_path, **overrides)
    if command == "train":
        argv = ["train", "--config", str(cfg_path)] + flags
    else:
        argv = [command] + [f.format(tmp=tmp_path) for f in flags] + [
            "--out", str(tmp_path / "x")]
        argv += (["--function", "Sphere", "--dimension", "10"] if command == "evaluate"
                 else ["--function", "Sphere:10"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    [command, flag, value]
    for command in ("evaluate", "compare")
    for flag, value in (("--sigma0", "0.5"), ("--fixed-f", "0.5"), ("--fixed-cr", "0.9"),
                        ("--fixed-sigma", "0.5"))
] + [
    ["compare", "--algorithm", "de"],
    ["evaluate", "--checkpoint", "ck.json", "--fixed-f", "1.9"],
], ids=" ".join)
def test_deleted_flags_are_refused(tmp_path, capsys, argv):
    """The protocol shape and the fixed baselines' values are constants, and a
    compare's engine is the one its checkpoints steer: argparse rejects the
    flags that once set them."""
    required = ["--function", "Sphere", "--dimension", "10"] if argv[0] == "evaluate" else []
    with pytest.raises(SystemExit) as exc:
        main(argv + required + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_readme_names_only_registered_flags():
    """Every `--flag` README.md names, less those of its `pip install` and
    `perfbench/run.py` commands, is an option of some `evoadapt` subcommand."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = re.sub(r"(pip install|perfbench/run\.py)[^`\n]*", "", fh.read())
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    registered = {option for parser in subparsers.choices.values()
                  for action in parser._actions for option in action.option_strings}
    assert set(re.findall(r"--[a-z][a-z0-9-]*", text)) - registered == set()


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_wrong_input_size_checkpoint_exits_config(tmp_path, capsys, command):
    """A policy whose input size is not its observation length (44 for the
    default spec and 4 actions) is rejected on loading, before any run."""
    path = tmp_path / "de_uniform.json"
    save_checkpoint(path, PolicyNet(7, 4), "de_uniform", ObservationSpec())
    out = tmp_path / "x"
    argv = [command, "--checkpoint", str(path), "--runs", "2", "--out", str(out)]
    argv += (["--function", "Sphere", "--dimension", "10"] if command == "evaluate"
             else ["--function", "Sphere:10"])
    assert main(argv) == 2
    assert "input size 7 does not match the observation length 44" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("history_length,inputs", [(-3, 1), ("x", 44)])
def test_bad_history_length_checkpoint_exits_config(tmp_path, capsys, history_length, inputs):
    """A history length of -3 gives the observation length -3 + 4 = 1, which a
    1-input net matches; the spec itself is rejected on loading."""
    path = tmp_path / "de_uniform.json"
    save_checkpoint(path, PolicyNet(inputs, 4), "de_uniform", ObservationSpec())
    doc = json.loads(path.read_text())
    doc["observation"]["history_length"] = history_length
    path.write_text(json.dumps(doc))
    out = tmp_path / "x"
    assert main(["evaluate", "--checkpoint", str(path), "--function", "Sphere", "--dimension",
                 "10", "--runs", "2", "--out", str(out)]) == 2
    assert (f"history_length must be a non-negative integer, got {history_length!r}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "compare"])
@pytest.mark.parametrize("where,name,number", [
    (("layers", 0, "weights", 0), "layer 0 weights", math.nan),
    (("layers", 2, "bias"), "layer 2 bias", math.inf),
    (("log_std",), "log_std", -math.inf)], ids=["nan-weight", "inf-bias", "-inf-log_std"])
def test_non_finite_checkpoint_exits_config(tmp_path, capsys, command, where, name, number):
    """`json` reads NaN and Infinity, so a checkpoint may hold them; a NaN
    weight would give NaN actions, so loading rejects any non-finite number."""
    path = tmp_path / "de_uniform.json"
    save_checkpoint(path, PolicyNet(44, 4), "de_uniform", ObservationSpec())
    doc = json.loads(path.read_text())
    entries = doc
    for key in where:
        entries = entries[key]
    entries[0] = number
    path.write_text(json.dumps(doc))
    out = tmp_path / "x"
    argv = [command, "--checkpoint", str(path), "--runs", "2", "--out", str(out)]
    argv += (["--function", "Sphere", "--dimension", "10"] if command == "evaluate"
             else ["--function", "Sphere:10"])
    assert main(argv) == 2
    assert f"{name} holds a non-finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_policy_is_not_an_adaptation_choice(tmp_path, command):
    """`--checkpoint` alone selects the policy."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--adaptation", "policy", "--out", str(tmp_path / "x")]
             + (["--function", "Sphere", "--dimension", "10"] if command == "evaluate" else []))
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("train")
    cfg_path, _ = base_config(tmp)
    assert main(["train", "--config", str(cfg_path)]) == 0
    return str(tmp / "run" / "checkpoint.json")


class TestEvaluate:
    def test_policy_metrics_and_traces(self, trained_checkpoint, tmp_path):
        out = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint", trained_checkpoint,
                     "--function", "Sphere", "--dimension", "10",
                     "--runs", "6", "--seed", "10", "--out", str(out)])
        assert code == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert rows[0] == "run,auc,best_of_run"
        assert len(rows) == 7
        for seed in range(10, 16):
            assert (out / "Sphere_10" / f"run_{seed}.csv").exists()

    def test_baseline_adaptation_same_shape(self, tmp_path):
        out = tmp_path / "eval"
        code = main(["evaluate", "--adaptation", "jde", "--function", "rastrigin",
                     "--dimension", "10", "--runs", "4", "--out", str(out)])
        assert code == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 5
        assert (out / "Rastrigin_10" / "run_0.csv").exists()  # canonical name casing

    def test_cma_baseline(self, tmp_path):
        out = tmp_path / "eval"
        code = main(["evaluate", "--adaptation", "csa", "--algorithm", "cmaes",
                     "--function", "Sphere", "--dimension", "10",
                     "--runs", "3", "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()

    def test_reruns_are_bit_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            main(["evaluate", "--adaptation", "ide", "--function", "Sphere",
                  "--dimension", "10", "--runs", "4", "--out", str(out)])
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_corrupted_checkpoint_exits_without_partial_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"architecture": {"sizes": [1]}}')
        out = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint", str(bad), "--function", "Sphere",
                     "--dimension", "10", "--out", str(out)])
        assert code == 2
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("layers,log_std", [(1, 4), (2, 1), (1, 1)])
    def test_truncated_checkpoint_exits_config(self, trained_checkpoint, tmp_path, capsys,
                                               layers, log_std):
        with open(trained_checkpoint) as fh:
            doc = json.load(fh)  # 2 layers, 4 actions
        doc["layers"], doc["log_std"] = doc["layers"][:layers], doc["log_std"][:log_std]
        cut = tmp_path / "cut.json"
        cut.write_text(json.dumps(doc))
        code = main(["evaluate", "--checkpoint", str(cut), "--function", "Sphere",
                     "--dimension", "10", "--out", str(tmp_path / "eval")])
        assert code == 2
        assert (f"needs 2 layers and 4 log_std entries, got {layers} and {log_std}"
                in capsys.readouterr().err)

    def test_unknown_function_exits_config(self, tmp_path):
        code = main(["evaluate", "--adaptation", "jde", "--function", "NoSuch",
                     "--dimension", "10", "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("flag", [["--adaptation", "jde"], ["--algorithm", "cmaes"],
                                      ["--algorithm", "de"]])
    def test_checkpoint_plus_baseline_flag_rejected(self, trained_checkpoint, tmp_path, flag):
        code = main(["evaluate", "--checkpoint", trained_checkpoint, *flag,
                     "--function", "Sphere", "--dimension", "10", "--out", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x").exists()


class TestCompare:
    def test_single_variant_single_function(self, trained_checkpoint, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--checkpoint", trained_checkpoint,
                     "--function", "Sphere:10", "--runs", "4",
                     "--metric", "best", "--out", str(out)])
        assert code == 0
        rows = (out / "comparison_best.csv").read_text().strip().splitlines()
        assert rows[0] == "variant,ratio,Sphere_10"
        assert len(rows) == 2
        cell = rows[1].split(",")[2]
        assert 0.0 <= float(cell) <= 1.0
        doc = json.loads((out / "comparison_best.json").read_text())
        assert doc["functions"] == ["Sphere_10"]

    def test_two_variants_two_functions(self, trained_checkpoint, tmp_path):
        # two checkpoints that share a basename keep one row each
        paths = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            paths.append(str(shutil.copy(trained_checkpoint, tmp_path / name / "checkpoint.json")))
        out = tmp_path / "cmp"
        code = main(["compare", "--checkpoint", paths[0], "--checkpoint", paths[1],
                     "--function", "Sphere:10", "--function", "Rastrigin:10",
                     "--runs", "3", "--metric", "auc", "--out", str(out)])
        assert code == 0
        rows = (out / "comparison_auc.csv").read_text().strip().splitlines()
        assert [row.split(",")[0] for row in rows] == ["variant", "a/checkpoint",
                                                        "b/checkpoint"]
        assert all(len(row.split(",")) == 4 for row in rows)
        assert rows[1].split(",")[1:] == rows[2].split(",")[1:]  # the same policy

    def test_only_colliding_stems_get_longer_labels(self, trained_checkpoint, tmp_path):
        paths = []
        for name in ("a/checkpoint.json", "b/checkpoint.json", "a/de_uniform.json"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            paths.append(str(shutil.copy(trained_checkpoint, tmp_path / name)))
        assert cli._variant_labels(paths) == ["a/checkpoint", "b/checkpoint", "de_uniform"]

    @pytest.mark.parametrize("spelling", [
        lambda path: path,
        os.path.relpath,
        lambda path: os.path.join(os.path.dirname(path), "x", "..", os.path.basename(path)),
    ], ids=["same", "relative", "dotdot"])
    def test_repeated_checkpoint_exits_config(self, trained_checkpoint, tmp_path, spelling):
        out = tmp_path / "cmp"
        code = main(["compare", "--checkpoint", trained_checkpoint,
                     "--checkpoint", spelling(trained_checkpoint),
                     "--function", "Sphere:10", "--runs", "2", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_trained_sigma_policy_against_csa(self, tmp_path):
        """Train a `cma_sigma` policy end to end, then compare it with CSA."""
        cfg_path, _ = base_config(tmp_path, algorithm="cmaes", action="cma_sigma")
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "cmp"
        code = main(["compare", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                     "--function", "Sphere:10", "--runs", "2", "--out", str(out)])
        assert code == 0
        rows = (out / "comparison_best.csv").read_text().strip().splitlines()
        assert rows[0] == "variant,ratio,Sphere_10" and len(rows) == 2
        assert 0.0 <= float(rows[1].split(",")[2]) <= 1.0

    def test_missing_checkpoint_rejected(self, tmp_path):
        assert main(["compare", "--out", str(tmp_path / "x")]) == 2

    def test_failing_cell_reports_its_error(self, trained_checkpoint, tmp_path, monkeypatch):
        real = cli.run_test_protocol

        def failing_on_rastrigin(factory, fn_key, *args, **kwargs):
            if fn_key == ("Rastrigin", 10):
                raise ValueError("objective returned NaN on Rastrigin_10")
            return real(factory, fn_key, *args, **kwargs)

        monkeypatch.setattr(cli, "run_test_protocol", failing_on_rastrigin)
        out = tmp_path / "cmp"
        with pytest.raises(ValueError, match="objective returned NaN on Rastrigin_10"):
            main(["compare", "--checkpoint", trained_checkpoint,
                  "--function", "Sphere:10", "--function", "Rastrigin:10",
                  "--runs", "2", "--out", str(out)])
        assert not (out / "comparison_best.csv").exists()

    def test_each_checkpoint_loaded_once(self, trained_checkpoint, tmp_path, monkeypatch):
        loads = []
        real = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path) or real(path))
        code = main(["compare", "--checkpoint", trained_checkpoint,
                     "--function", "Sphere:10", "--function", "Rastrigin:10",
                     "--runs", "2", "--out", str(tmp_path / "cmp")])
        assert code == 0 and loads == [trained_checkpoint]
        loads.clear()
        code = main(["evaluate", "--checkpoint", trained_checkpoint, "--function", "Sphere",
                     "--dimension", "10", "--runs", "2", "--out", str(tmp_path / "ev")])
        assert code == 0 and loads == [trained_checkpoint]


def serial_map(fn, items):
    return [fn(item) for item in items]


@pytest.fixture(scope="module")
def untrained_checkpoints(tmp_path_factory):
    """Two untrained policies per engine: {algorithm: [path, path]}."""
    tmp = tmp_path_factory.mktemp("untrained")
    paths = {}
    for algorithm, kind, actions in (("de", "de_uniform", 4), ("cmaes", "cma_sigma", 1)):
        paths[algorithm] = []
        for seed in (1, 2):
            path = tmp / f"{kind}_{seed}.json"
            policy = PolicyNet(ObservationSpec().length(actions), actions,
                               rng=np.random.default_rng(seed))
            save_checkpoint(path, policy, kind, ObservationSpec())
            paths[algorithm].append(str(path))
    return paths


def run_compare(checkpoints, functions, out, *flags):
    argv = ["compare", "--runs", "3", "--seed", "3", "--out", str(out), *flags]
    for path in checkpoints:
        argv += ["--checkpoint", path]
    for value in functions:
        argv += ["--function", value]
    return main(argv)


class TestCompareSplit:
    """`compare` runs its even-indexed protocols here and its odd-indexed ones
    in a forked child (tasks: the opponent's functions, then each
    variant's); the outcome is that of one serial loop over them."""

    @pytest.mark.parametrize("metric", ["auc", "best"])
    @pytest.mark.parametrize("variants,functions", [(1, 1), (2, 3)],
                             ids=["2-tasks", "9-tasks"])
    @pytest.mark.parametrize("algorithm", ["de", "cmaes"])
    def test_outputs_equal_the_serial_loop(self, untrained_checkpoints, tmp_path, monkeypatch,
                                           deadline, algorithm, variants, functions, metric):
        args = (untrained_checkpoints[algorithm][:variants],
                ["Sphere:10", "Rastrigin:10", "LinearSlope:5"][:functions])
        assert run_compare(*args, tmp_path / "split", "--metric", metric) == 0
        assert_no_child_left()
        monkeypatch.setattr(cli, "split_map", serial_map)
        assert run_compare(*args, tmp_path / "serial", "--metric", metric) == 0
        for name in (f"comparison_{metric}.csv", f"comparison_{metric}.json"):
            assert (tmp_path / "split" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes()

    # tasks: jDE on Sphere 0, Rastrigin 1, Ellipsoid 2, then variant "a" 3-5 and
    # variant "b" 6-8; the even ones run here, the odd ones in the child
    @pytest.mark.parametrize("planted", [
        {("jde", "Ellipsoid"), ("a", "Sphere")},
        {("jde", "Rastrigin"), ("jde", "Ellipsoid")},
        {("a", "Rastrigin"), ("a", "Ellipsoid")},
        {("a", "Sphere"), ("b", "Sphere")},
        {("b", "Rastrigin"), ("b", "Ellipsoid")},
    ], ids=["here-2-child-3", "child-1-here-2", "here-4-child-5", "child-3-here-6",
            "child-7-here-8"])
    def test_the_lowest_failing_task_wins(self, untrained_checkpoints, tmp_path, monkeypatch,
                                          deadline, planted):
        real_load, real_run = cli._load_policy, cli.run_test_protocol
        labels = dict(zip(untrained_checkpoints["de"], "ab"))

        def labelled_load(path):
            algorithm, factory = real_load(path)

            def labelled():
                return factory()

            labelled.label = labels[path]
            return algorithm, labelled

        def planted_failures(factory, fn_key, *args, **kwargs):
            who = getattr(factory, "label", "jde")
            if (who, fn_key[0]) in planted:
                error = ValueError if who == "jde" else FloatingPointError
                raise error(f"{who} failed on {fn_key[0]}")
            return real_run(factory, fn_key, *args, **kwargs)

        monkeypatch.setattr(cli, "_load_policy", labelled_load)
        monkeypatch.setattr(cli, "run_test_protocol", planted_failures)
        errors = []
        for split in (cli.split_map, serial_map):
            monkeypatch.setattr(cli, "split_map", split)
            with pytest.raises(Exception) as caught:
                run_compare(untrained_checkpoints["de"],
                            ["Sphere:10", "Rastrigin:10", "Ellipsoid:10"], tmp_path / "cmp")
            errors.append((type(caught.value), caught.value.args))
            assert_no_child_left()
        assert errors[0] == errors[1]
        assert not (tmp_path / "cmp").exists()

    def test_an_interrupt_here_kills_and_reaps_the_child(self, untrained_checkpoints, tmp_path,
                                                         monkeypatch, deadline):
        parent, real = os.getpid(), cli.run_test_protocol

        def interrupted(factory, fn_key, *args, **kwargs):
            if os.getpid() == parent and fn_key == ("Ellipsoid", 10):  # task 2
                raise KeyboardInterrupt
            return real(factory, fn_key, *args, **kwargs)

        monkeypatch.setattr(cli, "run_test_protocol", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_compare(untrained_checkpoints["de"][:1],
                        ["Sphere:10", "Rastrigin:10", "Ellipsoid:10"], tmp_path / "cmp")
        assert_no_child_left()
        assert not (tmp_path / "cmp").exists()

    def test_a_diverging_cmaes_run_in_the_child_raises_the_serial_error(
            self, untrained_checkpoints, tmp_path, monkeypatch, deadline):
        class OneRunDiverges(FixedSigmaController):
            """Sigma 1e308 for run 2 (seed 49), the default for the others."""

            def propose(self, episode):
                sigma = np.where(np.arange(episode.runs) == 2, 1e308, self.sigma)
                return sigma, sigma[..., None]

        real = cli.run_test_protocol

        def diverging(factory, fn_key, *args, **kwargs):
            if fn_key == ("LinearSlope", 5):  # tasks 1 and 3, both in the child
                factory = OneRunDiverges
            return real(factory, fn_key, *args, **kwargs)

        monkeypatch.setattr(cli, "run_test_protocol", diverging)
        errors = []
        for split in (cli.split_map, serial_map):
            monkeypatch.setattr(cli, "split_map", split)
            with pytest.raises(StateNotFinite, match=r"^CMA-ES covariance on LinearSlope-5 is "
                                                     r"not finite at generation 2 "
                                                     r"\(run seeds \[49\]\)") as caught:
                main(["compare", "--checkpoint", untrained_checkpoints["cmaes"][0],
                      "--function", "Sphere:10", "--function", "LinearSlope:5",
                      "--runs", "4", "--seed", "47", "--out", str(tmp_path / "cmp")])
            errors.append((caught.value.args, caught.value.runs))
            assert_no_child_left()
        assert errors[0] == errors[1] == (errors[1][0], [2])
        assert not (tmp_path / "cmp").exists()


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = config_from_dict({"algorithm": "de", "action": "de_normal",
                                "ppo": {"hidden": [8, 8]}, "seed": 5})
        doc = config_to_dict(cfg)
        again = config_from_dict(doc)
        assert config_to_dict(again) == doc
        assert again.ppo.hidden == (8, 8)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"algorithm": "de", "bogus": 1})
        with pytest.raises(ConfigError):
            config_from_dict({"training": {"nope": 2}})
        for key in ("actors", "entropy_coef", "log_std_init"):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({"ppo": {key: 0}})
        for key, value in (("test", {"generations": 50, "population": 10}), ("sigma0", 0.5)):
            with pytest.raises(ConfigError, match=f"unknown keys in experiment: \\['{key}'\\]"):
                config_from_dict({key: value})

    def test_documented_configs_load(self):
        """README's `experiment.json` and the Makefile's `paper-run` config
        hold only keys the schema knows."""
        with open(os.path.join(ROOT, "README.md")) as fh:
            readme = re.search(r"cat > experiment.json <<'EOF'\n(.*?)\nEOF\n", fh.read(),
                               re.S).group(1)
        with open(os.path.join(ROOT, "Makefile")) as fh:
            recipe = re.search(r"\npaper-run:\n\tprintf '%s\\n' \\\n(.*?)> ", fh.read(),
                               re.S).group(1)
        paper_run = "\n".join(re.findall(r"'([^']*)'", recipe))
        for text in (readme, paper_run):
            config_from_dict(json.loads(text))

    def test_algorithm_action_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"algorithm": "cmaes", "action": "de_direct"})

    def test_stamped_config_reloads(self, tmp_path):
        cfg_path, _ = base_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        stamped = load_config(tmp_path / "run" / "config.json")
        assert stamped.training.episodes == 8
        assert stamped.ppo.hidden == (4,)

"""Command-line entry point: list-functions, train, evaluate, compare."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import envloop
from .artifacts import write_csv
from .benchmarks import get_function, registry_list
from .config import (ConfigError, ExperimentConfig, load_config, save_config)
from .envloop import (CsaController, EvolutionEnv, FixedDeController,
                      FixedSigmaController, IdeController, JdeController, PolicyController,
                      run_test_protocol)
from .forked import split_map
from .policy import action_spec, load_checkpoint, save_checkpoint
from .ppo import TrainingInstability, train
from .stats import build_comparison, export_comparison_csv, export_comparison_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3


def cmd_list_functions(_args) -> int:
    for name, dim in registry_list():
        print(f"{name},{dim}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train

def _write_training_log(rows, path) -> None:
    write_csv(path, [["iteration", "episodes_done", "mean_return",
                      "policy_loss", "value_loss", "entropy"]]
              + [[row["iteration"], row["episodes_done"],
                  repr(row["mean_return"]), repr(row["policy_loss"]),
                  repr(row["value_loss"]), repr(row["entropy"])] for row in rows])


def _write_episode_log(entries, path) -> None:
    write_csv(path, [["episode", "function", "dimension"]]
              + [[i, name, dim] for i, (name, dim) in enumerate(entries)])


def run_training(cfg: ExperimentConfig, out_dir: str) -> str:
    """Train with retry-on-instability; returns the checkpoint path."""
    os.makedirs(out_dir, exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.json"))
    spec = action_spec(cfg.action)
    attempts_path = os.path.join(out_dir, "attempts.log")
    checkpoint_path = os.path.join(out_dir, "checkpoint.json")
    max_attempts = 1 + cfg.training.retries

    with open(attempts_path, "w") as attempts:
        for attempt in range(1, max_attempts + 1):
            seed = cfg.seed + (attempt - 1)
            env_seed, train_seed = np.random.SeedSequence(seed).spawn(2)
            env = EvolutionEnv(cfg.function_set(), spec, cfg.observation,
                               np.random.default_rng(env_seed))

            def checkpointer(iteration, policy, _value, _row):
                if (iteration + 1) % cfg.ppo.checkpoint_every == 0:
                    save_checkpoint(os.path.join(out_dir, f"checkpoint_iter{iteration}.json"),
                                    policy, cfg.action, cfg.observation)

            try:
                policy, _value, log_rows = train(env, cfg.ppo, cfg.training.episodes,
                                                 np.random.default_rng(train_seed),
                                                 on_iteration=checkpointer)
            except TrainingInstability as exc:
                attempts.write(f"attempt {attempt} seed {seed} unstable: {exc}\n")
                attempts.flush()
                _write_training_log([], os.path.join(out_dir, f"training_log_attempt{attempt}.csv"))
                continue
            attempts.write(f"attempt {attempt} seed {seed} ok\n")
            save_checkpoint(checkpoint_path, policy, cfg.action, cfg.observation)
            _write_training_log(log_rows, os.path.join(out_dir, "training_log.csv"))
            # the trailing reset opens an episode that never runs; drop it
            episodes_done = log_rows[-1]["episodes_done"] if log_rows else 0
            _write_episode_log(env.episode_log[:episodes_done],
                               os.path.join(out_dir, "episodes.csv"))
            return checkpoint_path
    raise TrainingInstability(f"training unstable after {max_attempts} attempts")


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    run_training(cfg, cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate / compare helpers

def _load_policy(path: str):
    """The algorithm a checkpoint's policy steers, and a constructor of
    controllers that run it, one fresh controller per protocol."""
    try:
        policy, kind, obs_spec = load_checkpoint(path)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {exc}") from exc
    spec = action_spec(kind)
    return spec.algorithm, lambda: PolicyController(policy, spec, obs_spec)


BASELINES = {
    ("de", "ide"): IdeController,
    ("de", "jde"): JdeController,
    ("de", "fixed"): FixedDeController,
    ("cmaes", "csa"): CsaController,
    ("cmaes", "fixed"): FixedSigmaController,
}


def _controller_factory(algorithm: str, adaptation: str):
    """Baseline controller class, one fresh controller per protocol."""
    if (algorithm, adaptation) not in BASELINES:
        raise ConfigError(f"adaptation {adaptation!r} is not available for {algorithm}")
    return BASELINES[algorithm, adaptation]


def _check_protocol_args(args) -> None:
    """Reject flag values the protocol cannot run with, before any work."""
    for flag, value in (("--runs", args.runs), ("--jobs", args.jobs)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")


def cmd_evaluate(args) -> int:
    _check_protocol_args(args)
    if args.checkpoint and (args.algorithm, args.adaptation) != (None, None):
        raise ConfigError("give either --checkpoint or the baseline --algorithm/--adaptation")
    if args.checkpoint:
        algorithm, factory = _load_policy(args.checkpoint)
    else:
        algorithm = args.algorithm or "de"
        factory = _controller_factory(algorithm, args.adaptation or "fixed")
    try:
        fn = get_function(args.function, args.dimension)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    result = run_test_protocol(factory, (fn.name, fn.dimension), args.seed, runs=args.runs,
                               algorithm=algorithm)
    out_dir = args.out
    write_csv(os.path.join(out_dir, "metrics.csv"),
              [["run", "auc", "best_of_run"]]
              + [[i, repr(float(result.aucs[i])), repr(float(result.bests[i]))]
                 for i in range(len(result.traces))])
    trace_dir = os.path.join(out_dir, f"{fn.name}_{fn.dimension}")
    for seed, trace in zip(result.seeds, result.traces):
        envloop.export_trace_csv(trace, os.path.join(trace_dir, f"run_{seed}.csv"))
    return EXIT_OK


def _parse_function_arg(value: str) -> tuple:
    try:
        name, dim = value.rsplit(":", 1)
        fn = get_function(name, int(dim))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad --function value {value!r} (expected NAME:DIM): {exc}") from exc
    return (fn.name, fn.dimension)


def _variant_labels(paths: list[str]) -> list[str]:
    """Each checkpoint's label: the shortest trailing run of its path's
    components, extension dropped, that no other checkpoint's path ends in."""
    parts = [os.path.abspath(os.path.splitext(path)[0]).split(os.sep) for path in paths]
    labels = []
    for i, own in enumerate(parts):
        others = parts[:i] + parts[i + 1:]
        k = next((k for k in range(1, len(own) + 1)
                  if all(other[-k:] != own[-k:] for other in others)), None)
        if k is None:
            raise ConfigError(f"checkpoint {paths[i]} is given twice")
        labels.append("/".join(own[-k:]))
    return labels


def cmd_compare(args) -> int:
    _check_protocol_args(args)
    if not args.checkpoint:
        raise ConfigError("compare requires at least one --checkpoint variant")
    functions = []
    for value in args.function or []:
        fn_key = _parse_function_arg(value)
        if fn_key in functions:
            raise ConfigError(f"function {fn_key[0]}:{fn_key[1]} is given twice "
                              f"(--function {value})")
        functions.append(fn_key)
    functions = functions or registry_list()
    algorithm = None
    variants = []
    for label, path in zip(_variant_labels(args.checkpoint), args.checkpoint):
        algo, factory = _load_policy(path)
        if algorithm is None:
            algorithm = algo
        elif algorithm != algo:
            raise ConfigError("all compare variants must target the same algorithm")
        variants.append((label, factory))

    opponent = args.adaptation or ("csa" if algorithm == "cmaes" else "jde")

    def metric(task):
        """One function's per-run metric under one controller factory."""
        factory, fn_key = task
        result = run_test_protocol(factory, fn_key, args.seed, runs=args.runs,
                                   algorithm=algorithm)
        return result.aucs if args.metric == "auc" else result.bests

    # the opponent's functions, then each variant's; split between two processes
    factories = [_controller_factory(algorithm, opponent)] + [f for _, f in variants]
    values = iter(split_map(metric, [(f, fn_key) for f in factories for fn_key in functions]))
    opponent_metrics = {fn_key: next(values) for fn_key in functions}
    variant_metrics = {label: {fn_key: next(values) for fn_key in functions}
                       for label, _ in variants}

    matrix = build_comparison(variant_metrics, opponent_metrics, functions)
    os.makedirs(args.out, exist_ok=True)
    export_comparison_csv(matrix, os.path.join(args.out, f"comparison_{args.metric}.csv"))
    export_comparison_json(matrix, os.path.join(args.out, f"comparison_{args.metric}.json"))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evoadapt",
                                     description="Learned parameter adaptation for DE and CMA-ES")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-functions", help="print the benchmark registry as name,dimension CSV")

    p_train = sub.add_parser("train", help="train an adaptation policy with PPO")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None)

    def add_eval_args(p, checkpoint_action="store"):
        p.add_argument("--checkpoint", default=None, action=checkpoint_action)
        p.add_argument("--adaptation", choices=["csa", "ide", "jde", "fixed"],
                       default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: evaluate runs in one process, and "
                            "compare splits its protocols between two")
        p.add_argument("--runs", type=int, default=50)
        p.add_argument("--out", default="results/evaluation")

    p_eval = sub.add_parser("evaluate", help="run the 50-run test protocol on one function")
    add_eval_args(p_eval)
    p_eval.add_argument("--algorithm", choices=["de", "cmaes"], default=None)
    p_eval.add_argument("--function", required=True)
    p_eval.add_argument("--dimension", type=int, required=True)

    p_cmp = sub.add_parser("compare", help="win-probability matrix of policies vs a baseline")
    add_eval_args(p_cmp, checkpoint_action="append")
    p_cmp.add_argument("--metric", choices=["auc", "best"], default="best")
    p_cmp.add_argument("--function", action="append", default=None,
                       help="NAME:DIM, repeatable; default is the full registry")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list-functions": cmd_list_functions,
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingInstability as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


if __name__ == "__main__":
    sys.exit(main())

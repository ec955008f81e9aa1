"""Workload definitions: the evoadapt commands each workload runs, and the
inputs (configs, untrained checkpoints) its set-up writes.

Everything here is plain data plus the set-up writer; the timed body is the
list of `evoadapt.cli.main` argument vectors in `ops`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

# Shape of one episode, fixed by the program's defaults (envloop.DEFAULT_*).
GENERATIONS = 50
POPULATION = 10
STEPS_PER_EPISODE = GENERATIONS - 1
EVALS_PER_RUN = GENERATIONS * POPULATION

# Runs per protocol. The paper uses 50; 5 keeps a round to a few seconds, so
# that a run holds enough rounds for a steady median on a noisy machine.
RUNS = 5

# Registry slices. de-protocol mixes a cheap objective with expensive ones
# over 5, 10 and 20 dimensions; cmaes-protocol leans on 20 dimensions, where
# the per-generation eigendecomposition costs most. Sphere-10 is in both
# because the cross-controller checks are made there.
DE_SLICE = (("Sphere", 10), ("Katsuura", 10), ("Weierstrass", 10),
            ("BuecheRastrigin", 5), ("GG101me", 20))
CMA_SLICE = (("Sphere", 10), ("RosenbrockRotated", 20), ("SchaffersIllConditioned", 20),
             ("GG21hi", 20), ("LunacekBiR", 20), ("CompositeGR", 5))
CHECK_FUNCTION = ("Sphere", 10)

# ppo-train: the `make paper-run` configuration with an episode budget that
# fills exactly one horizon (see expected_iterations). One iteration, not
# two, keeps a round near ten seconds, for the same reason as RUNS.
PPO_HORIZON = 4000
PPO_EPISODES = 100
PPO_ACTION = "de_uniform"

# Action boxes of the paper's action spaces, and the observation length of
# the default spec (40 history entries plus the previous action).
ACTION_BOX = {
    "de_uniform": ((0.0, 2.0), (0.0, 2.0), (0.0, 1.0), (0.0, 1.0)),
    "de_direct": ((0.0, 2.0), (0.0, 1.0)),
    "cma_sigma": ((1e-10, 3.0),),
}
HISTORY_LENGTH = 40


def observation_size(kind: str) -> int:
    return HISTORY_LENGTH + len(ACTION_BOX[kind])


def expected_iterations(episodes: int, horizon: int, steps: int = STEPS_PER_EPISODE) -> int:
    """PPO iterations the trainer runs: it starts another horizon while the
    unspent episode budget still covers one."""
    iterations = 0
    while (episodes - (iterations * horizon) // steps) * steps >= horizon:
        iterations += 1
    return iterations


def expected_evals(op) -> int:
    """Objective evaluations an op's shape implies."""
    if op.command == "evaluate":
        return op.runs * EVALS_PER_RUN
    if op.command == "compare":
        return (len(op.variants) + 1) * len(op.functions) * op.runs * EVALS_PER_RUN
    iterations = expected_iterations(op.episodes, op.horizon)
    episodes_done = iterations * op.horizon // STEPS_PER_EPISODE
    return (iterations * op.horizon + episodes_done + 1) * POPULATION


@dataclass(frozen=True)
class Op:
    """One `evoadapt` command and what its outputs must satisfy."""
    command: str            # "evaluate" | "compare" | "train"
    argv: tuple
    out: str
    algorithm: str = "de"
    controller: str = ""    # evaluate: fixed/ide/jde/csa/<checkpoint kind>
    functions: tuple = ()
    variants: tuple = ()    # compare: checkpoint kinds, in row order
    runs: int = RUNS
    seed: int = 0
    episodes: int = 0       # train: episode budget
    horizon: int = 0        # train: PPO horizon


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    checkpoints: tuple = ()         # (kind, path) written at set-up
    train_config: tuple = ()        # (path, JSON document) written at set-up


def _ckpt(work: str, kind: str) -> str:
    return os.path.join(work, "inputs", f"{kind}.json")


def _evaluate(work, seed, function, controller, algorithm="de", runs=RUNS):
    name, dim = function
    out = os.path.join(work, "outputs", f"eval-{controller}-{name}-{dim}")
    argv = ["evaluate", "--function", name, "--dimension", str(dim), "--seed", str(seed),
            "--runs", str(runs), "--jobs", "1", "--out", out]
    if controller in ACTION_BOX:
        argv += ["--checkpoint", _ckpt(work, controller)]
    else:
        argv += ["--algorithm", algorithm, "--adaptation", controller]
    return Op("evaluate", tuple(argv), out, algorithm, controller, (function,), runs=runs,
              seed=seed)


def _compare(work, seed, kinds, functions, algorithm, runs=RUNS):
    out = os.path.join(work, "outputs", "compare")
    argv = ["compare", "--metric", "best", "--seed", str(seed), "--runs", str(runs),
            "--jobs", "1", "--out", out]
    for kind in kinds:
        argv += ["--checkpoint", _ckpt(work, kind)]
    for name, dim in functions:
        argv += ["--function", f"{name}:{dim}"]
    return Op("compare", tuple(argv), out, algorithm, "", tuple(functions), tuple(kinds),
              runs=runs, seed=seed)


def train_op(work, seed, episodes, ppo):
    """`evoadapt train` on the `make paper-run` configuration with the given
    episode budget and PPO settings; returns the op and its config file."""
    path = os.path.join(work, "inputs", "train.json")
    out = os.path.join(work, "outputs", "train")
    doc = {
        "algorithm": "de",
        "action": PPO_ACTION,
        "training": {"mode": "multi", "episodes": episodes},
        "ppo": ppo,
        "seed": seed,
        "out": out,
    }
    op = Op("train", ("train", "--config", path, "--seed", str(seed), "--out", out), out,
            "de", PPO_ACTION, seed=seed, episodes=episodes,
            horizon=ppo.get("horizon", PPO_HORIZON))
    return op, (path, doc)


def build(name: str, work: str, seed: int, runs: int = RUNS) -> Workload:
    """The workload `name` with its files under `work` and seeds from `seed`."""
    if name == "de-protocol":
        kinds = ("de_uniform", "de_direct")
        ops = [_compare(work, seed, kinds, DE_SLICE, "de", runs)]
        ops += [_evaluate(work, seed, f, c, "de", runs) for c in ("ide", "fixed") for f in DE_SLICE]
        ops += [_evaluate(work, seed, CHECK_FUNCTION, c, "de", runs) for c in ("jde",) + kinds]
        return Workload(name, tuple(ops), tuple((k, _ckpt(work, k)) for k in kinds))
    if name == "cmaes-protocol":
        kinds = ("cma_sigma",)
        ops = [_compare(work, seed, kinds, CMA_SLICE, "cmaes", runs)]
        ops += [_evaluate(work, seed, f, c, "cmaes", runs) for c in ("csa", "fixed") for f in CMA_SLICE]
        ops += [_evaluate(work, seed, CHECK_FUNCTION, "cma_sigma", "cmaes", runs)]
        return Workload(name, tuple(ops), tuple((k, _ckpt(work, k)) for k in kinds))
    if name == "ppo-train":
        op, config = train_op(work, seed, PPO_EPISODES, {"horizon": PPO_HORIZON})
        return Workload(name, (op,), train_config=config)
    raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")


NAMES = ("de-protocol", "cmaes-protocol", "ppo-train")


def write_inputs(workload: Workload, seed: int) -> None:
    """Set-up: untrained checkpoints with fixed-seed weights, and the
    training config. Goes through evoadapt's public policy functions."""
    import numpy as np
    from evoadapt.observe import ObservationSpec
    from evoadapt.policy import PolicyNet, save_checkpoint

    obs_spec = ObservationSpec(history_length=HISTORY_LENGTH)
    for index, (kind, path) in enumerate(workload.checkpoints):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        dim = len(ACTION_BOX[kind])
        policy = PolicyNet(obs_spec.length(dim), dim, rng=np.random.default_rng([seed, index]))
        save_checkpoint(path, policy, kind, obs_spec)
    if workload.train_config:
        path, doc = workload.train_config
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)

import dataclasses
import os

import numpy as np
import pytest

from evoadapt import ppo
from evoadapt.observe import RunTrace


def random_trace(rng: np.random.Generator, length: int, dim: int = 3,
                 pop: int = 6, width: float = 10.0) -> RunTrace:
    """Trace of one synthetic run (R = 1) with population points inside
    [-w/2, w/2]^d."""
    trace = RunTrace()
    for _ in range(length):
        genotypes = rng.uniform(-width / 2, width / 2, size=(1, pop, dim))
        fitnesses = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=(1, pop))
        trace.append_generation(genotypes, fitnesses, np.array([[0.5]]))
        trace.rewards.append(np.zeros(1))
    return trace


def counted(fn):
    """Wrap a benchmark so every objective call is tallied."""
    calls = [0]

    def wrapper(x):
        calls[0] += 1
        return fn.fn(x)

    return dataclasses.replace(fn, fn=wrapper), calls


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def nan_gradient_once(monkeypatch):
    """The first PPO update of the test meets a NaN in one policy-gradient
    entry; later updates (a retry's, say) are clean. The trainer's own
    non-finite checks have to catch it. The policy learner is the one that
    runs in the test's own process (the value learner runs in a forked
    child), so the first call made there poisons the policy gradient."""
    real = ppo.clip_gradients
    armed = [os.getpid()]

    def poisoned(grad, max_norm):
        real(grad, max_norm)
        if armed and os.getpid() == armed[0]:
            armed.clear()
            grad[0] = np.nan

    monkeypatch.setattr(ppo, "clip_gradients", poisoned)

import dataclasses
import os
import signal

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


def serial_rollout(env, policy, value, obs, noise, buf):
    """`rollout` as one `reset`/`step` loop over the horizon's steps: the
    reference for `EvolutionEnv.rollout`, and the rollout of the fake envs."""
    for t in range(len(noise)):
        mean, log_std = policy.forward(obs)
        raw = mean + np.exp(log_std) * noise[t]
        val = float(value.forward(obs)[0])
        next_obs, r, done = env.step(raw)
        buf.obs[t], buf.raw[t], buf.mean[t] = obs, raw, mean
        buf.reward[t], buf.value[t], buf.done[t] = r, val, done
        if done:
            next_obs = env.reset()
        obs = next_obs
    return obs


class SerialRollout:
    """Mixin: an env with `reset`/`step` gets `rollout` from `serial_rollout`."""

    def rollout(self, policy, value, obs, noise, buf):
        return serial_rollout(self, policy, value, obs, noise, buf)


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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Hung(Exception):
    pass


@pytest.fixture
def deadline():
    """Fail a test that runs for over 60 s instead of letting a forked child
    that is never reaped hang the suite."""
    def expire(*_):
        raise Hung("the test did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)

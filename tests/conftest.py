import dataclasses
import os
import signal

import numpy as np
import pytest

from evoadapt import ppo
from evoadapt.benchmarks import LOWER, UPPER
from evoadapt.observe import RunTrace
from evoadapt.policy import Mlp, PolicyNet


def random_trace(rng: np.random.Generator, length: int, dim: int = 3,
                 pop: int = 6) -> RunTrace:
    """Trace of one synthetic run (R = 1) with population points inside the
    search box."""
    trace = RunTrace()
    for _ in range(length):
        genotypes = rng.uniform(LOWER, UPPER, size=(1, pop, dim))
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


def serial_rollout(env, act, obs, reward, done):
    """`rollout` as one `reset`/`step` loop over the horizon's steps, one
    one-row `act` call each: the reference for `EvolutionEnv.rollout`, and
    the rollout of the fake envs."""
    for t in range(len(reward)):
        next_obs, reward[t], done[t] = env.step(act(obs[None], [t])[0])
        if done[t]:
            next_obs = env.reset()
        obs = next_obs
    return obs


class SerialRollout:
    """Mixin: an env with `reset`/`step` gets `rollout` from `serial_rollout`."""

    def rollout(self, act, obs, reward, done):
        return serial_rollout(self, act, obs, reward, done)


def learners(policy: PolicyNet, value: Mlp, cfg) -> tuple:
    """The policy net's and the value net's `ppo.Learner`, each with a zeroed
    twin of its net for the gradient, as `ppo.train` builds them."""
    twin = PolicyNet(policy.in_dim, policy.action_dim, hidden=policy.mlp.sizes[1:-1])
    return ppo.Learner(policy, twin, cfg), ppo.Learner(value, Mlp(value.sizes), cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def poison_policy_gradient(monkeypatch, call: int) -> None:
    """The policy learner's `call`-th gradient step of the test (0 is the
    first) meets a NaN in one gradient entry; every other step (a retry's,
    say) is clean. The trainer's own non-finite checks have to catch it. The
    policy learner is the one that runs in the test's own process (the value
    learner runs in a forked child), so only the calls made there count."""
    real = ppo.clip_gradients
    pid, calls = os.getpid(), [0]

    def poisoned(grad, max_norm):
        real(grad, max_norm)
        if os.getpid() == pid:
            if calls[0] == call:
                grad[0] = np.nan
            calls[0] += 1

    monkeypatch.setattr(ppo, "clip_gradients", poisoned)


@pytest.fixture
def nan_gradient_once(monkeypatch):
    """The first PPO update of the test meets a NaN in one policy-gradient
    entry; later updates are clean."""
    poison_policy_gradient(monkeypatch, 0)


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

"""End-to-end acceptance checks, one per release criterion.

Each test prints a single PASS line on success so the suite output doubles
as a checklist. Criteria 4 and 7 exercise stochastic training and are the
slow ones; criterion 7 trains a small policy for 500 episodes.
"""

import dataclasses

import numpy as np
import pytest

from evoadapt import envloop
from evoadapt.benchmarks import get_function
from evoadapt.cli import main
from evoadapt.envloop import (CsaController, EvolutionEnv,
                              FixedDeController, FixedSigmaController,
                              PolicyController, run_de_episode,
                              run_test_protocol)
from evoadapt.observe import (ObservationSpec, inter_delta_f, intra_delta_f,
                              intra_delta_x)
from evoadapt.policy import Mlp, PolicyNet, action_spec, gaussian_log_prob
from evoadapt.ppo import PpoConfig, ppo_loss, train, value_loss
from evoadapt.stats import auc, win_probability

from conftest import SerialRollout, learners, random_trace


def test_criterion_1_metric_oracles():
    assert abs(auc(np.full(50, 3.0)) - 49 * 3.0) <= 1e-12
    assert abs(auc(np.linspace(10.0, 0.0, 11)) - 50.0) <= 1e-12
    assert abs(auc([2.0, 2.0]) - 2.0) <= 1e-12
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        oracle = sum(x < y for x in a for y in b) / 2500
        assert win_probability(a, b) == oracle
    print("ACCEPTANCE 1 (metric oracles): PASS")


def test_criterion_2_observation_bounds():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        length = int(rng.integers(1, 12))
        trace = random_trace(rng, length)
        g = int(rng.integers(1, 10))
        inter = inter_delta_f(trace, g)
        intra = intra_delta_f(trace, g)
        spread = intra_delta_x(trace, g)
        assert np.all(inter > -1.0) and np.all(inter < 1.0)
        assert np.all(intra >= 0.0) and np.all(intra < 1.0)
        assert np.all(spread >= 0.0) and np.all(spread <= 1.0)
        # entries beyond the trace are zero padding, newest first
        if g > length:
            assert np.all(inter[length - 1:] == 0.0)
            assert np.all(intra[length:] == 0.0)
            assert np.all(spread[2 * length:] == 0.0)
    print("ACCEPTANCE 2 (observation bounds): PASS")


def test_criterion_3_gradient_correctness():
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        in_dim = int(rng.integers(1, 4))
        hidden = int(rng.integers(1, 5))
        a_dim = int(rng.integers(1, 3))
        B = int(rng.integers(2, 9))
        policy = PolicyNet(in_dim, a_dim, hidden=(hidden,), activation="tanh", rng=rng)
        for w in policy.mlp.weights:
            w += rng.standard_normal(w.shape) * 0.3
        policy.log_std = rng.standard_normal(a_dim) * 0.2
        value = Mlp([in_dim, hidden, 1], activation="tanh", rng=rng, last_layer_scale=1.0)
        assert sum(w.size for w in policy.mlp.weights + value.weights) <= 50
        cfg = PpoConfig(horizon=B, minibatch=B, epochs=1,
                        clip=float(rng.uniform(0.1, 0.5)),
                        value_coef=float(rng.uniform(0.5, 2.0)))
        obs = rng.standard_normal((B, in_dim))
        mean = policy.mlp.forward(obs)
        act = mean + np.exp(policy.log_std) * rng.standard_normal((B, a_dim))
        old = gaussian_log_prob(act, mean, policy.log_std) + rng.standard_normal(B) * 0.1
        adv = rng.standard_normal(B)
        ret = rng.standard_normal(B)
        policy_learner, value_learner = learners(policy, value, cfg)

        def loss():  # the PPO loss; each learner's call writes its learner's grad
            return (ppo_loss(obs, act, old, adv, policy_learner)["policy_loss"]
                    + cfg.value_coef * value_loss(obs, ret, value_learner))

        loss()
        h = 1e-6
        for learner in (policy_learner, value_learner):  # every parameter of both nets
            g = learner.grad.copy()
            p = learner.theta
            for ix in range(p.size):
                orig = p[ix]
                p[ix] = orig + h
                up = loss()
                p[ix] = orig - h
                dn = loss()
                p[ix] = orig
                fd = (up - dn) / (2 * h)
                if abs(fd - g[ix]) > 1e-4 * max(abs(fd), abs(g[ix]), 1e-6):
                    failures += 1
    assert failures == 0
    print("ACCEPTANCE 3 (gradient correctness): PASS")


def test_criterion_4_ppo_bandit_sanity():
    class BanditEnv(SerialRollout):
        observation_dim = 1
        action_dim = 1
        steps_per_episode = 1

        def reset(self):
            return np.zeros(1)

        def step(self, raw):
            return np.zeros(1), 1.0 - abs(float(raw[0]) - 0.7), True

    cfg = PpoConfig(horizon=256, minibatch=64, epochs=10, optimizer="adam",
                    learning_rate=1e-2, hidden=(8,), clip=0.3)
    hits = 0
    for seed in range(5):
        policy, _value, log = train(BanditEnv(), cfg, episodes_budget=50 * 256,
                                    rng=np.random.default_rng(seed))
        assert len(log) == 50
        mean = float(policy.forward(np.zeros(1))[0])
        hits += abs(mean - 0.7) < 0.1
    assert hits >= 4
    print("ACCEPTANCE 4 (PPO bandit sanity): PASS")


def test_criterion_5_engine_behavior():
    fn = get_function("Sphere", 10)
    for seed in range(100):
        trace = run_de_episode(fn, FixedDeController(), np.random.default_rng(seed))
        assert trace.best_fitness[-1] < trace.best_fitness[0]
        envelope = np.minimum.accumulate(trace.best_fitness)
        assert np.all(np.diff(envelope) <= 0.0)
    csa = run_test_protocol(CsaController, ("Sphere", 10), 0, runs=50, algorithm="cmaes")
    fixed = run_test_protocol(FixedSigmaController, ("Sphere", 10), 0, runs=50,
                              algorithm="cmaes")
    assert np.median(csa.bests) < np.median(fixed.bests)
    assert win_probability(csa.bests, fixed.bests) > 0.5
    print("ACCEPTANCE 5 (engine behavior): PASS")


def test_criterion_6_protocol_fidelity(monkeypatch):
    fn = get_function("Rastrigin", 10)
    per_run_calls = []

    def tracked_get_function(name, dim):
        calls = [0]

        def wrapper(x):
            calls[0] += 1
            return fn.fn(x)

        per_run_calls.append(calls)
        return dataclasses.replace(fn, fn=wrapper)

    monkeypatch.setattr(envloop, "get_function", tracked_get_function)
    result = run_test_protocol(FixedDeController, ("Rastrigin", 10), 42, runs=50,
                               algorithm="de")
    total = sum(c[0] for c in per_run_calls)
    assert len(result.traces) == 50
    assert total == 50 * 500
    assert all(len(t) == 50 for t in result.traces)
    print("ACCEPTANCE 6 (protocol fidelity): PASS")


@pytest.mark.slow
def test_criterion_7_training_smoke():
    spec = action_spec("de_uniform")
    obs_spec = ObservationSpec()
    cfg = PpoConfig(horizon=4000, minibatch=128, epochs=200, optimizer="adam",
                    learning_rate=3e-4)
    fn = get_function("Sphere", 10)
    won = False
    for attempt in range(4):  # initial try plus 3 seeded retries
        seed = 123 + attempt
        env_rng, train_rng = np.random.SeedSequence(seed).spawn(2)
        env = EvolutionEnv([("Sphere", 10)], spec, obs_spec, np.random.default_rng(env_rng))
        policy, _value, _log = train(env, cfg, episodes_budget=500,
                                     rng=np.random.default_rng(train_rng))
        trained = run_test_protocol(
            lambda: PolicyController(policy, spec, obs_spec),
            ("Sphere", 10), 777, runs=50, algorithm="de")
        fixed = run_test_protocol(FixedDeController, ("Sphere", 10), 777, runs=50,
                                  algorithm="de")
        if win_probability(trained.bests, fixed.bests) > 0.5:
            won = True
            break
    assert won
    print("ACCEPTANCE 7 (training smoke): PASS")


def test_criterion_8_reproducibility(tmp_path):
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"eval_{tag}"
        code = main(["evaluate", "--adaptation", "jde", "--function", "Sphere",
                     "--dimension", "10", "--runs", "10", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        blob = (out / "metrics.csv").read_bytes()
        blob += (out / "Sphere_10" / "run_5.csv").read_bytes()
        outputs.append(blob)
    assert outputs[0] == outputs[1]
    for tag in ("c", "d"):
        out = tmp_path / f"cmp_{tag}"
        code = main(["compare", "--checkpoint", _tiny_checkpoint(tmp_path),
                     "--function", "Sphere:10", "--runs", "5",
                     "--metric", "best", "--out", str(out)])
        assert code == 0
    assert ((tmp_path / "cmp_c" / "comparison_best.csv").read_bytes()
            == (tmp_path / "cmp_d" / "comparison_best.csv").read_bytes())
    print("ACCEPTANCE 8 (reproducibility): PASS")


def _tiny_checkpoint(tmp_path):
    from evoadapt.policy import save_checkpoint
    path = tmp_path / "tiny.json"
    if not path.exists():
        spec = action_spec("de_direct")
        obs_spec = ObservationSpec(history_length=5)
        policy = PolicyNet(obs_spec.length(spec.dim), spec.dim, hidden=(4,),
                           rng=np.random.default_rng(0))
        save_checkpoint(path, policy, "de_direct", obs_spec)
    return str(path)

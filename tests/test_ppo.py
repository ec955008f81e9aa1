import numpy as np
import pytest

from evoadapt.policy import Mlp, PolicyNet, gaussian_log_prob
from evoadapt.ppo import (Adam, PpoConfig, RolloutBuffer, TrainingInstability,
                          clip_gradients, compute_gae, normalize_advantages,
                          ppo_loss, train)


class BanditEnv:
    """1-step episodes, constant observation, reward 1 - |a - 0.7|."""

    observation_dim = 1
    action_dim = 1
    steps_per_episode = 1

    def reset(self):
        return np.zeros(1)

    def step(self, raw):
        return np.zeros(1), 1.0 - abs(float(raw[0]) - 0.7), True


def bandit_config(**overrides):
    defaults = dict(horizon=256, minibatch=64, epochs=10, optimizer="adam",
                    learning_rate=1e-2, hidden=(8,), clip=0.3)
    defaults.update(overrides)
    return PpoConfig(**defaults)


def make_buffer(rewards, values, dones):
    n = len(rewards)
    return RolloutBuffer(
        obs=np.zeros((n, 1)), actions=np.zeros((n, 1)), log_probs=np.zeros(n),
        rewards=np.asarray(rewards, dtype=float),
        values=np.asarray(values, dtype=float),
        dones=np.asarray(dones, dtype=bool),
    )


class TestGae:
    def test_undiscounted_return_to_go(self):
        rewards = [1.0, 2.0, 3.0]
        buf = make_buffer(rewards, [0, 0, 0], [False, False, True])
        adv, ret = compute_gae(buf, gamma=1.0, lam=1.0)
        assert np.allclose(adv, [6.0, 5.0, 3.0])
        assert np.allclose(ret, adv)

    def test_single_step_episode(self):
        buf = make_buffer([2.0], [0.5], [True])
        adv, ret = compute_gae(buf, gamma=0.9, lam=0.8)
        assert np.isclose(adv[0], 2.0 - 0.5)  # terminal bootstrap 0
        assert np.isclose(ret[0], 2.0)

    def test_all_zero_inputs_give_zero_advantages(self):
        buf = make_buffer([0.0] * 5, [0.0] * 5, [False] * 4 + [True])
        adv, _ = compute_gae(buf, gamma=0.99, lam=0.95)
        assert np.all(adv == 0.0)

    def test_recursion_resets_at_episode_boundary(self):
        buf = make_buffer([1.0, 1.0], [0.0, 0.0], [True, True])
        adv, _ = compute_gae(buf, gamma=1.0, lam=1.0)
        assert np.allclose(adv, [1.0, 1.0])

    def test_normalization(self, rng):
        adv = normalize_advantages(rng.normal(3.0, 7.0, size=500))
        assert abs(adv.mean()) < 1e-10
        assert abs(adv.var() - 1.0) < 1e-6


def toy_setup(seed, clip=0.3):
    rng = np.random.default_rng(seed)
    B, in_dim, a_dim = 8, 2, 2
    policy = PolicyNet(in_dim, a_dim, hidden=(3,), activation="tanh", rng=rng)
    for w in policy.mlp.weights:
        w += rng.standard_normal(w.shape) * 0.3
    policy.log_std = rng.standard_normal(a_dim) * 0.2
    value = Mlp([in_dim, 3, 1], activation="tanh", rng=rng, last_layer_scale=1.0)
    cfg = PpoConfig(horizon=B, minibatch=B, epochs=1, clip=clip)
    obs = rng.standard_normal((B, in_dim))
    mean = policy.mlp.forward(obs)
    act = mean + np.exp(policy.log_std) * rng.standard_normal((B, a_dim))
    old = gaussian_log_prob(act, mean, policy.log_std) + rng.standard_normal(B) * 0.1
    adv = rng.standard_normal(B)
    ret = rng.standard_normal(B)
    return obs, act, old, adv, ret, policy, value, cfg


class TestPpoLoss:
    def test_unit_ratio_gives_mean_advantage(self, rng):
        policy = PolicyNet(2, 1, hidden=(3,), rng=rng)
        value = Mlp([2, 3, 1], rng=rng)
        cfg = PpoConfig(horizon=4, minibatch=4, epochs=1)
        obs = rng.standard_normal((4, 2))
        mean = policy.mlp.forward(obs)
        act = mean + 0.3
        old = gaussian_log_prob(act, mean, policy.log_std)  # ratio == 1 exactly
        adv = np.array([1.0, -2.0, 0.5, 3.0])
        stats, *_ = ppo_loss(obs, act, old, adv, np.zeros(4), policy, value, cfg)
        assert np.isclose(stats["policy_loss"], -adv.mean())

    def test_clip_binds_for_large_ratio(self, rng):
        policy = PolicyNet(1, 1, hidden=(2,), rng=rng)
        value = Mlp([1, 2, 1], rng=rng)
        cfg = PpoConfig(horizon=1, minibatch=1, epochs=1, clip=0.3, value_coef=0.0)
        obs = np.zeros((1, 1))
        mean = policy.mlp.forward(obs)
        act = mean + 0.1
        # old log-prob chosen so the ratio is exactly 2
        old = gaussian_log_prob(act, mean, policy.log_std) - np.log(2.0)
        adv = np.array([1.7])
        stats, *_ = ppo_loss(obs, act, old, adv, np.zeros(1), policy, value, cfg)
        assert np.isclose(stats["policy_loss"], -1.3 * 1.7)

    def test_surrogate_never_exceeds_clip_envelope(self):
        for seed in range(30):
            obs, act, old, adv, ret, policy, value, cfg = toy_setup(seed)
            mean = policy.mlp.forward(obs)
            logp = gaussian_log_prob(act, mean, policy.log_std)
            ratio = np.exp(logp - old)
            surrogate = np.minimum(ratio * adv, np.clip(ratio, 0.7, 1.3) * adv)
            bound = np.maximum.reduce([ratio * adv, 1.3 * adv, 0.7 * adv])
            assert np.all(surrogate <= bound + 1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_match_finite_differences(self, seed):
        obs, act, old, adv, ret, policy, value, cfg = toy_setup(seed)
        stats, pg, lsg, vg = ppo_loss(obs, act, old, adv, ret, policy, value, cfg)
        params = policy.mlp.params() + [policy.log_std] + value.params()
        grads = pg + [lsg] + vg
        h = 1e-6
        for p, g in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = p[ix]
                p[ix] = orig + h
                up = ppo_loss(obs, act, old, adv, ret, policy, value, cfg)[0]["loss"]
                p[ix] = orig - h
                dn = ppo_loss(obs, act, old, adv, ret, policy, value, cfg)[0]["loss"]
                p[ix] = orig
                fd = (up - dn) / (2 * h)
                assert abs(fd - g[ix]) <= 1e-4 * max(abs(fd), abs(g[ix]), 1e-6)


class TestConfig:
    def test_minibatch_larger_than_horizon_rejected(self):
        with pytest.raises(ValueError):
            PpoConfig(horizon=10, minibatch=20)

    def test_nonpositive_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            PpoConfig(learning_rate=0.0)


class TestTrain:
    def test_budget_arithmetic_62_iterations(self):
        class NullEnv:
            observation_dim = 1
            action_dim = 1
            steps_per_episode = 50

            def __init__(self):
                self.t = 0

            def reset(self):
                self.t = 0
                return np.zeros(1)

            def step(self, raw):
                self.t += 1
                return np.zeros(1), 0.0, self.t >= 50

        cfg = PpoConfig(horizon=4000, minibatch=4000, epochs=1, hidden=(2,))
        _p, _v, log = train(NullEnv(), cfg, episodes_budget=5000,
                            rng=np.random.default_rng(0))
        assert len(log) == 62

    def test_bandit_convergence(self):
        ok = 0
        for seed in range(5):
            policy, _v, log = train(BanditEnv(), bandit_config(), episodes_budget=50 * 256,
                                    rng=np.random.default_rng(seed))
            assert len(log) == 50
            mean = float(policy.forward(np.zeros(1))[0][0])
            ok += abs(mean - 0.7) < 0.1
        assert ok >= 4

    def test_bandit_return_improves(self):
        improved = 0
        for seed in range(5):
            _p, _v, log = train(BanditEnv(), bandit_config(), episodes_budget=30 * 256,
                                rng=np.random.default_rng(seed))
            returns = np.array([row["mean_return"] for row in log])
            smooth = np.convolve(returns, np.ones(5) / 5, mode="valid")
            improved += smooth[-1] > smooth[0]
        assert improved >= 4

    def test_training_is_deterministic(self):
        def run():
            _p, _v, log = train(BanditEnv(), bandit_config(epochs=2),
                                episodes_budget=5 * 256, rng=np.random.default_rng(3))
            return log

        assert run() == run()

    def test_nan_injection_raises_instability(self, nan_gradient_once):
        cfg = bandit_config()
        with pytest.raises(TrainingInstability):
            train(BanditEnv(), cfg, episodes_budget=5 * 256, rng=np.random.default_rng(0))


def test_gradient_clipping_rescales_to_max_norm():
    grads = [np.array([30.0, 40.0]), np.array([0.0])]  # norm 50
    clipped = clip_gradients(grads, 40.0)
    total = np.sqrt(sum(np.sum(g ** 2) for g in clipped))
    assert np.isclose(total, 40.0)
    untouched = clip_gradients([np.array([1.0])], 40.0)
    assert untouched[0][0] == 1.0


def test_adam_moves_toward_minimum():
    p = np.array([5.0])
    opt = Adam([p], lr=0.5)
    for _ in range(200):
        opt.step([2.0 * p])  # gradient of p^2
    assert abs(p[0]) < 1e-3

import math
import os

import numpy as np
import pytest

from evoadapt import ppo
from evoadapt.forked import ChildDied
from evoadapt.policy import Mlp, PolicyNet, gaussian_log_prob
from evoadapt.ppo import (ActorCritic, Adam, PpoConfig, Sgd, TrainingInstability,
                          clip_gradients, compute_gae,
                          normalize_advantages, ppo_loss, train, value_loss)

from conftest import SerialRollout, assert_no_child_left


class BanditEnv(SerialRollout):
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
    return (np.asarray(rewards, dtype=float), np.asarray(values, dtype=float),
            np.asarray(dones, dtype=bool))


class TestGae:
    def test_undiscounted_return_to_go(self):
        rewards = [1.0, 2.0, 3.0]
        buf = make_buffer(rewards, [0, 0, 0], [False, False, True])
        adv, ret = compute_gae(*buf, gamma=1.0, lam=1.0, last_value=0.0)
        assert np.allclose(adv, [6.0, 5.0, 3.0])
        assert np.allclose(ret, adv)

    def test_single_step_episode(self):
        buf = make_buffer([2.0], [0.5], [True])
        adv, ret = compute_gae(*buf, gamma=0.9, lam=0.8, last_value=0.0)
        assert np.isclose(adv[0], 2.0 - 0.5)  # terminal bootstrap 0
        assert np.isclose(ret[0], 2.0)

    def test_all_zero_inputs_give_zero_advantages(self):
        buf = make_buffer([0.0] * 5, [0.0] * 5, [False] * 4 + [True])
        adv, _ = compute_gae(*buf, gamma=0.99, lam=0.95, last_value=0.0)
        assert np.all(adv == 0.0)

    def test_recursion_resets_at_episode_boundary(self):
        buf = make_buffer([1.0, 1.0], [0.0, 0.0], [True, True])
        adv, _ = compute_gae(*buf, gamma=1.0, lam=1.0, last_value=0.0)
        assert np.allclose(adv, [1.0, 1.0])

    def test_last_value_bootstraps_a_rollout_cut_mid_episode(self):
        buf = make_buffer([1.0, 2.0], [0.5, 0.25], [False, False])
        adv, ret = compute_gae(*buf, gamma=0.9, lam=0.8, last_value=4.0)
        tail = 2.0 + 0.9 * 4.0 - 0.25
        head = 1.0 + 0.9 * 0.25 - 0.5 + 0.9 * 0.8 * tail
        assert np.allclose(adv, [head, tail])
        assert np.allclose(ret, [head + 0.5, tail + 0.25])

    def test_last_value_is_ignored_after_a_terminal_step(self):
        buf = make_buffer([1.0, 2.0], [0.5, 0.25], [False, True])
        adv, ret = compute_gae(*buf, gamma=0.9, lam=0.8, last_value=1e6)
        zero_adv, zero_ret = compute_gae(*buf, gamma=0.9, lam=0.8, last_value=0.0)
        assert np.array_equal(adv, zero_adv)
        assert np.array_equal(ret, zero_ret)

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
        stats = ppo_loss(obs, act, old, adv, ActorCritic(policy, value), cfg)
        assert np.isclose(stats["policy_loss"], -adv.mean())

    def test_clip_binds_for_large_ratio(self, rng):
        policy = PolicyNet(1, 1, hidden=(2,), rng=rng)
        value = Mlp([1, 2, 1], rng=rng)
        cfg = PpoConfig(horizon=1, minibatch=1, epochs=1, clip=0.3)
        obs = np.zeros((1, 1))
        mean = policy.mlp.forward(obs)
        act = mean + 0.1
        # old log-prob chosen so the ratio is exactly 2
        old = gaussian_log_prob(act, mean, policy.log_std) - np.log(2.0)
        adv = np.array([1.7])
        stats = ppo_loss(obs, act, old, adv, ActorCritic(policy, value), cfg)
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
        net = ActorCritic(policy, value)

        def loss():  # the PPO loss; each learner's call writes its slice of net.grad
            return (ppo_loss(obs, act, old, adv, net, cfg)["policy_loss"]
                    + cfg.value_coef * value_loss(obs, ret, net, cfg))

        loss()
        grad = net.grad.copy()
        p = net.theta
        h = 1e-6
        for ix in range(p.size):
            orig = p[ix]
            p[ix] = orig + h
            up = loss()
            p[ix] = orig - h
            dn = loss()
            p[ix] = orig
            fd = (up - dn) / (2 * h)
            assert abs(fd - grad[ix]) <= 1e-4 * max(abs(fd), abs(grad[ix]), 1e-6)


class TestConfig:
    def test_minibatch_larger_than_horizon_rejected(self):
        with pytest.raises(ValueError):
            PpoConfig(horizon=10, minibatch=20)

    def test_nonpositive_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            PpoConfig(learning_rate=0.0)

    @pytest.mark.parametrize("sizes", [{"minibatch": 0}, {"minibatch": -5},
                                       {"horizon": 0, "minibatch": 0}, {"epochs": 0},
                                       {"epochs": -1}, {"checkpoint_every": 0},
                                       {"hidden": [50, 0]}])
    def test_sizes_below_one_rejected(self, sizes):
        with pytest.raises(ValueError, match=f"{next(iter(sizes))} must be at least 1"):
            PpoConfig(**sizes)


class TestTrain:
    def test_budget_arithmetic_62_iterations(self):
        class NullEnv(SerialRollout):
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
    clipped = np.array([30.0, 40.0, 0.0])  # norm 50
    clip_gradients(clipped, 40.0)
    total = np.sqrt(np.sum(clipped ** 2))
    assert np.isclose(total, 40.0)
    untouched = np.array([1.0])
    clip_gradients(untouched, 40.0)
    assert untouched[0] == 1.0


def test_adam_moves_toward_minimum():
    p = np.array([5.0])
    opt = Adam(p, lr=0.5)
    for _ in range(200):
        opt.step(2.0 * p)  # gradient of p^2
    assert abs(p[0]) < 1e-3


# ---------------------------------------------------------------------------
# The flat update against a per-array reference

class RandomObsEnv(SerialRollout):
    """Observations of the DE policy's size (44 inputs, 4 actions), reward
    pulling the action towards 0.3, 49-step episodes."""

    observation_dim = 44
    action_dim = 4
    steps_per_episode = 49

    def __init__(self):
        self.rng = np.random.default_rng(7)
        self.t = 0

    def reset(self):
        self.t = 0
        return self.rng.standard_normal(44)

    def step(self, raw):
        self.t += 1
        return (self.rng.standard_normal(44), -float(np.sum((raw - 0.3) ** 2)),
                self.t >= 49)


def reference_grads(obs, raw, old_logp, adv, ret, policy, value, cfg):
    """Per-array loss gradients: each net's own forward and backward pass."""
    B = len(obs)

    def forward(net, x):
        post = [x]
        for li, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = post[-1] @ w.T + b
            post.append(z if li == len(net.weights) - 1 else net.activate(z))
        return post

    def backward(net, post, delta):
        gw, gb = [None] * len(net.weights), [None] * len(net.biases)
        for li in reversed(range(len(net.weights))):
            gw[li], gb[li] = delta.T @ post[li], delta.sum(axis=0)
            if li > 0:
                delta = (delta @ net.weights[li]) * net.activation_grad(post[li])
        return gw + gb

    post_p, post_v = forward(policy.mlp, obs), forward(value, obs)
    std = np.exp(policy.log_std)
    diff = raw - post_p[-1]
    z = diff / std
    logp = np.sum(-0.5 * z ** 2 - policy.log_std - 0.5 * math.log(2 * math.pi), axis=1)
    ratio = np.exp(logp - old_logp)
    surr1 = ratio * adv
    surr2 = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * adv
    d_logp = -((surr1 <= surr2).astype(float) * ratio * adv) / B
    grad_log_std = np.sum(d_logp[:, None] * (z ** 2 - 1.0), axis=0)
    policy_grads = backward(policy.mlp, post_p, d_logp[:, None] * (diff / std ** 2))
    v_err = post_v[-1][:, 0] - ret
    value_grads = backward(value, post_v, (cfg.value_coef * 2.0 * v_err / B)[:, None])
    return policy_grads + [grad_log_std], value_grads


def flat_order_norm(grads, n_layers):
    """Norm of a net's per-array gradients (weights, biases, then the
    policy's log_std) summed in the flat layout's order: layer by layer,
    weights then bias, then log_std."""
    w, b = grads[:n_layers], grads[n_layers:2 * n_layers]
    order = [x for li in range(n_layers) for x in (w[li], b[li])] + grads[2 * n_layers:]
    flat = np.concatenate([x.ravel() for x in order])
    return math.sqrt(float(flat @ flat))


def reference_iteration(env, cfg, rng, flat_norm=False):
    """One PPO iteration of `train` with per-array parameters, per-array
    gradient clipping and per-array SGD/Adam steps. The clipping norm sums
    per-array sums of squares, or with `flat_norm` all squares in the flat
    layout's order."""
    in_dim, a_dim, T = env.observation_dim, env.action_dim, cfg.horizon
    policy = PolicyNet(in_dim, a_dim, hidden=cfg.hidden, activation=cfg.activation, rng=rng)
    value = Mlp([in_dim, *cfg.hidden, 1], activation=cfg.activation, rng=rng,
                last_layer_scale=1.0)
    obs_buf, act_buf = np.empty((T, in_dim)), np.empty((T, a_dim))
    logp_buf, rew_buf, val_buf = np.empty(T), np.empty(T), np.empty(T)
    done_buf = np.zeros(T, dtype=bool)
    obs = env.reset()
    for t in range(T):
        mean, log_std = policy.forward(obs)
        raw = mean + np.exp(log_std) * rng.standard_normal(a_dim)
        obs_buf[t], act_buf[t] = obs, raw
        logp_buf[t] = float(gaussian_log_prob(raw, mean, log_std))
        val_buf[t] = float(value.forward(obs)[0])
        obs, rew_buf[t], done_buf[t] = env.step(raw)
        if done_buf[t]:
            obs = env.reset()
    last_value = 0.0 if done_buf[-1] else float(value.forward(obs)[0])
    adv, ret = compute_gae(rew_buf, val_buf, done_buf, cfg.gamma, cfg.gae_lambda, last_value)
    adv = normalize_advantages(adv)

    params = [policy.params(), value.params()]
    moments = [[[np.zeros_like(p), np.zeros_like(p)] for p in ps] for ps in params]
    step = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(T)
        for start in range(0, T, cfg.minibatch):
            idx = perm[start:start + cfg.minibatch]
            grads = reference_grads(obs_buf[idx], act_buf[idx], logp_buf[idx], adv[idx],
                                    ret[idx], policy, value, cfg)
            step += 1
            for ps, gs, ms in zip(params, grads, moments):
                total = (flat_order_norm(gs, len(value.weights)) if flat_norm
                         else math.sqrt(sum(float(np.sum(g ** 2)) for g in gs)))
                if total > cfg.grad_clip:
                    gs = [g * (cfg.grad_clip / total) for g in gs]
                for p, g, m in zip(ps, gs, ms):
                    if cfg.optimizer == "sgd":
                        p -= cfg.learning_rate * g
                        continue
                    m[0] = 0.9 * m[0] + (1 - 0.9) * g
                    m[1] = 0.999 * m[1] + (1 - 0.999) * g ** 2
                    m_hat, v_hat = m[0] / (1 - 0.9 ** step), m[1] / (1 - 0.999 ** step)
                    p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    return policy.params() + value.params()


def one_iteration(optimizer, grad_clip, flat_norm=False, hidden=(50, 50)):
    # 160 steps: minibatches of 128 and 32 rows, as in a default 4000-step
    # horizon; 4 episodes of 49 steps fill it once
    cfg = PpoConfig(horizon=160, minibatch=128, epochs=3, optimizer=optimizer,
                    learning_rate=1e-3, grad_clip=grad_clip, hidden=hidden)
    policy, value, log = train(RandomObsEnv(), cfg, episodes_budget=4,
                               rng=np.random.default_rng(5))
    assert len(log) == 1
    reference = reference_iteration(RandomObsEnv(), cfg, np.random.default_rng(5), flat_norm)
    return policy.params() + value.params(), reference


@pytest.mark.parametrize("hidden", [(), (1,), (2,), (3,), (2, 2), (50, 50)],
                         ids=lambda hidden: "x".join(map(str, hidden)) or "linear")
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_flat_update_equals_per_array_update_bit_for_bit(optimizer, hidden):
    # clipping never binds
    flat, reference = one_iteration(optimizer, grad_clip=1e6, hidden=hidden)
    for a, b in zip(flat, reference):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_binding_clip_differs_only_in_the_norms_summation_order(optimizer):
    # summed in the flat order, the reference's clipping norm gives the same bytes
    flat, reference = one_iteration(optimizer, grad_clip=0.05, flat_norm=True)
    for a, b in zip(flat, reference):
        assert a.tobytes() == b.tobytes()
    unclipped, _ = one_iteration(optimizer, grad_clip=1e6)
    assert any(a.tobytes() != u.tobytes() for a, u in zip(flat, unclipped))  # it binds


def test_flat_and_per_array_gradient_norms_agree():
    # summed per array, the norm (so a binding clip's scale) differs from the
    # flat one by summation order only; weights a clip scaled an ulp apart can
    # differ by more after cancellation, so the bound is on the norm
    rng = np.random.default_rng(3)
    policy = PolicyNet(44, 4, rng=rng)
    value = Mlp([44, 50, 50, 1], rng=rng, last_layer_scale=1.0)
    net = ActorCritic(policy, value)
    obs, act = rng.standard_normal((128, 44)), rng.standard_normal((128, 4))
    ppo_loss(obs, act, rng.standard_normal(128) - 5.0, rng.standard_normal(128), net,
             PpoConfig())
    value_loss(obs, rng.standard_normal(128), net, PpoConfig())
    parts = (net.grad_policy.params(), net.grad_value.params())
    for grad, arrays in zip(net.grad_slices, parts):
        per_array = math.sqrt(sum(float(np.sum(g ** 2)) for g in arrays))
        np.testing.assert_allclose(math.sqrt(float(grad @ grad)), per_array, rtol=1e-15)


# ---------------------------------------------------------------------------
# The forked value learner against the serial update

def serial_train(env, cfg, episodes_budget, rng, on_iteration=None):
    """`train` with the update as one loop over both nets: per minibatch
    both loss terms and the check of their sum, each slice's clip, one
    optimizer step over the whole vector, and the weights check after each
    epoch. Returns (net, optimizer, log_rows)."""
    in_dim, a_dim, T = env.observation_dim, env.action_dim, cfg.horizon
    policy = PolicyNet(in_dim, a_dim, cfg.hidden, cfg.activation, rng)
    value = Mlp([in_dim, *cfg.hidden, 1], activation=cfg.activation, rng=rng,
                last_layer_scale=1.0)
    net = ActorCritic(policy, value)
    optimizer = {"sgd": Sgd, "adam": Adam}[cfg.optimizer](net.theta, cfg.learning_rate)
    packed = np.empty((T, in_dim + a_dim + 3))
    obs_buf, act_buf = packed[:, :in_dim], packed[:, in_dim:in_dim + a_dim]
    logp_buf, adv_buf, ret_buf = packed[:, in_dim + a_dim:].T
    rew_buf, val_buf = np.empty((2, T))
    mean_buf = np.empty((T, a_dim))
    done_buf = np.empty(T, dtype=bool)
    episodes_done, log_rows, iteration, ep_return = 0, [], 0, 0.0
    obs = env.reset()
    while (episodes_budget - episodes_done) * env.steps_per_episode >= T:
        iter_returns = []
        for t in range(T):
            mean, log_std = policy.forward(obs)
            raw = mean + np.exp(log_std) * rng.standard_normal(a_dim)
            val = float(value.forward(obs)[0])
            next_obs, r, done = env.step(raw)
            obs_buf[t], act_buf[t], mean_buf[t] = obs, raw, mean
            rew_buf[t], val_buf[t], done_buf[t] = r, val, done
            ep_return += r
            if done:
                episodes_done += 1
                iter_returns.append(ep_return)
                ep_return = 0.0
                next_obs = env.reset()
            obs = next_obs
        logp_buf[:] = gaussian_log_prob(act_buf, mean_buf, log_std)
        last_value = 0.0 if done_buf[-1] else float(value.forward(obs)[0])
        advantages, ret_buf[:] = compute_gae(rew_buf, val_buf, done_buf, cfg.gamma,
                                             cfg.gae_lambda, last_value)
        adv_buf[:] = normalize_advantages(advantages)
        for _ in range(cfg.epochs):
            perm = rng.permutation(T)
            for start in range(0, T, cfg.minibatch):
                mb = packed[perm[start:start + cfg.minibatch]]
                obs_mb = mb[:, :in_dim]
                stats = ppo_loss(obs_mb, mb[:, in_dim:in_dim + a_dim],
                                 *mb[:, in_dim + a_dim:-1].T, net, cfg)
                v_loss = value_loss(obs_mb, mb[:, -1], net, cfg)
                if not math.isfinite(stats["policy_loss"] + cfg.value_coef * v_loss):
                    raise TrainingInstability(f"non-finite loss at iteration {iteration}")
                for grad in net.grad_slices:
                    ppo.clip_gradients(grad, cfg.grad_clip)
                optimizer.step(net.grad)
            if not np.isfinite(net.theta).all():
                raise TrainingInstability(f"non-finite weights at iteration {iteration}")
        row = {"iteration": iteration, "episodes_done": episodes_done,
               "mean_return": float(np.mean(iter_returns)) if iter_returns else float("nan"),
               "policy_loss": stats["policy_loss"], "value_loss": v_loss,
               "entropy": stats["entropy"]}
        log_rows.append(row)
        if on_iteration is not None:
            on_iteration(iteration, policy, value, row)
        iteration += 1
    return net, optimizer, log_rows


# 160-step horizon: minibatches of 128 and 32 rows; 8 episodes of 49 steps fill it twice
TWO_ITERATIONS = 8


def two_iteration_config(**overrides):
    return PpoConfig(**{"horizon": 160, "minibatch": 128, "epochs": 3, "learning_rate": 1e-3,
                        **overrides})


@pytest.fixture
def made_optimizers(monkeypatch):
    """The optimizers `train` makes, in the order it makes them."""
    made = []
    for cls in (Sgd, Adam):
        class Recorded(cls):
            def __init__(self, theta, lr):
                super().__init__(theta, lr)
                made.append(self)

        monkeypatch.setattr(ppo, cls.__name__, Recorded)
    return made


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_forked_learners_equal_the_serial_update_bit_for_bit(optimizer, activation,
                                                             made_optimizers, deadline):
    cfg = two_iteration_config(optimizer=optimizer, activation=activation)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    policy, value, log = train(RandomObsEnv(), cfg, TWO_ITERATIONS, rng)
    ref, ref_opt, ref_log = serial_train(RandomObsEnv(), cfg, TWO_ITERATIONS, ref_rng)
    assert_no_child_left()

    assert len(log) == 2 and log == ref_log
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for a, b in zip(policy.params() + value.params(), ref.policy.params() + ref.value.params()):
        assert a.tobytes() == b.tobytes()
    assert len(made_optimizers) == 2
    assert all(isinstance(o, type(ref_opt)) for o in made_optimizers)
    state = [np.concatenate([o.theta for o in made_optimizers])]
    ref_state = [ref_opt.theta]
    if optimizer == "adam":
        state += [np.concatenate([o.m for o in made_optimizers]),
                  np.concatenate([o.v for o in made_optimizers])]
        ref_state += [ref_opt.m, ref_opt.v]
        assert [o.t for o in made_optimizers] == [ref_opt.t] * 2 == [2 * 3 * 2] * 2
    for a, b in zip(state, ref_state):
        assert a.tobytes() == b.tobytes()


class Poison:
    """Stands in for `ppo.clip_gradients`. Once armed, it writes a NaN into
    a learner's gradient after its clip call number `at[learner]`, counted
    from 0 since arming; the learners are told apart by their gradients'
    sizes."""

    def __init__(self, real, policy_size):
        self.real, self.policy_size = real, policy_size
        self.at, self.calls = {}, {}

    def arm(self, **at):
        self.at, self.calls = at, {"policy": 0, "value": 0}

    def __call__(self, grad, max_norm):
        self.real(grad, max_norm)
        learner = "policy" if grad.size == self.policy_size else "value"
        if learner in self.at:
            if self.calls[learner] == self.at[learner]:
                grad[0] = np.nan
            self.calls[learner] += 1


# two minibatches per epoch: a NaN written after minibatch 0 makes minibatch
# 1's loss non-finite, one written after minibatch 1 the weights at the epoch's end
@pytest.mark.parametrize("at,failure", [
    ({"policy": 0}, "loss"),
    ({"value": 0}, "loss"),
    ({"policy": 1}, "weights"),
    ({"value": 1}, "weights"),
    ({"policy": 1, "value": 2}, "weights"),
    ({"policy": 2, "value": 1}, "weights"),
    ({"policy": 1, "value": 0}, "loss"),
    ({"policy": 0, "value": 1}, "loss"),
], ids=lambda x: "-".join(f"{k}{v}" for k, v in x.items()) if isinstance(x, dict) else x)
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_first_failure_in_the_serial_order_wins(monkeypatch, deadline, optimizer, at,
                                                failure):
    cfg = two_iteration_config(optimizer=optimizer)
    policy_size = sum(p.size for p in PolicyNet(44, 4, cfg.hidden).params())
    poison = Poison(ppo.clip_gradients, policy_size)
    monkeypatch.setattr(ppo, "clip_gradients", poison)

    def arm_after_iteration_0(iteration, *_):
        if iteration == 0:
            poison.arm(**at)

    messages = []
    for run in (serial_train, train):
        poison.arm()
        with pytest.raises(TrainingInstability) as caught:
            run(RandomObsEnv(), cfg, TWO_ITERATIONS, np.random.default_rng(5),
                on_iteration=arm_after_iteration_0)
        messages.append(str(caught.value))
    assert messages == [f"non-finite {failure} at iteration 1"] * 2
    assert_no_child_left()


class Boom(Exception):
    pass


def test_an_exception_in_the_policy_learner_kills_and_reaps_the_child(monkeypatch, deadline):
    real, calls = ppo.ppo_loss, [0]

    def failing(*args):
        calls[0] += 1
        if calls[0] == 3:
            raise Boom("policy learner failed")
        return real(*args)

    monkeypatch.setattr(ppo, "ppo_loss", failing)
    with pytest.raises(Boom, match="policy learner failed"):
        train(RandomObsEnv(), two_iteration_config(), TWO_ITERATIONS, np.random.default_rng(5))
    assert_no_child_left()


def exit_3(*_):
    os._exit(3)


def raise_boom(*_):
    raise Boom("value learner failed")


@pytest.mark.parametrize("value_loss_stub,error,match", [
    (exit_3, ChildDied, "exited with status 3$"),
    (raise_boom, Boom, "^value learner failed\n"),  # then the child's traceback
], ids=["exit_3-3", "raise_boom-1"])
def test_a_value_learner_that_exits_non_zero_raises(monkeypatch, deadline, value_loss_stub,
                                                     error, match):
    """A child that dies raises ChildDied; one whose value learner raises
    hands back the learner's own exception."""
    monkeypatch.setattr(ppo, "value_loss", value_loss_stub)
    with pytest.raises(error, match=match):
        train(RandomObsEnv(), two_iteration_config(), TWO_ITERATIONS, np.random.default_rng(5))
    assert_no_child_left()

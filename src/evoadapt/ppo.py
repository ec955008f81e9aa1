"""Proximal Policy Optimization with a clipped surrogate objective.

Single actor, generalized advantage estimation, minibatch SGD (or Adam) with
analytically derived gradients over the numpy policy/value networks. A NaN in
the loss, gradients or weights raises TrainingInstability so a wrapper can
retry with a fresh seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .policy import LOG_2PI, Mlp, PolicyNet, gaussian_log_prob


class TrainingInstability(RuntimeError):
    """Training produced non-finite weights, loss or gradients."""


@dataclass
class PpoConfig:
    epochs: int = 200
    horizon: int = 4000
    minibatch: int = 128
    clip: float = 0.3
    gamma: float = 0.99
    gae_lambda: float = 1.0
    learning_rate: float = 5e-5
    value_coef: float = 1.0
    entropy_coef: float = 0.0
    optimizer: str = "sgd"  # "sgd" | "adam"
    grad_clip: float = 40.0
    hidden: tuple = (50, 50)
    activation: str = "relu"
    log_std_init: float = 0.0
    checkpoint_every: int = 10

    def __post_init__(self):
        if self.minibatch > self.horizon:
            raise ValueError("minibatch size must be <= horizon")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class RolloutBuffer:
    obs: np.ndarray
    actions: np.ndarray      # raw pre-clip draws
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray        # episode-terminal flags


def compute_gae(buffer: RolloutBuffer, gamma: float, lam: float,
                last_value: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """GAE over the buffer; the recursion resets at episode boundaries.

    Terminated episodes bootstrap with value 0; `last_value` bootstraps the
    buffer tail if it does not end on a terminal step.
    """
    T = len(buffer.rewards)
    advantages = np.zeros(T)
    gae = 0.0
    next_value = last_value
    for t in reversed(range(T)):
        if buffer.dones[t]:
            next_value = 0.0
            gae = 0.0
        delta = buffer.rewards[t] + gamma * next_value - buffer.values[t]
        gae = delta + gamma * lam * gae
        advantages[t] = gae
        next_value = buffer.values[t]
    return advantages, advantages + buffer.values


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    return (advantages - advantages.mean()) / (advantages.std() + 1e-8)


def ppo_loss(obs, raw_actions, old_log_probs, advantages, returns,
             policy: PolicyNet, value: Mlp, cfg: PpoConfig):
    """Loss, statistics and analytic gradients for one minibatch.

    Loss = -(clipped surrogate) + c_v * value MSE - c_e * entropy.
    Returns (stats, policy_weight_grads, log_std_grad, value_weight_grads).
    """
    obs = np.asarray(obs, dtype=float)
    raw_actions = np.asarray(raw_actions, dtype=float)
    B = len(obs)

    mean, cache_p = policy.mlp.forward_cache(obs)
    log_std = policy.log_std
    std = np.exp(log_std)
    diff = raw_actions - mean
    z = diff / std
    logp = np.sum(-0.5 * z ** 2 - log_std - 0.5 * LOG_2PI, axis=1)

    ratio = np.exp(logp - old_log_probs)
    surr1 = ratio * advantages
    surr2 = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * advantages
    surrogate = np.minimum(surr1, surr2)
    policy_loss = -float(surrogate.mean())

    entropy = float(np.sum(log_std + 0.5 * (LOG_2PI + 1.0)))

    v_out, cache_v = value.forward_cache(obs)
    v = v_out[:, 0]
    v_err = v - returns
    value_loss = float(np.mean(v_err ** 2))

    loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy

    # gradient flows through the unclipped branch only where it is the minimum
    active = (surr1 <= surr2).astype(float)
    d_logp = -(active * ratio * advantages) / B
    grad_mean = d_logp[:, None] * (diff / std ** 2)
    grad_log_std = np.sum(d_logp[:, None] * (z ** 2 - 1.0), axis=0)
    grad_log_std -= cfg.entropy_coef * np.ones_like(log_std)
    policy_w, policy_b = policy.mlp.backward(cache_p, grad_mean)

    grad_v = (cfg.value_coef * 2.0 * v_err / B)[:, None]
    value_w, value_b = value.backward(cache_v, grad_v)

    stats = {
        "loss": float(loss),
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "clip_fraction": float(np.mean(active < 0.5)),
    }
    return stats, policy_w + policy_b, grad_log_std, value_w + value_b


# ---------------------------------------------------------------------------
# Optimizers

class Sgd:
    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr

    def step(self, grads: list[np.ndarray]) -> None:
        for p, g in zip(self.params, grads):
            p -= self.lr * g


class Adam:
    def __init__(self, params: list[np.ndarray], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g ** 2
            m_hat = self.m[i] / (1 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1 - self.beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    total = math.sqrt(sum(float(np.sum(g ** 2)) for g in grads))
    if total > max_norm > 0.0:
        scale = max_norm / total
        return [g * scale for g in grads]
    return grads


def _make_optimizer(kind: str, params: list[np.ndarray], lr: float):
    if kind == "sgd":
        return Sgd(params, lr)
    if kind == "adam":
        return Adam(params, lr)
    raise ValueError(f"unknown optimizer {kind!r}")


# ---------------------------------------------------------------------------
# Training loop

def train(env, config: PpoConfig, episodes_budget: int, rng: np.random.Generator,
          on_iteration=None):
    """Iterate collect-T-steps / K-epoch optimization until the episode budget
    cannot fill another horizon. Returns (policy, value_net, log_rows)."""
    in_dim = env.observation_dim
    a_dim = env.action_dim
    policy = PolicyNet(in_dim, a_dim, hidden=config.hidden, activation=config.activation,
                       rng=rng, log_std_init=config.log_std_init)
    value = Mlp([in_dim, *config.hidden, 1], activation=config.activation, rng=rng,
                last_layer_scale=1.0)

    opt_policy = _make_optimizer(config.optimizer, policy.mlp.params() + [policy.log_std],
                                 config.learning_rate)
    opt_value = _make_optimizer(config.optimizer, value.params(), config.learning_rate)

    T = config.horizon
    steps_per_episode = env.steps_per_episode
    episodes_done = 0
    log_rows = []
    iteration = 0
    obs = env.reset()
    ep_return = 0.0
    completed_returns: list[float] = []

    while (episodes_budget - episodes_done) * steps_per_episode >= T:
        obs_buf = np.empty((T, in_dim))
        act_buf = np.empty((T, a_dim))
        logp_buf = np.empty(T)
        rew_buf = np.empty(T)
        val_buf = np.empty(T)
        done_buf = np.zeros(T, dtype=bool)
        iter_returns: list[float] = []

        for t in range(T):
            mean, log_std = policy.forward(obs)
            raw = mean + np.exp(log_std) * rng.standard_normal(a_dim)
            logp = float(gaussian_log_prob(raw, mean, log_std))
            val = float(value.forward(obs)[0])

            next_obs, r, done = env.step(raw)
            obs_buf[t] = obs
            act_buf[t] = raw
            logp_buf[t] = logp
            rew_buf[t] = r
            val_buf[t] = val
            done_buf[t] = done
            ep_return += r
            if done:
                episodes_done += 1
                iter_returns.append(ep_return)
                completed_returns.append(ep_return)
                ep_return = 0.0
                next_obs = env.reset()
            obs = next_obs

        last_value = 0.0 if done_buf[-1] else float(value.forward(obs)[0])
        buffer = RolloutBuffer(obs_buf, act_buf, logp_buf, rew_buf, val_buf, done_buf)
        advantages, returns = compute_gae(buffer, config.gamma, config.gae_lambda, last_value)
        advantages = normalize_advantages(advantages)

        stats = {}
        for _ in range(config.epochs):
            perm = rng.permutation(T)
            for start in range(0, T, config.minibatch):
                idx = perm[start:start + config.minibatch]
                stats, pg, lsg, vg = ppo_loss(
                    obs_buf[idx], act_buf[idx], logp_buf[idx],
                    advantages[idx], returns[idx], policy, value, config,
                )
                if not math.isfinite(stats["loss"]):
                    raise TrainingInstability(f"non-finite loss at iteration {iteration}")
                pg = clip_gradients(pg + [lsg], config.grad_clip)
                vg = clip_gradients(vg, config.grad_clip)
                opt_policy.step(pg)
                opt_value.step(vg)
            if policy.has_nan() or value.has_nan():
                raise TrainingInstability(f"non-finite weights at iteration {iteration}")

        row = {
            "iteration": iteration,
            "episodes_done": episodes_done,
            "mean_return": float(np.mean(iter_returns)) if iter_returns else float("nan"),
            "policy_loss": stats.get("policy_loss", float("nan")),
            "value_loss": stats.get("value_loss", float("nan")),
            "entropy": stats.get("entropy", float("nan")),
        }
        log_rows.append(row)
        if on_iteration is not None:
            on_iteration(iteration, policy, value, row)
        iteration += 1

    return policy, value, log_rows

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
    optimizer: str = "sgd"  # "sgd" | "adam"
    grad_clip: float = 40.0
    hidden: tuple = (50, 50)
    activation: str = "relu"
    checkpoint_every: int = 10

    def __post_init__(self):
        self.hidden = tuple(self.hidden)
        for name in ("epochs", "horizon", "minibatch", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden must be at least 1 wide in every layer, "
                             f"got {list(self.hidden)}")
        if self.minibatch > self.horizon:
            raise ValueError("minibatch size must be <= horizon")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray, gamma: float,
                lam: float, last_value: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """GAE over a rollout; the recursion resets at episode boundaries
    (`dones` flags each episode's terminal step).

    Terminated episodes bootstrap with value 0; `last_value` bootstraps the
    rollout tail if it does not end on a terminal step.
    """
    T = len(rewards)
    advantages = np.zeros(T)
    gae = 0.0
    next_value = last_value
    for t in reversed(range(T)):
        if dones[t]:
            next_value = 0.0
            gae = 0.0
        delta = rewards[t] + gamma * next_value - values[t]
        gae = delta + gamma * lam * gae
        advantages[t] = gae
        next_value = values[t]
    return advantages, advantages + values


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    return (advantages - advantages.mean()) / (advantages.std() + 1e-8)


class ActorCritic:
    """Policy and value nets whose parameters are views into one vector.

    `theta` holds the policy's layers (weights, then bias, layer by layer),
    its log_std, then the value net's layers. `grad` has the same layout, with
    `grad_policy`/`grad_value` nets of views into it.
    """

    def __init__(self, policy: PolicyNet, value: Mlp):
        self.policy, self.value = policy, value
        self.grad_policy = PolicyNet(policy.in_dim, policy.action_dim,
                                     hidden=policy.mlp.sizes[1:-1])
        self.grad_value = Mlp(value.sizes)
        self.theta = _bind(policy, value)
        self.grad = _bind(self.grad_policy, self.grad_value)
        split = sum(p.size for p in policy.params())
        self.grad_slices = (self.grad[:split], self.grad[split:])


def _bind(policy: PolicyNet, value: Mlp) -> np.ndarray:
    """Copy the nets' parameters into one vector in `ActorCritic`'s layout
    and make every parameter attribute a view into it."""
    def layers(net):
        return [(a, i) for i in range(len(net.weights)) for a in (net.weights, net.biases)]

    slots = layers(policy.mlp) + [(vars(policy), "log_std")] + layers(value)
    arrays = [np.asarray(owner[key], dtype=float) for owner, key in slots]
    flat = np.concatenate([a.ravel() for a in arrays])
    end = 0
    for (owner, key), a in zip(slots, arrays):
        owner[key] = flat[end:end + a.size].reshape(a.shape)
        end += a.size
    return flat


def ppo_loss(obs, raw_actions, old_log_probs, advantages, returns, net: ActorCritic,
             cfg: PpoConfig) -> dict:
    """Loss and statistics of one minibatch; writes the analytic gradient of
    the loss into `net.grad`.

    Loss = -(clipped surrogate) + c_v * value MSE; the entropy is only reported.
    """
    p, v = net.policy.mlp, net.value
    B = len(obs)
    mean, ins_p = p.forward_cache(obs)
    v_out, ins_v = v.forward_cache(obs)

    log_std = net.policy.log_std
    std = np.exp(log_std)
    diff = raw_actions - mean
    z2 = (diff / std) ** 2
    logp = np.add.reduce(-0.5 * z2 - log_std - 0.5 * LOG_2PI, axis=1)

    ratio = np.exp(logp - old_log_probs)
    surr1 = ratio * advantages
    surr2 = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip) * advantages
    policy_loss = -float(np.add.reduce(np.minimum(surr1, surr2))) / B

    entropy = float(np.add.reduce(log_std + 0.5 * (LOG_2PI + 1.0)))

    v_err = v_out[:, 0] - returns
    value_loss = float(np.add.reduce(v_err ** 2)) / B

    loss = policy_loss + cfg.value_coef * value_loss

    # gradient flows through the unclipped branch only where it is the minimum
    active = surr1 <= surr2
    d_logp = -(active * surr1) / B
    np.add.reduce(d_logp[:, None] * (z2 - 1.0), axis=0, out=net.grad_policy.log_std)

    p.backward(ins_p, d_logp[:, None] * (diff / std ** 2), net.grad_policy.mlp)
    v.backward(ins_v, (cfg.value_coef * 2.0 * v_err / B)[:, None], net.grad_value)

    return {"loss": float(loss), "policy_loss": policy_loss, "value_loss": value_loss,
            "entropy": entropy, "clip_fraction": 1.0 - np.count_nonzero(active) / B}


# ---------------------------------------------------------------------------
# Optimizers, each one vector operation over the flat parameters

class Sgd:
    def __init__(self, theta: np.ndarray, lr: float):
        self.theta, self.lr = theta, lr

    def step(self, grad: np.ndarray) -> None:
        self.theta -= self.lr * grad


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


class Adam:
    def __init__(self, theta: np.ndarray, lr: float):
        self.theta, self.lr = theta, lr
        self.m, self.v, self.t = np.zeros_like(theta), np.zeros_like(theta), 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad ** 2
        m_hat = self.m / (1 - ADAM_BETA1 ** self.t)
        v_hat = self.v / (1 - ADAM_BETA2 ** self.t)
        self.theta -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def clip_gradients(grad: np.ndarray, max_norm: float) -> None:
    """Scale a 1-D gradient in place so that its norm is at most `max_norm`."""
    total = math.sqrt(float(grad @ grad))
    if total > max_norm > 0.0:
        grad *= max_norm / total


# ---------------------------------------------------------------------------
# Training loop

def train(env, config: PpoConfig, episodes_budget: int, rng: np.random.Generator,
          on_iteration=None):
    """Iterate collect-T-steps / K-epoch optimization until the episode budget
    cannot fill another horizon. Returns (policy, value_net, log_rows)."""
    in_dim, a_dim = env.observation_dim, env.action_dim
    policy = PolicyNet(in_dim, a_dim, config.hidden, config.activation, rng)
    value = Mlp([in_dim, *config.hidden, 1], activation=config.activation, rng=rng,
                last_layer_scale=1.0)
    net = ActorCritic(policy, value)
    optimizer = {"sgd": Sgd, "adam": Adam}[config.optimizer](net.theta, config.learning_rate)

    T = config.horizon
    steps_per_episode = env.steps_per_episode
    episodes_done = 0
    log_rows = []
    iteration = 0
    obs = env.reset()
    ep_return = 0.0

    # one minibatch is one gather of rows of `packed`
    packed = np.empty((T, in_dim + a_dim + 3))
    obs_buf, act_buf = packed[:, :in_dim], packed[:, in_dim:in_dim + a_dim]
    logp_buf, adv_buf, ret_buf = packed[:, in_dim + a_dim:].T
    rew_buf, val_buf = np.empty((2, T))
    mean_buf = np.empty((T, a_dim))
    done_buf = np.empty(T, dtype=bool)

    while (episodes_budget - episodes_done) * steps_per_episode >= T:
        iter_returns: list[float] = []
        for t in range(T):
            mean, log_std = policy.forward(obs)
            raw = mean + np.exp(log_std) * rng.standard_normal(a_dim)
            val = float(value.forward(obs)[0])

            next_obs, r, done = env.step(raw)
            obs_buf[t] = obs
            act_buf[t] = raw
            mean_buf[t] = mean
            rew_buf[t] = r
            val_buf[t] = val
            done_buf[t] = done
            ep_return += r
            if done:
                episodes_done += 1
                iter_returns.append(ep_return)
                ep_return = 0.0
                next_obs = env.reset()
            obs = next_obs

        logp_buf[:] = gaussian_log_prob(act_buf, mean_buf, log_std)
        last_value = 0.0 if done_buf[-1] else float(value.forward(obs)[0])
        advantages, ret_buf[:] = compute_gae(rew_buf, val_buf, done_buf, config.gamma,
                                             config.gae_lambda, last_value)
        adv_buf[:] = normalize_advantages(advantages)

        for _ in range(config.epochs):
            perm = rng.permutation(T)
            for start in range(0, T, config.minibatch):
                mb = packed[perm[start:start + config.minibatch]]
                stats = ppo_loss(mb[:, :in_dim], mb[:, in_dim:in_dim + a_dim],
                                 *mb[:, in_dim + a_dim:].T, net, config)
                if not math.isfinite(stats["loss"]):
                    raise TrainingInstability(f"non-finite loss at iteration {iteration}")
                for grad in net.grad_slices:  # policy and value clip separately
                    clip_gradients(grad, config.grad_clip)
                optimizer.step(net.grad)
            if not np.isfinite(net.theta).all():
                raise TrainingInstability(f"non-finite weights at iteration {iteration}")

        row = {
            "iteration": iteration,
            "episodes_done": episodes_done,
            "mean_return": float(np.mean(iter_returns)) if iter_returns else float("nan"),
            "policy_loss": stats["policy_loss"],
            "value_loss": stats["value_loss"],
            "entropy": stats["entropy"],
        }
        log_rows.append(row)
        if on_iteration is not None:
            on_iteration(iteration, policy, value, row)
        iteration += 1

    return policy, value, log_rows

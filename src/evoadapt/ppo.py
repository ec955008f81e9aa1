"""Proximal Policy Optimization with a clipped surrogate objective.

One actor, generalized advantage estimation, and minibatch SGD (or Adam) with
analytically derived gradients over the numpy policy and value nets. The two
nets share no parameter, so they are two learners: after each rollout a forked
child process runs the value net's epochs while this process runs the policy
net's (`forked.split_map`), and the child hands back the value net's weights
and optimizer state.
Training needs POSIX `os.fork`. A NaN in the loss, gradients or weights raises
TrainingInstability, at the point where one learner after the other would have
met it, so a wrapper can retry with a fresh seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .forked import split_map
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


class Rollout(NamedTuple):
    """A horizon's per-step buffers, one row per step in step order, which
    `env.rollout` fills."""
    obs: np.ndarray     # (T, obs)
    raw: np.ndarray     # (T, a): sampled actions, mean + std * noise
    mean: np.ndarray    # (T, a): the policy's mean actions
    reward: np.ndarray  # (T,)
    value: np.ndarray   # (T,): the value net's estimates
    done: np.ndarray    # (T,) bool: the step ended its episode


def compute_gae(rewards: np.ndarray, values: np.ndarray, dones: np.ndarray, gamma: float,
                lam: float, last_value: float) -> tuple[np.ndarray, np.ndarray]:
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
    `grad_policy`/`grad_value` nets of views into it. `theta_slices` and
    `grad_slices` are the (policy, value) parts of each.
    """

    def __init__(self, policy: PolicyNet, value: Mlp):
        self.policy, self.value = policy, value
        self.grad_policy = PolicyNet(policy.in_dim, policy.action_dim,
                                     hidden=policy.mlp.sizes[1:-1])
        self.grad_value = Mlp(value.sizes)
        self.theta = _bind(policy, value)
        self.grad = _bind(self.grad_policy, self.grad_value)
        split = sum(p.size for p in policy.params())
        self.theta_slices = (self.theta[:split], self.theta[split:])
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


def ppo_loss(obs, raw_actions, old_log_probs, advantages, net: ActorCritic,
             cfg: PpoConfig) -> dict:
    """The policy learner's minibatch loss, -(clipped surrogate), and its
    statistics; writes the analytic gradient of the loss into
    `net.grad_policy`. The entropy is only reported."""
    p = net.policy.mlp
    B = len(obs)
    mean, ins_p = p.forward_cache(obs)

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

    # gradient flows through the unclipped branch only where it is the minimum
    active = surr1 <= surr2
    d_logp = -(active * surr1) / B
    np.add.reduce(d_logp[:, None] * (z2 - 1.0), axis=0, out=net.grad_policy.log_std)
    p.backward(ins_p, d_logp[:, None] * (diff / std ** 2), net.grad_policy.mlp)

    return {"policy_loss": policy_loss, "entropy": entropy,
            "clip_fraction": 1.0 - np.count_nonzero(active) / B}


def value_loss(obs, returns, net: ActorCritic, cfg: PpoConfig) -> float:
    """The value learner's minibatch loss term, the mean squared error of the
    returns; writes the gradient of c_v times it into `net.grad_value`. The
    PPO loss is `ppo_loss`'s policy loss plus c_v times this term."""
    B = len(obs)
    v_out, ins_v = net.value.forward_cache(obs)
    v_err = v_out[:, 0] - returns
    net.value.backward(ins_v, (cfg.value_coef * 2.0 * v_err / B)[:, None], net.grad_value)
    return float(np.add.reduce(v_err ** 2)) / B


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
# The two learners

def _run_epochs(term, grad: np.ndarray, optimizer, rng: np.random.Generator, T: int,
                cfg: PpoConfig):
    """One learner's `cfg.epochs` passes over a T-step rollout: per minibatch
    of `rng.permutation(T)`, `term(rows)` (its loss term, which writes
    `grad`), then the clip and the optimizer step. Returns every minibatch's
    term, an `(epochs, minibatches)` array that is NaN past the first
    non-finite one, and the first epoch after which the weights are not
    finite (None if none); the learner stops at either."""
    starts = range(0, T, cfg.minibatch)
    terms = np.full((cfg.epochs, len(starts)), np.nan)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(T)
        for k, start in enumerate(starts):
            terms[epoch, k] = term(perm[start:start + cfg.minibatch])
            if not math.isfinite(terms[epoch, k]):
                return terms, None
            clip_gradients(grad, cfg.grad_clip)
            optimizer.step(grad)
        if not np.isfinite(optimizer.theta).all():
            return terms, epoch
    return terms, None


def _first_failure(policy_terms, value_terms, bad_epochs, value_coef: float):
    """What the serial update, one minibatch of both nets at a time, would
    have met first: "loss" (a non-finite policy loss + c_v * value loss),
    "weights" (non-finite weights at an epoch's end) or None."""
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf are failures here
        loss = policy_terms + value_coef * value_terms
    n_minibatches = loss.shape[1]
    bad = np.flatnonzero(~np.isfinite(loss))
    found = [(divmod(int(i), n_minibatches), "loss") for i in bad[:1]]
    found += [((epoch, n_minibatches), "weights") for epoch in bad_epochs if epoch is not None]
    return min(found)[1] if found else None


# ---------------------------------------------------------------------------
# Training loop

def train(env, config: PpoConfig, episodes_budget: int, rng: np.random.Generator,
          on_iteration=None):
    """Iterate collect-T-steps / K-epoch optimization until the episode budget
    cannot fill another horizon. `env.rollout` collects the T steps, their
    action noise one `(T, actions)` block of standard normals from `rng`.
    Returns (policy, value_net, log_rows)."""
    in_dim, a_dim = env.observation_dim, env.action_dim
    policy = PolicyNet(in_dim, a_dim, config.hidden, config.activation, rng)
    value = Mlp([in_dim, *config.hidden, 1], activation=config.activation, rng=rng,
                last_layer_scale=1.0)
    net = ActorCritic(policy, value)
    make_optimizer = {"sgd": Sgd, "adam": Adam}[config.optimizer]
    policy_opt, value_opt = (make_optimizer(theta, config.learning_rate)
                             for theta in net.theta_slices)

    T = config.horizon
    steps_per_episode = env.steps_per_episode
    episodes_done = 0
    log_rows = []
    iteration = 0
    obs = env.reset()
    ep_return = 0.0

    # one minibatch is one gather of rows of `packed`
    packed = np.empty((T, in_dim + a_dim + 3))
    buf = Rollout(packed[:, :in_dim], packed[:, in_dim:in_dim + a_dim], np.empty((T, a_dim)),
                  *np.empty((2, T)), np.empty(T, dtype=bool))
    logp_buf, adv_buf, ret_buf = packed[:, in_dim + a_dim:].T
    stats = {}

    def policy_term(rows):
        mb = packed[rows]
        stats.update(ppo_loss(mb[:, :in_dim], mb[:, in_dim:in_dim + a_dim],
                              *mb[:, in_dim + a_dim:-1].T, net, config))
        return stats["policy_loss"]

    def value_term(rows):
        mb = packed[rows]
        return value_loss(mb[:, :in_dim], mb[:, -1], net, config)

    def policy_learner():
        return _run_epochs(policy_term, net.grad_slices[0], policy_opt, rng, T, config)

    def value_learner():
        terms, bad_epoch = _run_epochs(value_term, net.grad_slices[1], value_opt, rng, T,
                                       config)
        return terms, bad_epoch, vars(value_opt)  # theta, and Adam's m, v and t

    while (episodes_budget - episodes_done) * steps_per_episode >= T:
        # one standard_normal block holds the bytes of T per-step draws
        obs = env.rollout(policy, value, obs, rng.standard_normal((T, a_dim)), buf)
        iter_returns: list[float] = []
        for r, done in zip(buf.reward.tolist(), buf.done.tolist()):
            ep_return += r
            if done:
                iter_returns.append(ep_return)
                ep_return = 0.0
        episodes_done += len(iter_returns)

        logp_buf[:] = gaussian_log_prob(buf.raw, buf.mean, policy.log_std)
        last_value = 0.0 if buf.done[-1] else float(value.forward(obs)[0])
        advantages, ret_buf[:] = compute_gae(buf.reward, buf.value, buf.done, config.gamma,
                                             config.gae_lambda, last_value)
        adv_buf[:] = normalize_advantages(advantages)

        # both learners draw the same permutations, each from its own copy of rng
        (policy_terms, policy_bad), (value_terms, value_bad, value_state) = split_map(
            lambda learner: learner(), [policy_learner, value_learner])
        value_opt.theta[:] = value_state.pop("theta")
        vars(value_opt).update(value_state)
        failure = _first_failure(policy_terms, value_terms, (policy_bad, value_bad),
                                 config.value_coef)
        if failure is not None:
            raise TrainingInstability(f"non-finite {failure} at iteration {iteration}")

        row = {
            "iteration": iteration,
            "episodes_done": episodes_done,
            "mean_return": float(np.mean(iter_returns)) if iter_returns else float("nan"),
            "policy_loss": stats["policy_loss"],
            "value_loss": float(value_terms[-1, -1]),
            "entropy": stats["entropy"],
        }
        log_rows.append(row)
        if on_iteration is not None:
            on_iteration(iteration, policy, value, row)
        iteration += 1

    return policy, value, log_rows

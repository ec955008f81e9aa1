"""Policy network, action spaces and parameter decoding.

The network is a plain fully connected net (default in -> 50 -> 50 -> out)
with a state-independent log-std head for the Gaussian policy. Forward and
backward passes are implemented directly on numpy arrays; `ppo.ppo_loss`
runs the policy net and `ppo.value_loss` the value net through one
`Mlp.forward_cache` and one `Mlp.backward` each.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .artifacts import replace_atomically
from .benchmarks import per_run
from .observe import ObservationSpec

LOG_2PI = math.log(2.0 * math.pi)

SIGMA_MIN, SIGMA_MAX = 1e-10, 3.0


# ---------------------------------------------------------------------------
# Action spaces

@dataclass(frozen=True)
class ActionSpec:
    kind: str
    lower: np.ndarray
    upper: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def algorithm(self) -> str:
        """The engine this action space steers: "cmaes" for sigma, else "de"."""
        return "cmaes" if self.kind == "cma_sigma" else "de"

    def clip(self, values: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(values, dtype=float), self.lower, self.upper)

    def normalize(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.lower) / (self.upper - self.lower)

    def neutral(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0


_ACTION_BOUNDS = {
    "cma_sigma": ([SIGMA_MIN], [SIGMA_MAX]),
    "de_direct": ([0.0, 0.0], [2.0, 1.0]),                      # F, CR
    "de_normal": ([0.0, 0.0, 0.0, 0.0], [2.0, 1.0, 1.0, 1.0]),  # muF, sdF, muCR, sdCR
    "de_uniform": ([0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 1.0, 1.0]),  # Fmin, Fmax, CRmin, CRmax
}


def action_spec(kind: str) -> ActionSpec:
    if kind not in _ACTION_BOUNDS:
        raise KeyError(f"unknown action space {kind!r}; choose from {sorted(_ACTION_BOUNDS)}")
    lo, hi = _ACTION_BOUNDS[kind]
    return ActionSpec(kind=kind, lower=np.array(lo), upper=np.array(hi))


# ---------------------------------------------------------------------------
# Fully connected network with manual backprop

class Mlp:
    def __init__(self, sizes: list[int], activation: str = "relu",
                 rng: np.random.Generator | None = None, last_layer_scale: float = 0.01):
        if activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {activation!r}")
        self.sizes = list(sizes)
        self.activation = activation
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for li, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            if rng is None:
                w = np.zeros((n_out, n_in))
            else:
                scale = math.sqrt(2.0 / n_in) if activation == "relu" else math.sqrt(1.0 / n_in)
                w = rng.standard_normal((n_out, n_in)) * scale
                if li == len(sizes) - 2:
                    w *= last_layer_scale
            self.weights.append(w)
            self.biases.append(np.zeros(n_out))

    def activate(self, a: np.ndarray) -> np.ndarray:
        """Hidden-layer activation, in place."""
        return np.maximum(a, 0.0, out=a) if self.activation == "relu" else np.tanh(a, out=a)

    def activation_grad(self, a: np.ndarray) -> np.ndarray:
        """Derivative of the activation, from its output `a`."""
        return a > 0.0 if self.activation == "relu" else 1.0 - a ** 2

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The output on one point `(k,)` or on rows `(n, k)`, each row as its
        own one-row product: a plain `(n, k) @ W.T` rounds some rows unlike
        one row alone, so an action would depend on its lockstep batch."""
        return self.forward_cache(np.asarray(x, dtype=float)[..., None, :])[0][..., 0, :]

    def forward_cache(self, x: np.ndarray):
        """The output on input rows `x`, and every layer's input for `backward`."""
        ins, a = [], x
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            ins.append(a)
            a = a @ w.T
            a += b
            if li < len(self.weights) - 1:  # linear output layer
                self.activate(a)
        return a, ins

    def backward(self, ins: list, delta: np.ndarray, grads: "Mlp") -> None:
        """Backprop `delta` (dLoss/dOutput) through every layer into the
        arrays of `grads`, a net of the same sizes. Overwrites each hidden
        layer's input in `ins` with its gradient: fresh arrays there made
        malloc trim its heap and fault the pages in again every minibatch."""
        for li in range(len(self.weights) - 1, -1, -1):
            np.matmul(delta.T, ins[li], out=grads.weights[li])
            np.add.reduce(delta, axis=0, out=grads.biases[li])
            if li > 0:
                slope = self.activation_grad(ins[li])
                delta = np.matmul(delta, self.weights[li], out=ins[li])
                delta *= slope

    def params(self) -> list[np.ndarray]:
        return self.weights + self.biases


class PolicyNet:
    """Gaussian policy: MLP mean head plus state-independent log-std."""

    def __init__(self, in_dim: int, action_dim: int, hidden=(50, 50), activation: str = "relu",
                 rng: np.random.Generator | None = None):
        self.mlp = Mlp([in_dim, *hidden, action_dim], activation=activation, rng=rng)
        self.log_std = np.zeros(action_dim)

    @property
    def in_dim(self) -> int:
        return self.mlp.sizes[0]

    @property
    def action_dim(self) -> int:
        return self.mlp.sizes[-1]

    def forward(self, obs: np.ndarray) -> np.ndarray:
        """The mean actions of one observation `(obs,)` or of rows `(n, obs)`."""
        return self.mlp.forward(obs)

    def params(self) -> list[np.ndarray]:
        return self.mlp.params() + [self.log_std]


# ---------------------------------------------------------------------------
# Log-probability and decoding

def gaussian_log_prob(raw: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    raw = np.asarray(raw, dtype=float)
    std = np.exp(log_std)
    z = (raw - mean) / std
    return np.sum(-0.5 * z ** 2 - log_std - 0.5 * LOG_2PI, axis=-1)


def draw_decode_noise(kind: str, rng, generations: int, np_: int):
    """The noise of `generations` calls of `decode_de_params` under action
    space `kind`, one `(R, generations, 2, NP)` block from each run's
    generator: uniforms for de_uniform, standard normals for de_normal, and
    None for a space that draws nothing."""
    shape = (generations, 2, np_)
    if kind == "de_uniform":
        return per_run(rng, lambda r: r.random(shape))
    if kind == "de_normal":
        return per_run(rng, lambda r: r.standard_normal(shape))
    return None


def decode_de_params(action: np.ndarray, spec: ActionSpec,
                     noise: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(F, CR) from clipped actions `(R, k)` and the generation's `(R, 2,
    NP)` noise (rows for F and CR) of `draw_decode_noise`: per individual,
    `(R, NP)`, or for de_direct one value per run, `(R, 1)` columns that
    `de.de_generation` broadcasts over the population."""
    a = np.asarray(action, dtype=float)[..., None]  # a[:, i] is (R, 1)
    if spec.kind == "de_direct":
        return a[:, 0], a[:, 1]
    if spec.kind == "de_normal":
        F = a[:, 0] + a[:, 1] * noise[:, 0]
        CR = a[:, 2] + a[:, 3] * noise[:, 1]
        return np.clip(F, 0.0, 2.0), np.clip(CR, 0.0, 1.0)
    # de_uniform: F and CR uniform between the ends each pair of actions sets
    f_lo, f_hi = np.minimum(a[:, 0], a[:, 1]), np.maximum(a[:, 0], a[:, 1])
    cr_lo, cr_hi = np.minimum(a[:, 2], a[:, 3]), np.maximum(a[:, 2], a[:, 3])
    return f_lo + (f_hi - f_lo) * noise[:, 0], cr_lo + (cr_hi - cr_lo) * noise[:, 1]


def decode_sigma(action: np.ndarray) -> np.ndarray:
    """One sigma per run, `(R,)`, from one action per run, `(R, 1)`."""
    return np.clip(np.asarray(action, dtype=float)[..., 0], SIGMA_MIN, SIGMA_MAX)


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(path, policy: PolicyNet, action_kind: str, obs_spec: ObservationSpec) -> None:
    doc = {
        "architecture": {"sizes": policy.mlp.sizes, "activation": policy.mlp.activation},
        "action_kind": action_kind,
        "observation": asdict(obs_spec),
        "log_std": policy.log_std.tolist(),
        "layers": [
            {"weights": w.tolist(), "bias": b.tolist()}
            for w, b in zip(policy.mlp.weights, policy.mlp.biases)
        ],
    }
    with replace_atomically(path) as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[PolicyNet, str, ObservationSpec]:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        sizes = doc["architecture"]["sizes"]
        activation = doc["architecture"]["activation"]
        kind = doc["action_kind"]
        obs = doc["observation"]
        obs_spec = ObservationSpec(**{f.name: obs[f.name] for f in fields(ObservationSpec)})
        policy = PolicyNet(sizes[0], sizes[-1], hidden=tuple(sizes[1:-1]), activation=activation)
        policy.log_std = np.array(doc["log_std"], dtype=float)
        if policy.log_std.shape != (sizes[-1],) or len(doc["layers"]) != len(sizes) - 1:
            raise ValueError(f"architecture {sizes} needs {len(sizes) - 1} layers and {sizes[-1]} "
                             f"log_std entries, got {len(doc['layers'])} and {policy.log_std.size}")
        named = {"log_std": policy.log_std}
        for li, layer in enumerate(doc["layers"]):
            w = np.array(layer["weights"], dtype=float)
            b = np.array(layer["bias"], dtype=float)
            if w.shape != policy.mlp.weights[li].shape or b.shape != policy.mlp.biases[li].shape:
                raise ValueError("layer shape mismatch")
            policy.mlp.weights[li] = named[f"layer {li} weights"] = w
            policy.mlp.biases[li] = named[f"layer {li} bias"] = b
        for name, a in named.items():  # json reads NaN and Infinity
            if not np.isfinite(a).all():
                raise ValueError(f"{name} holds a non-finite number")
        if obs_spec.length(sizes[-1]) != sizes[0]:
            raise ValueError(f"input size {sizes[0]} does not match the observation "
                             f"length {obs_spec.length(sizes[-1])}")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupted or incompatible checkpoint {path}: {exc}") from exc
    if action_spec(kind).dim != policy.action_dim:
        raise ValueError(f"checkpoint output size {policy.action_dim} does not match "
                         f"action space {kind!r}")
    return policy, kind, obs_spec

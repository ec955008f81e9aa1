"""State metrics (observations) and the per-generation reward.

All metrics are normalized so that the policy input stays in a fixed range
regardless of the objective's scale: fitness deltas are self-normalized with
a 1e-5 guard against division by zero, genotype deltas are divided by the
box width `benchmarks.WIDTH`. A trace of R >= 1 lockstep runs holds a
leading run axis in every entry, its metrics a trailing one, and its
observations one row per run; `RunTrace.split_runs` gives one trace per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .benchmarks import WIDTH

EPS = 1e-5


@dataclass
class RunTrace:
    """Per-generation record of R lockstep runs, one `(R, ...)` entry per
    generation; `split_runs` turns it into one plain trace per run."""

    best_fitness: list = field(default_factory=list)
    best_genotype: list = field(default_factory=list)
    fitness_max: list = field(default_factory=list)
    genotype_max: list = field(default_factory=list)
    genotype_min: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    rewards: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.best_fitness)

    def append_generation(self, genotypes: np.ndarray, fitnesses: np.ndarray,
                          action: np.ndarray) -> None:
        """Record `(R, NP, d)` genotypes, `(R, NP)` fitnesses and the
        `(R, actions)` actions that produced them."""
        rows = np.arange(len(fitnesses)), fitnesses.argmin(axis=1)
        self.best_fitness.append(fitnesses[rows])
        self.best_genotype.append(genotypes[rows])
        self.fitness_max.append(fitnesses.max(axis=1))
        self.genotype_max.append(genotypes.max(axis=1))
        self.genotype_min.append(genotypes.min(axis=1))
        self.actions.append(np.asarray(action, dtype=float))

    def split_runs(self) -> list[RunTrace]:
        """One trace per run of a lockstep record."""
        columns = [np.array(getattr(self, f.name)) for f in fields(self)]
        return [RunTrace(*(c[:, i].tolist() if c.ndim == 2 else list(c[:, i]) for c in columns))
                for i in range(columns[0].shape[1])]


@dataclass(frozen=True)
class ObservationSpec:
    history_length: int = 40
    include_intra_df: bool = False
    include_inter_dx: bool = False
    include_intra_dx: bool = False

    def __post_init__(self):
        if type(self.history_length) is not int or self.history_length < 0:
            raise ValueError(f"history_length must be a non-negative integer, "
                             f"got {self.history_length!r}")

    def length(self, action_dim: int) -> int:
        g = self.history_length
        return (g + action_dim + g * self.include_intra_df
                + 2 * g * (self.include_inter_dx + self.include_intra_dx))


def _newest(trace: RunTrace, values: list, count: int) -> np.ndarray:
    """The last `count` entries of a per-generation list, newest first."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    return np.asarray(values[max(len(values) - count, 0):], dtype=float)[::-1]


def _padded(values: np.ndarray, g: int) -> np.ndarray:
    """`values` over the newest generations, zeros where the run is younger."""
    out = np.zeros((g,) + values.shape[1:])
    out[:len(values)] = values
    return out


def _min_max(ratio: np.ndarray, g: int) -> np.ndarray:
    """(min, max) over dimensions per generation, as 2g interleaved entries."""
    pairs = _padded(np.stack([ratio.min(axis=-1), ratio.max(axis=-1)], axis=1), g)
    return pairs.reshape((2 * g,) + pairs.shape[2:])


def _change(new, old):
    """Self-normalized change from `old` to `new`, in (-1, 1)."""
    num = new - old
    return num / (abs(num) + abs(old) + EPS)


def inter_delta_f(trace: RunTrace, g: int) -> np.ndarray:
    """Normalized best-fitness change over the last g generations, newest first."""
    f = _newest(trace, trace.best_fitness, g + 1)
    return _padded(_change(f[:-1], f[1:]), g)


def intra_delta_f(trace: RunTrace, g: int) -> np.ndarray:
    """Normalized population fitness spread over the last g generations."""
    best = _newest(trace, trace.best_fitness, g)
    spread = np.abs(_newest(trace, trace.fitness_max, g) - best)
    return _padded(spread / (spread + np.abs(best) + EPS), g)


def inter_delta_x(trace: RunTrace, g: int) -> np.ndarray:
    """(min, max) of the box-normalized best-genotype displacement, per generation."""
    x = _newest(trace, trace.best_genotype, g + 1)
    return _min_max((x[:-1] - x[1:]) / WIDTH, g)


def intra_delta_x(trace: RunTrace, g: int) -> np.ndarray:
    """(min, max) of per-dimension population spread ratios, per generation."""
    spread = _newest(trace, trace.genotype_max, g) - _newest(trace, trace.genotype_min, g)
    return _min_max(np.abs(spread) / WIDTH, g)


def build_observation(trace: RunTrace, spec: ObservationSpec,
                      previous_action: np.ndarray) -> np.ndarray:
    """Flattened policy input: [inter df | previous action | optional blocks]."""
    g = spec.history_length
    parts = [inter_delta_f(trace, g), np.asarray(previous_action, dtype=float).T]
    if spec.include_intra_df:
        parts.append(intra_delta_f(trace, g))
    if spec.include_inter_dx:
        parts.append(inter_delta_x(trace, g))
    if spec.include_intra_dx:
        parts.append(intra_delta_x(trace, g))
    return np.concatenate(parts).T


def reward(trace: RunTrace):
    """Negated inter-generational delta-f of the newest generation.

    The sign flip makes a fitness improvement (under minimization) yield a
    positive reward; generation 0 has no predecessor and earns 0.
    """
    if len(trace) < 2:
        return 0.0
    return -_change(trace.best_fitness[-1], trace.best_fitness[-2])

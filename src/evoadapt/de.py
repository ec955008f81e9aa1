"""Differential Evolution (best/1/bin) with externally injected F and CR.

Scale factor and crossover rate are stored per individual so that a single
global pair (broadcast), per-individual baselines (iDE) and policy-sampled
values all go through the same generation step. Every array holds R >= 1
runs in lockstep on a leading axis. `init_population` draws from `rng`, one
Generator per run; a generation takes its random numbers as `(R, ...)`
arrays, which an episode draws for all its generations when it starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# `evaluate` stays importable from here: perfbench/selftest.py looks it up as
# `evoadapt.de.evaluate` to check that its tracer unpatches module attributes.
from .benchmarks import BenchmarkFunction, evaluate, evaluate_runs, per_run  # noqa: F401


@dataclass
class Population:
    genotypes: np.ndarray  # (R, NP, d)
    fitnesses: np.ndarray  # (R, NP)

    @property
    def best_index(self) -> np.ndarray:
        return self.fitnesses.argmin(axis=1)

    @property
    def best_fitness(self) -> np.ndarray:
        return self.fitnesses.min(axis=1)


def init_population(fn: BenchmarkFunction, np_: int, rng) -> Population:
    """Uniform random population within bounds; consumes NP evaluations per
    run."""
    genotypes = per_run(rng, lambda r: r.uniform(fn.lower, fn.upper, size=(np_, fn.dimension)))
    return Population(genotypes, evaluate_runs(fn, genotypes))


class DeDraws(NamedTuple):
    """The random numbers of DE generations, each array `(R, generations,
    ...)`, or `(R, ...)` for one generation (`at`)."""
    ranked: np.ndarray      # (..., NP, 3): each row's three best-ranked difference candidates
    crossover: np.ndarray   # (..., NP, d): crossover uniforms
    j_rand: np.ndarray      # (..., NP): the coordinate each child takes from its mutant

    def at(self, generation: int) -> "DeDraws":
        return DeDraws(*(a[:, generation] for a in self))


def rank_candidates(keys: np.ndarray) -> np.ndarray:
    """Row i of the `(..., NP, NP)` random `keys` ranks the individuals as
    difference candidates for individual i; returns the indices of each
    row's three smallest keys, i left out, smallest first. Best/1 excludes
    at most one more individual, the best, so its pair is among these."""
    keys = keys.copy()
    rows = np.arange(keys.shape[-1])
    keys[..., rows, rows] = np.inf
    return np.argsort(keys, axis=-1)[..., :3]


def draw_generations(rng, generations: int, np_: int, d: int) -> DeDraws:
    """The random numbers of `generations` calls of `de_generation`. Each
    run draws one `random((generations, NP, NP + d))` block, whose rows are
    NP pair keys (kept only as `rank_candidates`) and then d crossover
    uniforms, then one `integers(d, size=(generations, NP))` block of
    `j_rand`."""
    draws = DeDraws(np.empty((len(rng), generations, np_, 3), np.intp),
                    np.empty((len(rng), generations, np_, d)),
                    np.empty((len(rng), generations, np_), np.intp))
    for run, r in enumerate(rng):
        block = r.random((generations, np_, np_ + d))
        draws.ranked[run] = rank_candidates(block[..., :np_])
        draws.crossover[run] = block[..., np_:]
        draws.j_rand[run] = r.integers(d, size=(generations, np_))
    return draws


def mutate_best1(best: np.ndarray, a: np.ndarray, b: np.ndarray, f) -> np.ndarray:
    """best + f (a - b); `f` is a scalar or broadcasts against the rows of `a`."""
    return best + f * (a - b)


def pick_pairs(ranked: np.ndarray, best: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Difference indices (a[r, i], b[r, i]) for every individual i of every
    run r: distinct from each other, from i and from the run's `best[r]`.
    They are the first two of row i's `rank_candidates` (`(R, NP, 3)`) that
    are not `best[r]`."""
    skip = ranked == np.asarray(best)[:, None, None]
    a = np.where(skip[..., 0], ranked[..., 1], ranked[..., 0])
    b = np.where(skip[..., 0] | skip[..., 1], ranked[..., 2], ranked[..., 1])
    return a, b


def de_generation(pop: Population, F, CR, fn: BenchmarkFunction,
                  draws: DeDraws) -> tuple[Population, np.ndarray]:
    """One best/1/bin generation of R runs in lockstep.

    `F` and `CR` broadcast against the `(R, NP)` fitnesses: a scalar, one
    value per individual, or `(R, 1)` for one value per run. `draws` holds
    the generation's `(R, ...)` random numbers (`DeDraws.at`): the ranked
    difference candidates `pick_pairs` chooses from, the crossover
    uniforms, and `j_rand` (in [0, d)), the coordinate each child takes from
    its mutant whatever CR is. Returns the next population and the `(R,
    NP)` mask of parents that were replaced by their trial (child fitness
    <= parent fitness). Consumes exactly NP evaluations per run, all runs'
    children in one objective call.
    """
    X, fit = pop.genotypes, pop.fitnesses
    R, _, d = X.shape
    F = np.asarray(F, dtype=float)[..., None]    # broadcasts against (R, NP, d)
    CR = np.asarray(CR, dtype=float)[..., None]

    run = np.arange(R)[:, None]
    best = fit.argmin(axis=1)
    a, b = pick_pairs(draws.ranked, best)
    mutants = mutate_best1(X[run, best[:, None]], X[run, a], X[run, b], F)
    cross = draws.crossover < CR
    cross |= np.arange(d) == draws.j_rand[..., None]
    children = np.clip(np.where(cross, mutants, X), fn.lower, fn.upper)

    child_fit = evaluate_runs(fn, children)
    replaced = child_fit <= fit
    return (Population(np.where(replaced[..., None], children, X),
                       np.where(replaced, child_fit, fit)), replaced)

"""Differential Evolution (best/1/bin) with externally injected F and CR.

Scale factor and crossover rate are stored per individual so that a single
global pair (broadcast), per-individual baselines (iDE) and policy-sampled
values all go through the same generation step. Every array holds R >= 1
runs in lockstep on a leading axis, and `rng` holds one Generator per run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# `evaluate` stays importable from here: perfbench/selftest.py looks it up as
# `evoadapt.de.evaluate` to check that its tracer unpatches module attributes.
from .benchmarks import (BenchmarkFunction, BudgetExhausted, EvalBudget,  # noqa: F401
                         evaluate, evaluate_runs, per_run)

MIN_POPULATION = 4  # best + two distinct difference individuals + parent


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


def init_population(fn: BenchmarkFunction, np_: int, rng,
                    budget: EvalBudget | None = None) -> Population:
    """Uniform random population within bounds; consumes NP evaluations per
    run."""
    if np_ < MIN_POPULATION:
        raise ValueError(f"population size must be >= {MIN_POPULATION}, got {np_}")
    genotypes = per_run(rng, lambda r: r.uniform(fn.lower, fn.upper, size=(np_, fn.dimension)))
    return Population(genotypes, evaluate_runs(fn, genotypes, budget))


def mutate_best1(best: np.ndarray, a: np.ndarray, b: np.ndarray, f) -> np.ndarray:
    """best + f (a - b); `f` is a scalar or broadcasts against the rows of `a`."""
    return best + f * (a - b)


def pick_pairs(np_: int, best: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Difference indices (a[r, i], b[r, i]) for every individual i of every
    run r: distinct from each other, from i and from the run's `best[r]`.
    Each row ranks random `(R, NP, NP)` keys with i and `best` masked out
    and keeps the two smallest."""
    keys = per_run(rng, lambda r: r.random((np_, np_)))
    rows = np.arange(np_)
    masked = (rows[:, None] == rows) | (rows == np.asarray(best)[:, None, None])
    pair = np.argpartition(np.where(masked, np.inf, keys), 1, axis=-1)
    return pair[..., 0], pair[..., 1]


def de_generation(pop: Population, F, CR, fn: BenchmarkFunction, rng,
                  budget: EvalBudget | None = None) -> tuple[Population, np.ndarray]:
    """One best/1/bin generation of R runs in lockstep.

    `F` and `CR` broadcast against the `(R, NP)` fitnesses: a scalar, one
    value per individual, or `(R, 1)` for one value per run. Returns the
    next population and the `(R, NP)` mask of parents that were replaced by
    their trial (child fitness <= parent fitness). Consumes exactly NP
    evaluations per run, all runs' children in one objective call; if the
    budget cannot cover them, the generation is aborted before consuming
    anything.
    """
    X, fit = pop.genotypes, pop.fitnesses
    R, np_, d = X.shape
    F = np.asarray(F, dtype=float)[..., None]    # broadcasts against (R, NP, d)
    CR = np.asarray(CR, dtype=float)[..., None]
    if budget is not None and budget.remaining < fit.size:
        raise BudgetExhausted(f"generation needs {fit.size} evaluations, {budget.remaining} left")

    run = np.arange(R)[:, None]
    best = fit.argmin(axis=1)
    a, b = pick_pairs(np_, best, rng)
    mutants = mutate_best1(X[run, best[:, None]], X[run, a], X[run, b], F)
    cross = per_run(rng, lambda r: r.random((np_, d))) < CR
    cross |= np.arange(d) == per_run(rng, lambda r: r.integers(d, size=np_))[..., None]  # j_rand
    children = np.clip(np.where(cross, mutants, X), fn.lower, fn.upper)

    child_fit = evaluate_runs(fn, children, budget)
    replaced = child_fit <= fit
    return (Population(np.where(replaced[..., None], children, X),
                       np.where(replaced, child_fit, fit)), replaced)

"""Differential Evolution (best/1/bin) with externally injected F and CR.

Scale factor and crossover rate are stored per individual so that a single
global pair (broadcast), per-individual baselines (iDE) and policy-sampled
values all go through the same generation step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# `evaluate` stays importable from here: perfbench/selftest.py looks it up as
# `evoadapt.de.evaluate` to check that its tracer unpatches module attributes.
from .benchmarks import (BenchmarkFunction, BudgetExhausted, EvalBudget,  # noqa: F401
                         evaluate, evaluate_population)

MIN_POPULATION = 4  # best + two distinct difference individuals + parent


@dataclass
class Population:
    genotypes: np.ndarray  # (NP, d)
    fitnesses: np.ndarray  # (NP,)
    generation_index: int = 0

    @property
    def size(self) -> int:
        return self.genotypes.shape[0]

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.fitnesses))

    @property
    def best_fitness(self) -> float:
        return float(self.fitnesses[self.best_index])


def init_population(fn: BenchmarkFunction, np_: int, rng: np.random.Generator,
                    budget: EvalBudget | None = None) -> Population:
    """Uniform random population within bounds; consumes NP evaluations."""
    if np_ < MIN_POPULATION:
        raise ValueError(f"population size must be >= {MIN_POPULATION}, got {np_}")
    genotypes = rng.uniform(fn.lower, fn.upper, size=(np_, fn.dimension))
    fitnesses = evaluate_population(fn, genotypes, budget)
    return Population(genotypes, fitnesses, 0)


def mutate_best1(best: np.ndarray, a: np.ndarray, b: np.ndarray, f) -> np.ndarray:
    """best + f (a - b); `f` is a scalar or broadcasts against the rows of `a`."""
    return best + f * (a - b)


def pick_pairs(np_: int, best: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Difference indices (a[i], b[i]) for every individual i: distinct from
    each other, from i and from `best`. Each row ranks random keys with i
    and `best` masked out and keeps the two smallest."""
    keys = rng.random((np_, np_))
    rows = np.arange(np_)
    keys[rows, rows] = np.inf
    keys[:, best] = np.inf
    pair = np.argpartition(keys, 1, axis=1)
    return pair[:, 0], pair[:, 1]


def de_generation(pop: Population, F, CR, fn: BenchmarkFunction, rng: np.random.Generator,
                  budget: EvalBudget | None = None) -> tuple[Population, np.ndarray]:
    """One best/1/bin generation.

    Returns the next population and the boolean mask of parents that were
    replaced by their trial (child fitness <= parent fitness). Consumes
    exactly NP evaluations; if the budget cannot cover them, the generation
    is aborted before consuming anything.
    """
    np_, d = pop.genotypes.shape
    F = np.broadcast_to(np.asarray(F, dtype=float), (np_,))
    CR = np.broadcast_to(np.asarray(CR, dtype=float), (np_,))
    if budget is not None and budget.remaining < np_:
        raise BudgetExhausted(f"generation needs {np_} evaluations, {budget.remaining} left")

    X = pop.genotypes
    best = pop.best_index
    a, b = pick_pairs(np_, best, rng)
    mutants = mutate_best1(X[best], X[a], X[b], F[:, None])
    cross = rng.random((np_, d)) < CR[:, None]
    cross[np.arange(np_), rng.integers(d, size=np_)] = True  # j_rand: at least one mutant gene
    children = np.clip(np.where(cross, mutants, X), fn.lower, fn.upper)

    child_fit = evaluate_population(fn, children, budget)
    replaced = child_fit <= pop.fitnesses
    genotypes = np.where(replaced[:, None], children, X)
    fitnesses = np.where(replaced, child_fit, pop.fitnesses)
    return Population(genotypes, fitnesses, pop.generation_index + 1), replaced

"""CMA-ES engine with an externally supplied step size.

Mean and covariance updates follow Hansen's canonical recombination weights
and learning rates; only sigma control is delegated to the caller (learned
policy, CSA baseline or a fixed value).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import BenchmarkFunction, BudgetExhausted, EvalBudget, evaluate_population

logger = logging.getLogger(__name__)

EIGEN_FLOOR = 1e-20


@dataclass
class CmaState:
    mean: np.ndarray
    cov: np.ndarray
    sigma: float
    path_c: np.ndarray
    generation_index: int = 0


@dataclass
class GenerationResult:
    state: CmaState
    samples: np.ndarray     # unclipped offspring, (lam, d)
    genotypes: np.ndarray   # clipped points that were evaluated
    fitnesses: np.ndarray
    mean_before: np.ndarray
    sigma_used: float

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.fitnesses))


def init_state(fn: BenchmarkFunction, sigma0: float, rng: np.random.Generator) -> CmaState:
    mean = rng.uniform(fn.lower, fn.upper)
    d = fn.dimension
    return CmaState(mean=mean, cov=np.eye(d), sigma=float(sigma0), path_c=np.zeros(d))


def _recombination(lam: int, d: int):
    mu = lam // 2
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / np.sum(weights ** 2)
    c_c = (4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d)
    c_1 = 2.0 / ((d + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff))
    return mu, weights, mu_eff, c_c, c_1, c_mu


def _decompose(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cov = (cov + cov.T) / 2.0
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] <= 0.0:
        logger.warning("covariance not positive definite (min eigenvalue %.3e), flooring", vals[0])
        vals = np.maximum(vals, EIGEN_FLOOR)
    return vals, vecs


def sample_offspring(mean: np.ndarray, cov: np.ndarray, sigma: float, lam: int,
                     rng: np.random.Generator) -> np.ndarray:
    vals, vecs = _decompose(cov)
    z = rng.standard_normal((lam, len(mean)))
    return mean + sigma * (z * np.sqrt(vals)) @ vecs.T


def cma_generation(state: CmaState, sigma: float, fn: BenchmarkFunction, lam: int,
                   rng: np.random.Generator, budget: EvalBudget | None = None) -> GenerationResult:
    """One generation at the given step size; consumes `lam` evaluations."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if lam < 2:
        raise ValueError(f"lambda must be >= 2, got {lam}")
    if budget is not None and budget.remaining < lam:
        raise BudgetExhausted(f"generation needs {lam} evaluations, {budget.remaining} left")

    d = fn.dimension
    mu, weights, mu_eff, c_c, c_1, c_mu = _recombination(lam, d)

    samples = sample_offspring(state.mean, state.cov, sigma, lam, rng)
    genotypes = np.clip(samples, fn.lower, fn.upper)
    fitnesses = evaluate_population(fn, genotypes, budget)

    order = np.argsort(fitnesses)
    elite = samples[order[:mu]]  # updates use the unclipped samples
    mean_new = weights @ elite
    y_w = (mean_new - state.mean) / sigma
    path_c = (1.0 - c_c) * state.path_c + math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w

    ys = (elite - state.mean) / sigma
    rank_mu = (weights[:, None] * ys).T @ ys
    cov = (1.0 - c_1 - c_mu) * state.cov + c_1 * np.outer(path_c, path_c) + c_mu * rank_mu
    cov = (cov + cov.T) / 2.0

    new_state = CmaState(
        mean=mean_new,
        cov=cov,
        sigma=float(sigma),
        path_c=path_c,
        generation_index=state.generation_index + 1,
    )
    return GenerationResult(
        state=new_state,
        samples=samples,
        genotypes=genotypes,
        fitnesses=fitnesses,
        mean_before=state.mean.copy(),
        sigma_used=float(sigma),
    )

"""CMA-ES engine with an externally supplied step size.

Mean and covariance updates follow Hansen's canonical recombination weights
and learning rates; only sigma control is delegated to the caller (learned
policy, CSA baseline or a fixed value). Every array holds R >= 1 runs in
lockstep on a leading axis. `init_state` draws from `rng`, one Generator per
run; a generation takes its standard normals as an `(R, lam, d)` array,
which an episode draws for all its generations when it starts.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import LOWER, UPPER, BenchmarkFunction, evaluate_runs, per_run

logger = logging.getLogger(__name__)

EIGEN_FLOOR = 1e-20


class StateNotFinite(ArithmeticError):
    """A run's covariance holds NaN or inf, so it has no square root to sample
    from.

    `runs` indexes the offending runs of the lockstep batch; the message
    names the function and the generation.
    """

    def __init__(self, message: str, runs):
        super().__init__(message)
        self.runs = list(runs)

    def __reduce__(self):  # the default passes only `args`, which lacks `runs`
        return type(self), (self.args[0], self.runs), self.__dict__


@dataclass
class CmaState:
    """R runs' state, with a leading run axis on every array."""
    mean: np.ndarray        # (R, d)
    cov: np.ndarray         # (R, d, d)
    path_c: np.ndarray      # (R, d)
    generation_index: int = 0


@dataclass
class GenerationResult:
    state: CmaState
    samples: np.ndarray     # unclipped offspring, (R, lam, d)
    genotypes: np.ndarray   # clipped points that were evaluated
    fitnesses: np.ndarray   # (R, lam)
    mean_before: np.ndarray
    sigma_used: np.ndarray  # () for one sigma for all runs, else (R,)

    @property
    def best_index(self) -> np.ndarray:
        return np.argmin(self.fitnesses, axis=1)


def draw_generations(rng, generations: int, lam: int, d: int) -> np.ndarray:
    """The standard normals of `generations` calls of `cma_generation`, one
    `(R, generations, lam, d)` block from each run's generator; slice `g`
    samples generation `g`, so slice 0 is the first sampling. One block
    holds the bytes of `generations` consecutive `(lam, d)` draws."""
    return per_run(rng, lambda r: r.standard_normal((generations, lam, d)))


def init_state(fn: BenchmarkFunction, rng) -> CmaState:
    """Each run's mean uniform in the box, identity covariance, zero path."""
    d = fn.dimension
    mean = per_run(rng, lambda r: r.uniform(LOWER, UPPER, size=d))
    return CmaState(mean=mean, cov=np.broadcast_to(np.eye(d), (len(mean), d, d)).copy(),
                    path_c=np.zeros_like(mean))


@functools.lru_cache(maxsize=None)
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
    """Eigendecomposition with the repair: a covariance whose smallest
    eigenvalue is not positive has its eigenvalues floored."""
    vals, vecs = np.linalg.eigh(cov)
    broken = vals[..., :1] <= 0.0
    if broken.any():
        logger.warning("covariance not positive definite (min eigenvalue %.3e), flooring",
                       np.min(vals))
        vals = np.where(broken, np.maximum(vals, EIGEN_FLOOR), vals)
    return vals, vecs


def _square_root(cov: np.ndarray) -> np.ndarray:
    """`A` with `A @ A.T == cov` for each run of an `(R, d, d)` stack: the
    Cholesky factor, one stacked call over runs. If a run is not positive
    definite, each run is factored alone and the failing ones get
    `vecs * sqrt(floored vals)`; a run alone factors to the bytes it gets
    in the stack."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return np.array([_repaired_root(c) for c in cov])


def _repaired_root(cov: np.ndarray) -> np.ndarray:
    """One run's `(d, d)` square root, through the repair if it needs it."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = _decompose(cov)
        return vecs * np.sqrt(vals)


def sample_offspring(mean: np.ndarray, cov: np.ndarray, sigma, z: np.ndarray) -> np.ndarray:
    """Offspring `(R, lam, d)` around the `(R, d)` means, from the standard
    normals `z` (`(R, lam, d)`)."""
    root = _square_root(cov)
    sigma = np.asarray(sigma, dtype=float)[..., None, None]
    return mean[:, None, :] + sigma * (z @ root.swapaxes(-1, -2))


def cma_generation(state: CmaState, sigma, fn: BenchmarkFunction,
                   z: np.ndarray) -> GenerationResult:
    """One generation of R runs in lockstep at the given step size (a scalar
    or one value per run), sampling lam = `z.shape[1]` offspring per run
    from the standard normals `z`; consumes `lam` evaluations per run, in
    one objective call."""
    sigma = np.asarray(sigma, dtype=float)
    R, lam = z.shape[:2]
    broken = ~np.isfinite(state.cov).all(axis=(1, 2))
    if broken.any():
        raise StateNotFinite(f"CMA-ES covariance on {fn.name}-{fn.dimension} is not finite "
                             f"at generation {state.generation_index}",
                             np.flatnonzero(broken))

    d = fn.dimension
    mu, weights, mu_eff, c_c, c_1, c_mu = _recombination(lam, d)

    samples = sample_offspring(state.mean, state.cov, sigma, z)
    genotypes = np.clip(samples, LOWER, UPPER)
    fitnesses = evaluate_runs(fn, genotypes)

    order = np.argsort(fitnesses, axis=1)
    elite = samples[np.arange(R)[:, None], order[:, :mu]]  # unclipped samples
    mean_new = weights @ elite
    step = sigma[..., None]
    y_w = (mean_new - state.mean) / step
    path_c = (1.0 - c_c) * state.path_c + math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w

    ys = (elite - state.mean[:, None, :]) / step[..., None]
    rank_mu = (weights[:, None] * ys).swapaxes(-1, -2) @ ys
    outer = path_c[:, :, None] * path_c[:, None, :]
    cov = (1.0 - c_1 - c_mu) * state.cov + c_1 * outer + c_mu * rank_mu
    cov = (cov + cov.swapaxes(-1, -2)) / 2.0

    new_state = CmaState(mean=mean_new, cov=cov, path_c=path_c,
                         generation_index=state.generation_index + 1)
    return GenerationResult(state=new_state, samples=samples, genotypes=genotypes,
                            fitnesses=fitnesses, mean_before=state.mean, sigma_used=sigma)

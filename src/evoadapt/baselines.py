"""Handcrafted adaptation baselines: CSA (step size), iDE and jDE (F, CR).

Each works on R >= 1 runs in lockstep: state arrays hold a leading run
axis, and `rng` holds one Generator per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import per_run

F_LOW, F_HIGH = 0.0, 2.0
CR_LOW, CR_HIGH = 0.0, 1.0


def expected_chi_norm(d: int) -> float:
    """E||N(0, I_d)|| via the standard closed-form approximation."""
    return math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d ** 2))


# ---------------------------------------------------------------------------
# CSA

@dataclass
class CsaState:
    path: np.ndarray                    # (d,) zeros, broadcast to (R, d) by the first update
    c: float
    d_sigma: float
    expected_norm: float


def make_csa_state(dim: int) -> CsaState:
    """CSA with cumulation c = 4/(d+4) and damping d_sigma = 1 (Hansen's
    CMA-ES tutorial, arXiv 1604.00772)."""
    return CsaState(path=np.zeros(dim), c=4.0 / (dim + 4.0), d_sigma=1.0,
                    expected_norm=expected_chi_norm(dim))


def csa_update(state: CsaState, xi_star: np.ndarray, sigma) -> tuple[CsaState, np.ndarray]:
    """Cumulate each run's best-child direction (`(R, d)`) and rescale its
    sigma (a scalar or `(R,)`); returns the new state and `(R,)` sigmas.

    The norm and exp run once per run: `np.linalg.norm` over a stack sums
    in another order than over one vector, and `np.exp` may round unlike
    `math.exp`, so batching them would change a run's bytes.
    """
    c = state.c
    path = (1.0 - c) * state.path + math.sqrt(c * (2.0 - c)) * np.asarray(xi_star, dtype=float)
    factors = [math.exp((c / state.d_sigma) * (np.linalg.norm(p) / state.expected_norm - 1.0))
               for p in path]
    new_sigma = np.asarray(sigma, dtype=float) * np.array(factors)
    return CsaState(path=path, c=c, d_sigma=state.d_sigma,
                    expected_norm=state.expected_norm), new_sigma


# ---------------------------------------------------------------------------
# iDE

@dataclass
class IdeState:
    F: np.ndarray                       # per-individual scale factors, (R, NP)
    CR: np.ndarray                      # per-individual crossover rates, (R, NP)
    f_archive: list                     # one list of floats per run
    cr_archive: list


def make_ide_state(np_: int, rng) -> IdeState:
    F = per_run(rng, lambda r: r.uniform(0.1, 1.0, size=np_))
    CR = per_run(rng, lambda r: r.uniform(0.0, 1.0, size=np_))
    return IdeState(F=F, CR=CR, f_archive=F.tolist(), cr_archive=CR.tolist())


def archive_differences(archive: list[float], n: int, rng: np.random.Generator) -> np.ndarray:
    """`n` differences archive[i] - archive[j] of distinct entries i != j
    (zeros when the archive holds fewer than two entries)."""
    m = len(archive)
    if m < 2:
        return np.zeros(n)
    i = rng.integers(m, size=n)
    j = rng.integers(m - 1, size=n)
    j += j >= i
    values = np.asarray(archive, dtype=float)
    return values[i] - values[j]


def ide_update(state: IdeState, best_index, rng) -> tuple[np.ndarray, np.ndarray]:
    """Per-individual (F, CR) perturbed around each run's best individual's
    values (`best_index` holds one index per run)."""
    if not all(state.f_archive) or not all(state.cr_archive):
        raise ValueError("iDE archives must be non-empty")
    np_ = state.F.shape[1]

    def noise(r, f_archive, cr_archive):
        return (r.normal(0.0, 0.5, np_) * archive_differences(f_archive, np_, r),
                r.normal(0.0, 0.5, np_) * archive_differences(cr_archive, np_, r))

    noises = per_run(rng, noise, state.f_archive, state.cr_archive)
    best = np.asarray(best_index)[:, None]
    F = np.take_along_axis(state.F, best, axis=1) + noises[:, 0]
    CR = np.take_along_axis(state.CR, best, axis=1) + noises[:, 1]
    return np.clip(F, F_LOW, F_HIGH), np.clip(CR, CR_LOW, CR_HIGH)


def ide_record_success(state: IdeState, F: np.ndarray, CR: np.ndarray, replaced: np.ndarray) -> None:
    """Adopt trial parameters for winning individuals and archive them."""
    won = np.asarray(replaced, dtype=bool)
    state.F[won] = F[won]
    state.CR[won] = CR[won]
    for f_archive, cr_archive, f, cr, w in zip(state.f_archive, state.cr_archive, F, CR, won):
        f_archive.extend(f[w].tolist())
        cr_archive.extend(cr[w].tolist())


# ---------------------------------------------------------------------------
# jDE

@dataclass
class JdeState:
    best_F: np.ndarray                  # (R,)
    best_CR: np.ndarray                 # (R,)
    p: float = 0.1


def jde_update(state: JdeState, rng) -> tuple[np.ndarray, np.ndarray]:
    """With probability p resample F ~ U(0.1, 1) (CR ~ U(0, 1)), else keep the best."""
    def draw(r, best_F, best_CR):
        F = r.uniform(0.1, 1.0) if r.random() < state.p else best_F
        CR = r.uniform(0.0, 1.0) if r.random() < state.p else best_CR
        return F, CR

    drawn = per_run(rng, draw, state.best_F, state.best_CR)
    return drawn[:, 0], drawn[:, 1]


def jde_record(state: JdeState, F, CR, improved) -> None:
    state.best_F = np.where(improved, F, state.best_F)
    state.best_CR = np.where(improved, CR, state.best_CR)

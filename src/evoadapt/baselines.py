"""Handcrafted adaptation baselines: CSA (step size), iDE and jDE (F, CR).

Each works on R >= 1 runs in lockstep: state arrays hold a leading run
axis. `make_ide_state` draws from `rng`, one Generator per run; the iDE and
jDE updates take one generation's random numbers as `(R, ...)` arrays, which
their controllers draw for the whole episode when it starts.
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
    """CSA with cumulation c = 4/(d+4) and damping d_sigma = 1, its path fed
    each run's best child's step over sigma. Hansen's CMA-ES tutorial
    (arXiv 1604.00772) has the same rule, but its c_sigma and d_sigma depend
    on mu_eff, and its path is fed the weighted mean step of the mu best
    children, whitened by C^(-1/2) and scaled by sqrt(mu_eff)."""
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
    """iDE, whose source is unknown: the paper names no variant that can be
    checked here. A trial's F/CR are the run's best individual's plus
    N(0, 0.5^2) times a difference of archived successful values."""
    F: np.ndarray                       # per-individual scale factors, (R, NP)
    CR: np.ndarray                      # per-individual crossover rates, (R, NP)
    archive: np.ndarray                 # (R, 2, capacity): F (row 0) and CR (row 1) values
    filled: np.ndarray                  # (R,) archive entries in use, the oldest first


def make_ide_state(np_: int, generations: int, rng) -> IdeState:
    """Each run's F ~ U(0.1, 1) and CR ~ U(0, 1) per individual, which also
    start the archive; it has room for every success of `generations`
    generations."""
    F = per_run(rng, lambda r: r.uniform(0.1, 1.0, size=np_))
    CR = per_run(rng, lambda r: r.uniform(0.0, 1.0, size=np_))
    archive = np.zeros((len(F), 2, np_ * generations))
    archive[:, 0, :np_], archive[:, 1, :np_] = F, CR
    return IdeState(F=F, CR=CR, archive=archive, filled=np.full(len(F), np_))


def draw_ide(rng, generations: int, np_: int) -> tuple[np.ndarray, np.ndarray]:
    """The random numbers of `generations` calls of `ide_update`, drawn from
    each run's generator in two blocks: the `noise`, N(0, 0.5^2) of shape
    `(R, generations, 2, NP)`, then the archive `picks`, uniforms of shape
    `(R, generations, 2, 2, NP)`."""
    noise = per_run(rng, lambda r: r.normal(0.0, 0.5, (generations, 2, np_)))
    return noise, per_run(rng, lambda r: r.random((generations, 2, 2, np_)))


def archive_differences(archive: np.ndarray, filled, u_i: np.ndarray,
                        u_j: np.ndarray) -> np.ndarray:
    """Differences archive[i] - archive[j] of distinct entries i != j < m of
    each row of `archive` (`(..., capacity)`), where m >= 2 is `filled`
    broadcast against the leading axes (an iDE archive starts with NP >= 4
    entries). The uniforms `u_i` and `u_j` (`(..., n)`, in [0, 1)) give
    i = floor(u_i m) and j = floor(u_j (m - 1)), j shifted past i. No clamp
    is needed: for u < 1 and an integer m < 2**53, u m lies at least half an
    ulp of m below m, so it never rounds up to m."""
    m = np.asarray(filled)[..., None]
    i = (u_i * m).astype(np.intp)
    j = (u_j * (m - 1)).astype(np.intp)
    j += j >= i
    return np.take_along_axis(archive, i, axis=-1) - np.take_along_axis(archive, j, axis=-1)


def ide_update(state: IdeState, best_index, noise: np.ndarray,
               picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-individual (F, CR) perturbed around each run's best individual's
    values (`best_index` holds one index per run) by N(0, 0.5^2) `noise`
    times an archive difference. `noise` is `(R, 2, NP)`, for F then CR;
    `picks` holds the uniforms of the differences' entries, `(R, 2, 2, NP)`:
    `picks[:, 0]` for i and `picks[:, 1]` for j."""
    diffs = archive_differences(state.archive, state.filled[:, None], picks[:, 0], picks[:, 1])
    best = np.asarray(best_index)[:, None]
    F = np.take_along_axis(state.F, best, axis=1) + noise[:, 0] * diffs[:, 0]
    CR = np.take_along_axis(state.CR, best, axis=1) + noise[:, 1] * diffs[:, 1]
    return np.clip(F, F_LOW, F_HIGH), np.clip(CR, CR_LOW, CR_HIGH)


def ide_record_success(state: IdeState, F: np.ndarray, CR: np.ndarray, replaced: np.ndarray) -> None:
    """Adopt trial parameters for winning individuals and append them to
    their run's archive, in individual order."""
    won = np.asarray(replaced, dtype=bool)
    state.F[won] = F[won]
    state.CR[won] = CR[won]
    run, _ = np.nonzero(won)
    slot = state.filled[run] + (np.cumsum(won, axis=1) - 1)[won]
    state.archive[run, 0, slot] = F[won]
    state.archive[run, 1, slot] = CR[won]
    state.filled += won.sum(axis=1)


# ---------------------------------------------------------------------------
# jDE

JDE_TAU = 0.1  # resample probability of F and of CR (Brest et al. 2006, IEEE TEC 10(6))


@dataclass
class JdeState:
    """jDE with one F/CR per run, adopted when the run's best improves.
    Brest et al. 2006 keep F_i/CR_i per individual, and a trial's values
    survive when the trial replaces its parent."""
    best_F: np.ndarray                  # (R,)
    best_CR: np.ndarray                 # (R,)


def draw_jde(rng, generations: int) -> np.ndarray:
    """The four uniforms per run of `generations` calls of `jde_update`,
    one `(R, generations, 4)` block from each run's generator."""
    return per_run(rng, lambda r: r.random((generations, 4)))


def jde_update(state: JdeState, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """With probability `JDE_TAU` resample F ~ U(0.1, 1) (CR ~ U(0, 1)),
    else keep the best. `u` holds four uniforms per run, `(R, 4)`: F is
    resampled where u[:, 0] < JDE_TAU, to 0.1 + 0.9 u[:, 1]; CR likewise
    from u[:, 2] and u[:, 3]."""
    F = np.where(u[:, 0] < JDE_TAU, 0.1 + (1.0 - 0.1) * u[:, 1], state.best_F)
    CR = np.where(u[:, 2] < JDE_TAU, u[:, 3], state.best_CR)
    return F, CR


def jde_record(state: JdeState, F, CR, improved) -> None:
    state.best_F = np.where(improved, F, state.best_F)
    state.best_CR = np.where(improved, CR, state.best_CR)

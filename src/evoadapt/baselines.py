"""Handcrafted adaptation baselines: CSA (step size), iDE and jDE (F, CR)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

F_LOW, F_HIGH = 0.0, 2.0
CR_LOW, CR_HIGH = 0.0, 1.0


def expected_chi_norm(d: int) -> float:
    """E||N(0, I_d)|| via the standard closed-form approximation."""
    return math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d ** 2))


# ---------------------------------------------------------------------------
# CSA

@dataclass
class CsaState:
    path: np.ndarray
    c: float
    d_sigma: float
    expected_norm: float


def make_csa_state(dim: int, c: float | None = None, d_sigma: float = 1.0) -> CsaState:
    if c is None:
        c = 4.0 / (dim + 4.0)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"cumulation factor must lie in [0, 1], got {c}")
    if d_sigma <= 0.0:
        raise ValueError(f"damping must be positive, got {d_sigma}")
    return CsaState(path=np.zeros(dim), c=c, d_sigma=d_sigma,
                    expected_norm=expected_chi_norm(dim))


def csa_update(state: CsaState, xi_star: np.ndarray, sigma: float) -> tuple[CsaState, float]:
    """Cumulate the best child's direction and rescale sigma."""
    c = state.c
    path = (1.0 - c) * state.path + math.sqrt(c * (2.0 - c)) * np.asarray(xi_star, dtype=float)
    ratio = np.linalg.norm(path) / state.expected_norm
    new_sigma = sigma * math.exp((c / state.d_sigma) * (ratio - 1.0))
    return CsaState(path=path, c=c, d_sigma=state.d_sigma,
                    expected_norm=state.expected_norm), float(new_sigma)


# ---------------------------------------------------------------------------
# iDE

@dataclass
class IdeState:
    F: np.ndarray                       # per-individual scale factors
    CR: np.ndarray                      # per-individual crossover rates
    f_archive: list[float] = field(default_factory=list)
    cr_archive: list[float] = field(default_factory=list)


def make_ide_state(np_: int, rng: np.random.Generator) -> IdeState:
    F = rng.uniform(0.1, 1.0, size=np_)
    CR = rng.uniform(0.0, 1.0, size=np_)
    return IdeState(F=F, CR=CR, f_archive=list(F), cr_archive=list(CR))


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


def ide_update(state: IdeState, best_index: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-individual (F, CR) perturbed around the best individual's values."""
    if not state.f_archive or not state.cr_archive:
        raise ValueError("iDE archives must be non-empty")
    np_ = len(state.F)
    F = state.F[best_index] + rng.normal(0.0, 0.5, np_) * archive_differences(state.f_archive, np_, rng)
    CR = state.CR[best_index] + rng.normal(0.0, 0.5, np_) * archive_differences(state.cr_archive, np_, rng)
    return np.clip(F, F_LOW, F_HIGH), np.clip(CR, CR_LOW, CR_HIGH)


def ide_record_success(state: IdeState, F: np.ndarray, CR: np.ndarray, replaced: np.ndarray) -> None:
    """Adopt trial parameters for winning individuals and archive them."""
    won = np.asarray(replaced, dtype=bool)
    state.F[won] = F[won]
    state.CR[won] = CR[won]
    state.f_archive.extend(F[won].tolist())
    state.cr_archive.extend(CR[won].tolist())


# ---------------------------------------------------------------------------
# jDE

@dataclass
class JdeState:
    best_F: float = 0.5
    best_CR: float = 0.9
    p: float = 0.1


def jde_update(state: JdeState, rng: np.random.Generator) -> tuple[float, float]:
    """With probability p resample F ~ U(0.1, 1) (CR ~ U(0, 1)), else keep the best."""
    F = rng.uniform(0.1, 1.0) if rng.random() < state.p else state.best_F
    CR = rng.uniform(0.0, 1.0) if rng.random() < state.p else state.best_CR
    return float(F), float(CR)


def jde_record(state: JdeState, F: float, CR: float, improved: bool) -> None:
    if improved:
        state.best_F = float(F)
        state.best_CR = float(CR)

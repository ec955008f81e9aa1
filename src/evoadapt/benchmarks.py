"""Benchmark objective functions with bounded domains.

The suite contains 46 entries built from 22 distinct functions following the
published BBOB/COCO definitions, with the instance transformations (optimum
shift, objective offset, rotations) set to identity/zero. Ten functions are
registered at 10 dimensions only; the remaining twelve are registered at 5,
10 and 20 dimensions. "CompositeGR", "GG101me" and "GG21hi" are interpreted
as BBOB f19 (composite Griewank-Rosenbrock), f21 (Gallagher 101 peaks) and
f22 (Gallagher 21 peaks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

LOWER = -5.0
UPPER = 5.0


@dataclass(frozen=True)
class BenchmarkFunction:
    name: str
    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    fn: Callable  # point (d,) -> float; registry objectives also map rows (n, d) -> (n,)

    @property
    def bounds_width(self) -> np.ndarray:
        return self.upper - self.lower


def evaluate(fn: BenchmarkFunction, x: np.ndarray) -> float:
    """Evaluate `fn` at `x`."""
    x = np.asarray(x, dtype=float)
    if x.shape != (fn.dimension,):
        raise ValueError(f"{fn.name}: expected vector of length {fn.dimension}, got shape {x.shape}")
    return float(fn.fn(x))


def evaluate_population(fn: BenchmarkFunction, X: np.ndarray) -> np.ndarray:
    """Evaluate every row of `X`.

    A registry objective evaluates the whole population in one call; any
    other callable (a counting wrapper, say) is called once per row.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != fn.dimension:
        raise ValueError(f"{fn.name}: expected rows of length {fn.dimension}, got shape {X.shape}")
    if getattr(fn.fn, "batched", False):
        return fn.fn(X)
    return np.array([float(fn.fn(x)) for x in X])


def evaluate_runs(fn: BenchmarkFunction, X: np.ndarray) -> np.ndarray:
    """Fitnesses `(R, n)` of an `(R, n, d)` stack (one population per run),
    from one `evaluate_population` call over all its rows."""
    return evaluate_population(fn, X.reshape(-1, fn.dimension)).reshape(X.shape[:-1])


def stack_objectives(fns: list) -> BenchmarkFunction:
    """One objective for a lockstep batch whose run i is on entry `fns[i]`,
    all of one dimension and on the common box. `evaluate_runs` hands it
    every run's n rows, run after run; run i's rows go to `fns[i]` through
    `evaluate_population`, so each run gets its entry's own bits and a
    counting wrapper still counts. An error raised there names the entry."""
    def f(X):
        runs = X.reshape(len(fns), -1, X.shape[-1])
        out = np.empty(runs.shape[:2])
        for fn, rows, fits in zip(fns, runs, out):
            try:
                fits[:] = evaluate_population(fn, rows)
            except Exception as exc:
                if hasattr(exc, "add_note"):  # Python >= 3.11
                    exc.add_note(f"while evaluating {fn.name}-{fn.dimension}")
                raise
        return out.ravel()

    f.batched = True
    first = fns[0]
    return BenchmarkFunction(name="+".join(fn.name for fn in fns), dimension=first.dimension,
                             lower=first.lower, upper=first.upper, fn=f)


def per_run(rng, draw: Callable) -> np.ndarray:
    """`draw(generator)` stacked over the runs' generators in `rng`.

    Episodes call it only when they start, once per block of random numbers
    (a whole episode's worth), so each run's generator is used exactly as a
    one-run batch would use it and no generation loops over runs. Each
    run's draw is copied into the stack as it comes, so a block costs its
    stack plus one run's draw, not twice the stack.
    """
    first = np.asarray(draw(rng[0]))
    stack = np.empty((len(rng),) + first.shape, first.dtype)
    stack[0] = first
    for i, r in enumerate(rng[1:], 1):
        stack[i] = draw(r)
    return stack


def _batched(body: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Registry objective from an array program over `(n, d)` rows.

    A single point runs the same program as a one-row population, so
    `evaluate` and `evaluate_population` agree bit for bit.
    """
    def f(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(body(x[None, :])[0])
        return body(x)

    f.batched = True
    return f


# ---------------------------------------------------------------------------
# BBOB transformation helpers (rotations fixed to identity); they act
# elementwise or along the last axis, so they take single points and rows.
# Every registered dimension is at least 5, so d - 1 never divides by zero.

def _lambda_alpha(alpha: float, d: int) -> np.ndarray:
    return alpha ** (0.5 * np.arange(d) / (d - 1))


def _t_osz(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    x_hat = np.where(x == 0.0, 0.0, np.log(np.abs(np.where(x == 0.0, 1.0, x))))
    c1 = np.where(x > 0.0, 10.0, 5.5)
    c2 = np.where(x > 0.0, 7.9, 3.1)
    return np.sign(x) * np.exp(x_hat + 0.049 * (np.sin(c1 * x_hat) + np.sin(c2 * x_hat)))


def _t_asy(x: np.ndarray, beta: float) -> np.ndarray:
    d = x.shape[-1]
    idx = np.arange(d) / (d - 1)
    exp = 1.0 + beta * idx * np.sqrt(np.maximum(x, 0.0))
    return np.where(x > 0.0, np.power(np.maximum(x, 0.0), exp), x)


def _f_pen(x: np.ndarray) -> np.ndarray:
    return np.sum(np.maximum(0.0, np.abs(x) - 5.0) ** 2, axis=-1)


# ---------------------------------------------------------------------------
# Function definitions (x_opt = 0 / canonical sign vector, f_opt = 0, R = Q = I).
# Each builder returns a `_batched` body over X of shape (n, d).

def _sphere(d: int) -> Callable:
    return _batched(lambda X: np.sum(X ** 2, axis=-1))


def _ellipsoid(d: int) -> Callable:
    coeff = 10.0 ** (6.0 * np.arange(d) / (d - 1))

    def f(X):
        z = _t_osz(X)
        return np.sum(coeff * z ** 2, axis=-1)

    return _batched(f)


def _rastrigin(d: int) -> Callable:
    lam = _lambda_alpha(10.0, d)

    def f(X):
        z = lam * _t_asy(_t_osz(X), 0.2)
        return 10.0 * (d - np.sum(np.cos(2 * np.pi * z), axis=-1)) + np.sum(z ** 2, axis=-1)

    return _batched(f)


def _bueche_rastrigin(d: int) -> Callable:
    base = 10.0 ** (0.5 * np.arange(d) / (d - 1))
    odd = np.arange(d) % 2 == 0  # BBOB's odd indices i=1,3,... in 1-based numbering

    def f(X):
        t = _t_osz(X)
        s = np.where((t > 0.0) & odd, 10.0 * base, base)
        z = s * t
        return (10.0 * (d - np.sum(np.cos(2 * np.pi * z), axis=-1)) + np.sum(z ** 2, axis=-1)
                + 100.0 * _f_pen(X))

    return _batched(f)


def _linear_slope(d: int) -> Callable:
    # optimum at the corner x_opt = 5 * ones; the shift cannot be removed here
    x_opt = 5.0 * np.ones(d)
    s = 10.0 ** (np.arange(d) / (d - 1))

    def f(X):
        z = np.where(x_opt * X < 25.0, X, x_opt)
        return np.sum(5.0 * np.abs(s) - s * z, axis=-1)

    return _batched(f)


def _attractive_sector(d: int) -> Callable:
    lam = _lambda_alpha(10.0, d)

    def f(X):
        z = lam * X
        s = np.where(z > 0.0, 100.0, 1.0)  # canonical +1 sign vector for x_opt
        return _t_osz(np.sum((s * z) ** 2, axis=-1)) ** 0.9

    return _batched(f)


def _step_ellipsoidal(d: int) -> Callable:
    lam = _lambda_alpha(10.0, d)
    coeff = 10.0 ** (2.0 * np.arange(d) / (d - 1))

    def f(X):
        z_hat = lam * X
        z = np.where(np.abs(z_hat) > 0.5, np.floor(0.5 + z_hat), np.floor(0.5 + 10.0 * z_hat) / 10.0)
        return 0.1 * np.maximum(np.abs(z_hat[:, 0]) / 1e4, np.sum(coeff * z ** 2, axis=-1)) + _f_pen(X)

    return _batched(f)


def _rosenbrock_shifted(shift: float):
    def make(d: int) -> Callable:
        scale = max(1.0, math.sqrt(d) / 8.0)

        def f(X):
            z = scale * X + shift
            return np.sum(100.0 * (z[:, :-1] ** 2 - z[:, 1:]) ** 2 + (z[:, :-1] - 1.0) ** 2, axis=-1)

        return _batched(f)

    return make


def _discus(d: int) -> Callable:
    def f(X):
        z = _t_osz(X)
        return 1e6 * z[:, 0] ** 2 + np.sum(z[:, 1:] ** 2, axis=-1)

    return _batched(f)


def _bent_cigar(d: int) -> Callable:
    def f(X):
        z = _t_asy(X, 0.5)
        return z[:, 0] ** 2 + 1e6 * np.sum(z[:, 1:] ** 2, axis=-1)

    return _batched(f)


def _sharp_ridge(d: int) -> Callable:
    lam = _lambda_alpha(10.0, d)

    def f(X):
        z = lam * X
        return z[:, 0] ** 2 + 100.0 * np.sqrt(np.sum(z[:, 1:] ** 2, axis=-1))

    return _batched(f)


def _different_powers(d: int) -> Callable:
    exps = 2.0 + 4.0 * np.arange(d) / (d - 1)
    return _batched(lambda X: np.sqrt(np.sum(np.abs(X) ** exps, axis=-1)))


def _weierstrass(d: int) -> Callable:
    lam = _lambda_alpha(0.01, d)
    k = np.arange(12)
    half_pow = 0.5 ** k
    three_pow = 3.0 ** k
    f0 = float(np.sum(half_pow * np.cos(2 * np.pi * three_pow * 0.5)))

    def f(X):
        z = lam * _t_osz(X)
        inner = np.sum(half_pow * np.cos(2 * np.pi * three_pow * (z[:, :, None] + 0.5)), axis=-1)
        return 10.0 * (np.mean(inner, axis=-1) - f0) ** 3 + 10.0 / d * _f_pen(X)

    return _batched(f)


def _schaffers(alpha: float):
    def make(d: int) -> Callable:
        lam = _lambda_alpha(alpha, d)

        def f(X):
            z = lam * _t_asy(X, 0.5)
            s = np.sqrt(z[:, :-1] ** 2 + z[:, 1:] ** 2)
            term = np.sqrt(s) + np.sqrt(s) * np.sin(50.0 * s ** 0.2) ** 2
            return (np.sum(term, axis=-1) / (d - 1)) ** 2 + 10.0 * _f_pen(X)

        return _batched(f)

    return make


def _composite_gr(d: int) -> Callable:
    scale = max(1.0, math.sqrt(d) / 8.0)

    def f(X):
        z = scale * X + 0.5
        s = 100.0 * (z[:, :-1] ** 2 - z[:, 1:]) ** 2 + (z[:, :-1] - 1.0) ** 2
        return 10.0 / (d - 1) * np.sum(s / 4000.0 - np.cos(s), axis=-1) + 10.0

    return _batched(f)


def _schwefel(d: int) -> Callable:
    x_opt = 0.5 * 4.2096874633 * np.ones(d)
    lam = _lambda_alpha(10.0, d)

    def f(X):
        x_hat = 2.0 * X  # canonical +1 sign vector
        z_hat = x_hat.copy()
        z_hat[:, 1:] = x_hat[:, 1:] + 0.25 * (x_hat[:, :-1] - 2.0 * np.abs(x_opt[:-1]))
        z = 100.0 * (lam * (z_hat - 2.0 * np.abs(x_opt)) + 2.0 * np.abs(x_opt))
        return (-np.sum(z * np.sin(np.sqrt(np.abs(z))), axis=-1) / (100.0 * d)
                + 4.189828872724339
                + 100.0 * _f_pen(z / 100.0))

    return _batched(f)


def _katsuura(d: int) -> Callable:
    lam = _lambda_alpha(100.0, d)
    two_j = 2.0 ** np.arange(1, 33)

    def f(X):
        scaled = two_j * (lam * X)[:, :, None]
        frac = np.abs(scaled - np.round(scaled)) / two_j
        terms = 1.0 + np.arange(1, d + 1) * np.sum(frac, axis=-1)
        prod = np.prod(terms ** (10.0 / d ** 1.2), axis=-1)
        return 10.0 / d ** 2 * prod - 10.0 / d ** 2 + _f_pen(X)

    return _batched(f)


def _lunacek_bi_rastrigin(d: int) -> Callable:
    mu0 = 2.5
    s = 1.0 - 1.0 / (2.0 * math.sqrt(d + 20.0) - 8.2)
    mu1 = -math.sqrt((mu0 ** 2 - 1.0) / s)
    lam = _lambda_alpha(100.0, d)

    def f(X):
        x_hat = 2.0 * X  # canonical +1 sign vector
        z = lam * (x_hat - mu0)
        first = np.sum((x_hat - mu0) ** 2, axis=-1)
        second = d + s * np.sum((x_hat - mu1) ** 2, axis=-1)
        return (np.minimum(first, second) + 10.0 * (d - np.sum(np.cos(2 * np.pi * z), axis=-1))
                + 1e4 * _f_pen(X))

    return _batched(f)


def _gallagher_layout(n_peaks: int, seed: int, d: int):
    """Deterministic peak layout `(centers, scales, weights)`, shapes
    `(peaks, d)`, `(peaks, d)` and `(peaks,)`; the global-optimum peak 0 sits
    at the origin."""
    rng = np.random.default_rng([seed, n_peaks, d])
    centers = rng.uniform(-4.9, 4.9, size=(n_peaks, d))
    centers[0] = 0.0
    w = np.empty(n_peaks)
    w[0] = 10.0
    w[1:] = 1.1 + 8.0 * np.arange(n_peaks - 1) / (n_peaks - 2)
    alphas = 1000.0 ** (2.0 * rng.permutation(n_peaks - 1) / (n_peaks - 2))
    alpha0 = 1000.0 if n_peaks == 101 else 1000.0 ** 2
    scales = np.empty((n_peaks, d))
    scales[0] = _lambda_alpha(alpha0, d) ** 2 / alpha0 ** 0.25
    for i in range(1, n_peaks):
        a = alphas[i - 1]
        diag = _lambda_alpha(a, d) ** 2 / a ** 0.25
        scales[i] = rng.permutation(diag)
    return centers, scales, w


def _gallagher(n_peaks: int, seed: int):
    def make(d: int) -> Callable:
        centers, scales, w = _gallagher_layout(n_peaks, seed, d)
        # Peak i's log-height log w_i - q_i / (2d), with
        # q_i = sum_j s_ij x_j^2 - 2 sum_j s_ij c_ij x_j + sum_j s_ij c_ij^2,
        # is one product of [x^2, x] with a (2d, peaks) matrix plus a constant.
        coef = np.concatenate([-scales.T, 2.0 * (scales * centers).T]) / (2.0 * d)
        offset = np.log(w) - np.sum(scales * centers ** 2, axis=-1) / (2.0 * d)

        def f(X):
            # A stack of one-row products, (n, 1, 2d) @ (2d, peaks): a plain
            # (n, 2d) @ (2d, peaks) rounds some rows unlike the one-row
            # product, so a point's value would depend on its batch.
            score = (np.concatenate([X * X, X], axis=1)[:, None, :] @ coef)[:, 0] + offset
            # The expanded form cancels near a peak's center, so the highest
            # peak's quadratic is computed again from its differences.
            k = np.argmax(score, axis=-1)
            quad = np.sum(scales[k] * (X - centers[k]) ** 2, axis=-1)
            val = w[k] * np.exp(-quad / (2.0 * d))
            return _t_osz(10.0 - val) ** 2 + _f_pen(X)

        return _batched(f)

    return make


# ---------------------------------------------------------------------------
# Registry.

_TEN_D_ONLY = [
    ("BentCigar", _bent_cigar),
    ("Discus", _discus),
    ("Ellipsoid", _ellipsoid),
    ("Katsuura", _katsuura),
    ("Rastrigin", _rastrigin),
    ("Rosenbrock", _rosenbrock_shifted(1.0)),
    ("Schaffers", _schaffers(10.0)),
    ("Schwefel", _schwefel),
    ("Sphere", _sphere),
    ("Weierstrass", _weierstrass),
]

_MULTI_DIM = [
    ("AttractiveSector", _attractive_sector),
    ("BuecheRastrigin", _bueche_rastrigin),
    ("CompositeGR", _composite_gr),
    ("DifferentPowers", _different_powers),
    ("LinearSlope", _linear_slope),
    ("SharpRidge", _sharp_ridge),
    ("StepEllipsoidal", _step_ellipsoidal),
    ("RosenbrockRotated", _rosenbrock_shifted(0.5)),
    ("SchaffersIllConditioned", _schaffers(1000.0)),
    ("LunacekBiR", _lunacek_bi_rastrigin),
    ("GG101me", _gallagher(101, 2101)),
    ("GG21hi", _gallagher(21, 2102)),
]


def _build_registry() -> dict[tuple[str, int], BenchmarkFunction]:
    registry: dict[tuple[str, int], BenchmarkFunction] = {}

    def add(name: str, d: int, builder) -> None:
        registry[(name.lower(), d)] = BenchmarkFunction(
            name=name,
            dimension=d,
            lower=np.full(d, LOWER),
            upper=np.full(d, UPPER),
            fn=builder(d),
        )

    for name, builder in _TEN_D_ONLY:
        add(name, 10, builder)
    for name, builder in _MULTI_DIM:
        for d in (5, 10, 20):
            add(name, d, builder)
    return registry


_REGISTRY = _build_registry()


def registry_list() -> list[tuple[str, int]]:
    """All 46 (name, dimension) pairs in registration order."""
    return [(fn.name, fn.dimension) for fn in _REGISTRY.values()]


def get_function(name: str, dimension: int) -> BenchmarkFunction:
    key = (name.lower(), int(dimension))
    if key not in _REGISTRY:
        raise KeyError(f"unknown benchmark function {name!r} in dimension {dimension}")
    return _REGISTRY[key]

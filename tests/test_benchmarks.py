import math

import numpy as np
import pytest

from evoadapt.benchmarks import (_gallagher_layout, evaluate, evaluate_population,
                                 get_function, registry_list)


def test_registry_has_46_entries():
    entries = registry_list()
    assert len(entries) == 46
    assert len(set(entries)) == 46


def test_registry_contents():
    entries = registry_list()
    assert ("Sphere", 10) in entries
    for d in (5, 10, 20):
        assert ("LinearSlope", d) in entries
    ten_d_only = ["BentCigar", "Discus", "Ellipsoid", "Katsuura", "Rastrigin",
                  "Rosenbrock", "Schaffers", "Schwefel", "Sphere", "Weierstrass"]
    for name in ten_d_only:
        assert (name, 10) in entries
        assert (name, 5) not in entries


def test_registry_order_is_deterministic():
    assert registry_list() == registry_list()


def test_registry_order_is_pinned():
    """The order sets `list-functions`, the columns of `compare` and which
    entry a multi-function training episode samples."""
    ten_d_only = ["BentCigar", "Discus", "Ellipsoid", "Katsuura", "Rastrigin",
                  "Rosenbrock", "Schaffers", "Schwefel", "Sphere", "Weierstrass"]
    multi_dim = ["AttractiveSector", "BuecheRastrigin", "CompositeGR", "DifferentPowers",
                 "LinearSlope", "SharpRidge", "StepEllipsoidal", "RosenbrockRotated",
                 "SchaffersIllConditioned", "LunacekBiR", "GG101me", "GG21hi"]
    assert registry_list() == ([(name, 10) for name in ten_d_only]
                               + [(name, d) for name in multi_dim for d in (5, 10, 20)])


def test_case_insensitive_lookup():
    assert get_function("sphere", 10) is get_function("Sphere", 10)
    with pytest.raises(KeyError):
        get_function("Sphere", 7)


def test_sphere_values():
    fn = get_function("Sphere", 10)
    assert evaluate(fn, np.zeros(10)) == 0.0
    assert evaluate(fn, np.ones(10)) == 10.0


def test_rastrigin_optimum():
    fn = get_function("Rastrigin", 10)
    assert evaluate(fn, np.zeros(10)) == 0.0


def test_dimension_mismatch_rejected():
    fn = get_function("Sphere", 10)
    with pytest.raises(ValueError):
        evaluate(fn, np.zeros(5))


def test_all_functions_finite_on_random_points(rng):
    for name, d in registry_list():
        fn = get_function(name, d)
        X = rng.uniform(fn.lower, fn.upper, size=(100, d))
        values = np.array([evaluate(fn, x) for x in X])
        assert np.all(np.isfinite(values)), (name, d)


def test_evaluation_is_deterministic(rng):
    for name, d in registry_list():
        fn = get_function(name, d)
        x = rng.uniform(fn.lower, fn.upper, size=d)
        assert evaluate(fn, x) == evaluate(fn, x)


# The registry's Gallagher entries: name -> (peaks, layout seed).
GALLAGHER = {"GG101me": (101, 2101), "GG21hi": (21, 2102)}


def t_osz(x: float) -> float:
    """BBOB's oscillation transform of one value."""
    if x == 0.0:
        return 0.0
    x_hat = math.log(abs(x))
    c1, c2 = (10.0, 7.9) if x > 0.0 else (5.5, 3.1)
    return math.copysign(math.exp(x_hat + 0.049 * (math.sin(c1 * x_hat) + math.sin(c2 * x_hat))), x)


def gallagher_definition(x, centers, scales, weights) -> float:
    """BBOB f21/f22 (identity rotations, f_opt = 0), one peak and one
    coordinate at a time."""
    d = len(x)
    heights = [w * math.exp(-sum(s * (xj - cj) ** 2 for xj, cj, s in zip(x, c, sc)) / (2 * d))
               for c, sc, w in zip(centers, scales, weights)]
    penalty = sum(max(0.0, abs(xj) - 5.0) ** 2 for xj in x)
    return t_osz(10.0 - max(heights)) ** 2 + penalty


@pytest.mark.parametrize("name,d", [(n, d) for n in GALLAGHER for d in (5, 10, 20)])
def test_gallagher_matches_its_elementwise_definition(name, d):
    """Random points in [-6, 6]^d, a point within 1e-6 of every peak center
    (where an expanded quadratic would cancel) and the origin.

    Agreement is to rtol 1e-10, plus what rounding the height near 10 costs
    any evaluation of the definition: each side's height may be an ulp of 10
    off, and as T_osz's slope stays below 2.1, f = T_osz(10 - height)^2 moves
    by at most 4.2 sqrt(f) per unit of height. That term exceeds 1e-10 f
    only where f < 3.2e-8, here at the point beside the origin (f about
    3e-21)."""
    n_peaks, seed = GALLAGHER[name]
    centers, scales, weights = _gallagher_layout(n_peaks, seed, d)
    rng = np.random.default_rng(d)
    X = np.concatenate([rng.uniform(-6.0, 6.0, size=(40, d)),
                        centers + rng.uniform(-1e-6, 1e-6, size=centers.shape),
                        np.zeros((1, d))])
    expected = np.array([gallagher_definition(x, centers, scales, weights) for x in X])
    fn = get_function(name, d)
    error = np.abs(evaluate_population(fn, X) - expected)
    assert np.all(error <= 1e-10 * expected + 10.0 * np.sqrt(expected) * np.spacing(10.0))
    assert evaluate(fn, np.zeros(d)) == 0.0

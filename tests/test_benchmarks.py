import numpy as np
import pytest

from evoadapt.benchmarks import (BudgetExhausted, EvalBudget, evaluate,
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


def test_budget_counting_and_exhaustion():
    fn = get_function("Sphere", 10)
    budget = EvalBudget(3)
    for _ in range(3):
        evaluate(fn, np.zeros(10), budget)
    assert budget.used == 3
    with pytest.raises(BudgetExhausted):
        evaluate(fn, np.zeros(10), budget)
    assert budget.used == 3


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

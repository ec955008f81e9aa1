import logging
import pickle

import numpy as np

from evoadapt.benchmarks import get_function
from evoadapt.cmaes import (CmaState, StateNotFinite, cma_generation, init_state,
                            sample_offspring, _decompose, _square_root)

from conftest import counted

SPHERE = get_function("Sphere", 10)


def test_generation_advances_eval_counter(rng):
    state = init_state(SPHERE, [rng])
    fn, calls = counted(SPHERE)
    cma_generation(state, 0.5, fn, rng.standard_normal((1, 10, 10)))
    assert calls[0] == 10


def test_determinism():
    def run(seed):
        rng = np.random.default_rng(seed)
        state = init_state(SPHERE, [rng])
        z = rng.standard_normal((1, 3, 10, 10))
        for g, sigma in enumerate((0.5, 0.4, 0.3)):
            result = cma_generation(state, sigma, SPHERE, z[:, g])
            state = result.state
        return state

    a, b = run(3), run(3)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.cov, b.cov)


def test_covariance_stays_positive_definite(rng):
    state = init_state(SPHERE, [rng])
    z = rng.standard_normal((1, 30, 10, 10))
    for g in range(30):
        result = cma_generation(state, 0.5, SPHERE, z[:, g])
        state = result.state
        cov = state.cov[0]
        vals = np.linalg.eigvalsh((cov + cov.T) / 2)
        assert np.all(vals > 0)


def test_eigenvalue_floor_repair():
    broken = np.eye(3)
    broken[0, 0] = -1.0
    vals, _vecs = _decompose(broken)
    assert np.all(vals > 0)


def test_sampling_distribution(rng):
    X = sample_offspring(np.zeros((1, 5)), np.eye(5)[None], 1.0,
                         rng.standard_normal((1, 100_000, 5)))[0]
    assert np.all(np.abs(X.mean(axis=0)) < 0.02)
    assert np.all(np.abs(X.std(axis=0) - 1.0) < 0.02)


def test_sampling_distribution_rotated_ill_conditioned():
    """Mean and covariance of the offspring are `m` and `sigma^2 C` for a
    rotated C with condition number 1e4, where the square root's transpose
    matters. Each entry of the sample mean and covariance must lie within
    5 standard errors of its target."""
    rng = np.random.default_rng(7)
    rotation, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    C = (rotation * np.logspace(-2, 2, 5)) @ rotation.T
    C = (C + C.T) / 2.0
    mean, sigma, n = np.array([1.0, -2.0, 0.5, 3.0, -0.25]), 0.3, 200_000
    X = sample_offspring(mean[None], C[None], sigma, rng.standard_normal((1, n, 5)))[0]
    target = sigma ** 2 * C
    sd = np.sqrt(np.diag(target))
    assert np.all(np.abs(X.mean(axis=0) - mean) < 5.0 * sd / np.sqrt(n))
    # standard error of a sample covariance entry of a Gaussian
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / n)
    assert np.all(np.abs(np.cov(X, rowvar=False) - target) < 5.0 * se)


def test_one_broken_run_takes_the_repair_and_the_others_keep_their_bytes(caplog):
    rng = np.random.default_rng(11)
    M = rng.standard_normal((3, 5, 5))
    cov = M @ M.swapaxes(-1, -2) + 0.1 * np.eye(5)
    cov[1] = np.diag([-1.0, 1.0, 2.0, 3.0, 4.0])
    mean, sigma = rng.standard_normal((3, 5)), np.array([0.5, 1.0, 2.0])
    z = rng.standard_normal((3, 8, 5))

    with caplog.at_level(logging.WARNING, logger="evoadapt.cmaes"):
        stacked = sample_offspring(mean, cov, sigma, z)
    assert "flooring" in caplog.text
    vals, vecs = _decompose(cov[1])
    assert np.array_equal(_square_root(cov)[1], vecs * np.sqrt(vals))
    assert np.isfinite(stacked).all()
    for i in range(3):
        alone = sample_offspring(mean[i:i + 1], cov[i:i + 1], sigma[i:i + 1], z[i:i + 1])
        assert stacked[i].tobytes() == alone[0].tobytes(), i


def test_state_not_finite_survives_pickling():
    exc = StateNotFinite("CMA-ES covariance on Sphere-10 is not finite at generation 2", [2])
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is StateNotFinite
    assert str(back) == str(exc) and back.args == exc.args
    assert back.runs == [2]


def test_best_so_far_envelope_non_increasing(rng):
    state = init_state(SPHERE, [rng])
    z = rng.standard_normal((1, 50, 10, 10))
    bests = []
    for g in range(50):
        result = cma_generation(state, 0.5, SPHERE, z[:, g])
        state = result.state
        bests.append(result.fitnesses.min())
    envelope = np.minimum.accumulate(bests)
    assert np.all(np.diff(envelope) <= 0)


def test_small_sigma_near_optimum_improves(rng):
    state = CmaState(mean=np.zeros((1, 10)), cov=np.eye(10)[None], path_c=np.zeros((1, 10)))
    z = np.random.default_rng(0).standard_normal((1, 20, 10))
    wide = cma_generation(state, 1.0, SPHERE, z)
    narrow = cma_generation(state, 1e-3, SPHERE, z)
    assert narrow.fitnesses.min() < wide.fitnesses.min()


import math

import numpy as np
import pytest

from evoadapt import envloop
from evoadapt.baselines import (JDE_TAU, CsaState, JdeState, archive_differences, csa_update,
                                draw_ide, draw_jde, expected_chi_norm, ide_record_success,
                                ide_update, jde_record, jde_update, make_csa_state,
                                make_ide_state)


def jde_resampled(u: float) -> tuple[float, float]:
    """The F and CR that jDE resamples from the uniform `u`."""
    F, CR = jde_update(JdeState(np.zeros(1), np.zeros(1)), np.array([[0.0, u, 0.0, u]]))
    return float(F[0]), float(CR[0])


@pytest.mark.parametrize("value,published", [
    pytest.param(envloop.FIXED_F, 0.5, id="fixed-F"),
    pytest.param(envloop.FIXED_CR, 0.9, id="fixed-CR"),
    pytest.param(envloop.SIGMA0, 0.5, id="sigma0"),
    pytest.param(JDE_TAU, 0.1, id="jde-tau"),
    *[pytest.param(jde_resampled(u), (0.1 + 0.9 * u, u), id=f"jde-resample-u{u}")
      for u in (0.0, 0.5, 0.999)],
    *[pytest.param((make_csa_state(d).c, make_csa_state(d).d_sigma), (4.0 / (d + 4.0), 1.0),
                   id=f"csa-d{d}") for d in (5, 10, 20)],
])
def test_published_constants(value, published):
    """The baselines' values from their sources: the fixed F = 0.5, CR = 0.9
    and sigma = 0.5; jDE's tau = 0.1 and its resample F = 0.1 + 0.9 u, CR =
    u (Brest et al. 2006); CSA's c = 4/(d+4) and d_sigma = 1 at every
    registered dimension."""
    assert value == pytest.approx(published, rel=1e-15)


def csa_state(dim, c, d_sigma=1.0):
    """A fresh CSA state with cumulation `c` and damping `d_sigma`."""
    return CsaState(path=np.zeros(dim), c=c, d_sigma=d_sigma,
                    expected_norm=expected_chi_norm(dim))


class TestCsa:
    def test_default_constants(self):
        state = make_csa_state(6)
        assert (state.c, state.d_sigma) == (0.4, 1.0)
        assert state.expected_norm == expected_chi_norm(6)
        assert np.array_equal(state.path, np.zeros(6))

    def test_neutral_path_length_keeps_sigma(self):
        state = csa_state(10, c=0.5)
        # choose xi* so that ||p_new|| equals the expected norm exactly
        direction = np.zeros((1, 10))
        direction[0, 0] = state.expected_norm / math.sqrt(0.5 * 1.5)
        _new, sigma = csa_update(state, direction, 0.7)
        assert sigma.shape == (1,)
        assert sigma[0] == 0.7

    def test_path_recurrence_from_zero(self):
        state = csa_state(4, c=0.5)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        new, _sigma = csa_update(state, v[None], 1.0)
        assert new.path.shape == (1, 4)
        assert np.allclose(new.path[0], math.sqrt(0.75) * v)
        assert np.allclose(new.path[0], 0.8660254037844386 * v)

    def test_double_length_path_scales_sigma_by_exp_half(self):
        state = csa_state(6, c=0.5, d_sigma=1.0)
        direction = np.zeros((1, 6))
        direction[0, 0] = 2.0 * state.expected_norm / math.sqrt(0.5 * 1.5)
        _new, sigma = csa_update(state, direction, 1.0)
        assert np.isclose(sigma[0], math.exp(0.5))

    def test_multiplier_depends_only_on_normalized_length(self):
        # same ||p_new|| / E-norm ratio in different dimensions, same multiplier
        for sigma0 in (0.3, 1.7):
            mults = []
            for d in (5, 20):
                state = csa_state(d, c=0.25, d_sigma=1.5)
                direction = np.zeros((1, d))
                direction[0, 0] = 1.4 * state.expected_norm / math.sqrt(0.25 * 1.75)
                _new, sigma = csa_update(state, direction, sigma0)
                mults.append(sigma[0] / sigma0)
            assert np.isclose(mults[0], mults[1])

    def test_stacked_runs_update_like_the_one_run_formula(self):
        """Each run of a stacked update equals the one-vector formula bit for
        bit; a stacked norm or `np.exp` would round some runs differently."""
        rng = np.random.default_rng(4)
        state = csa_state(7, c=0.3)
        xi = rng.normal(size=(6, 7)) * 3.0
        sigma = rng.uniform(0.1, 2.0, 6)
        new, stacked = csa_update(state, xi, sigma)
        for i in range(6):
            ratio = np.linalg.norm(new.path[i]) / state.expected_norm
            assert stacked[i] == sigma[i] * math.exp((state.c / state.d_sigma) * (ratio - 1.0))

    def test_expected_norm_approximation(self):
        # compare against a Monte-Carlo estimate
        rng = np.random.default_rng(0)
        sample = np.linalg.norm(rng.standard_normal((200_000, 10)), axis=1)
        assert abs(expected_chi_norm(10) - sample.mean()) < 0.01


def ide_draws(rng, np_):
    """One generation of one run's iDE noise and archive picks."""
    noise, picks = draw_ide([rng], 1, np_)
    return noise[:, 0], picks[:, 0]


class TestIde:
    def test_equal_archive_draws_give_best_value(self, rng):
        state = make_ide_state(6, 2, [rng])
        state.archive[0, 0, :3] = 0.7
        state.archive[0, 1, :3] = 0.3
        state.filled[:] = 3
        F, CR = ide_update(state, [2], *ide_draws(rng, 6))
        assert F.shape == CR.shape == (1, 6)
        assert np.allclose(F, state.F[0, 2])
        assert np.allclose(CR, state.CR[0, 2])

    def test_outputs_always_clipped(self, rng):
        state = make_ide_state(8, 2, [rng])
        state.archive[0, 0, :10] = [0.0, 2.0] * 5
        state.archive[0, 1, :10] = [0.0, 1.0] * 5
        state.filled[:] = 10
        for _ in range(200):
            F, CR = ide_update(state, [0], *ide_draws(rng, 8))
            assert np.all((F >= 0) & (F <= 2))
            assert np.all((CR >= 0) & (CR <= 1))

    def test_monte_carlo_mean_is_best(self):
        rng = np.random.default_rng(1)
        state = make_ide_state(4, 1, [rng])
        state.F[:] = [0.9, 1.0, 1.1, 1.05]
        state.archive[0, 0, :4] = [0.8, 0.9, 1.0, 1.1]
        draws = []
        for _ in range(25_000):
            F, _ = ide_update(state, [1], *ide_draws(rng, 4))
            draws.extend(F[0])
        draws = np.array(draws)
        # noise term has zero mean; 3 standard errors around F_best = 1.0
        stderr = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.0) < 3 * stderr + 1e-3

    def test_success_recording_updates_state_and_archives(self, rng):
        state = make_ide_state(4, 3, [rng, rng])
        n0 = state.filled.copy()
        before = state.F.copy()
        F = np.array([[0.2, 0.4, 0.6, 0.8], [1.2, 1.4, 1.6, 1.8]])
        CR = np.array([[0.1, 0.3, 0.5, 0.7], [0.15, 0.35, 0.55, 0.75]])
        won = np.array([[True, False, True, False], [False, True, True, True]])
        ide_record_success(state, F, CR, won)
        assert state.filled.tolist() == [n0[0] + 2, n0[1] + 3]
        assert state.archive[0, :, n0[0]:n0[0] + 2].tolist() == [[0.2, 0.6], [0.1, 0.5]]
        assert state.archive[1, :, n0[1]:n0[1] + 3].tolist() == [[1.4, 1.6, 1.8],
                                                                 [0.35, 0.55, 0.75]]
        assert state.F[0, 0] == 0.2 and state.F[0, 2] == 0.6
        assert state.F[0, 1] == before[0, 1] and state.F[0, 3] == before[0, 3]
        assert state.F[1].tolist() == [before[1, 0], 1.4, 1.6, 1.8]
        ide_record_success(state, F, CR, won)
        assert state.archive[0, 0, n0[0]:n0[0] + 4].tolist() == [0.2, 0.6, 0.2, 0.6]

    def test_archive_index_of_the_largest_uniform_stays_in_the_filled_part(self):
        """u one ulp below 1 picks entries below the fill count m, and i != j,
        for every m in 2..500; entries past m are NaN, so a pick there shows."""
        top = np.full(1, np.nextafter(1.0, 0.0))
        for m in range(2, 501):
            archive = np.full(600, np.nan)
            archive[:m] = np.arange(m)
            for u_i, u_j in ((top, top), (top, 0 * top), (0 * top, top)):
                diff = archive_differences(archive, m, u_i, u_j)
                assert np.isfinite(diff).all() and (diff != 0.0).all(), (m, u_i, u_j)


class TestJde:
    def test_resample_branch_bounds(self):
        # sentinels outside the sample range
        state = JdeState(best_F=np.full(2000, 5.0), best_CR=np.full(2000, 5.0))
        F, CR = jde_update(state, draw_jde([np.random.default_rng(0)], 2000)[0])
        assert (F != 5.0).any() and (CR != 5.0).any()
        assert np.all((F == 5.0) | ((0.1 <= F) & (F < 1.0)))
        assert np.all((CR == 5.0) | ((0.0 <= CR) & (CR < 1.0)))

    def test_keep_branch_returns_best(self):
        """Uniforms at or above tau keep each run's best F and CR."""
        state = JdeState(best_F=np.array([0.42, 0.13]), best_CR=np.array([0.77, 0.31]))
        u = np.array([[JDE_TAU, 0.3, JDE_TAU, 0.6], [0.99, 0.0, 0.5, 0.0]])
        F, CR = jde_update(state, u)
        assert F.shape == CR.shape == (2,)
        assert np.array_equal(F, [0.42, 0.13]) and np.array_equal(CR, [0.77, 0.31])

    def test_resample_frequency(self):
        state = JdeState(best_F=np.full(100_000, -1.0), best_CR=np.full(100_000, -1.0))
        F, CR = jde_update(state, draw_jde([np.random.default_rng(2)], 100_000)[0])
        assert abs(np.mean(F != -1.0) - 0.1) < 0.01
        assert abs(np.mean(CR != -1.0) - 0.1) < 0.01

    def test_record_on_improvement_only(self):
        state = JdeState(np.array([0.5, 0.5]), np.array([0.9, 0.9]))
        jde_record(state, np.array([0.9, 0.8]), np.array([0.1, 0.2]),
                   improved=np.array([False, False]))
        assert np.array_equal(state.best_F, [0.5, 0.5])
        jde_record(state, np.array([0.9, 0.8]), np.array([0.1, 0.2]),
                   improved=np.array([True, False]))
        assert np.array_equal(state.best_F, [0.9, 0.5])
        assert np.array_equal(state.best_CR, [0.1, 0.9])


def test_baselines_deterministic_under_fixed_seed():
    def traj(seed):
        rng = np.random.default_rng(seed)
        ide = make_ide_state(6, 21, [rng])
        jde = JdeState(np.array([0.5]), np.array([0.9]))
        out = []
        for _ in range(20):
            F, CR = ide_update(ide, [0], *ide_draws(rng, 6))
            out.append((F.copy(), CR.copy(), np.stack(jde_update(jde, draw_jde([rng], 1)[:, 0]))))
        return out

    for (f1, c1, j1), (f2, c2, j2) in zip(traj(9), traj(9)):
        assert np.array_equal(f1, f2) and np.array_equal(c1, c2) and np.array_equal(j1, j2)

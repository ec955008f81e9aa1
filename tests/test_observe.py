import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoadapt.observe import (ObservationSpec, RunTrace, build_observation,
                              inter_delta_f, inter_delta_x, intra_delta_f,
                              intra_delta_x, reward)
from conftest import random_trace


def append(trace, genotypes, fitnesses):
    """Record one generation of a one-run batch: `(NP, d)` genotypes and
    `(NP,)` fitnesses gain the leading run axis."""
    trace.append_generation(np.asarray(genotypes, dtype=float)[None],
                            np.asarray(fitnesses, dtype=float)[None], np.array([[0.5]]))


def trace_from_best_fitness(values):
    trace = RunTrace()
    for v in values:
        append(trace, np.zeros((2, 2)), [v, v + 1.0])
    return trace


class TestInterDeltaF:
    def test_no_change_gives_zero(self):
        trace = trace_from_best_fitness([5.0, 5.0])
        assert inter_delta_f(trace, 1)[0, 0] == 0.0

    def test_improvement_value(self):
        trace = trace_from_best_fitness([10.0, 5.0])
        assert np.isclose(inter_delta_f(trace, 1)[0, 0], -0.3333331111112593, atol=1e-12)

    def test_saturates_toward_one(self):
        trace = trace_from_best_fitness([0.0, 1e9])
        v = inter_delta_f(trace, 1)[0, 0]
        assert v > 0.9999999 and v < 1.0

    def test_newest_first_and_zero_padding(self):
        trace = trace_from_best_fitness([8.0, 4.0, 2.0])
        out = inter_delta_f(trace, 5)[:, 0]
        assert np.isclose(out[0], (2.0 - 4.0) / (2.0 + 4.0 + 1e-5))
        assert np.isclose(out[1], (4.0 - 8.0) / (4.0 + 8.0 + 1e-5))
        assert np.all(out[2:] == 0.0)

    def test_scale_invariance_of_sign(self, rng):
        values = rng.normal(size=12)
        scaled = 37.5 * values
        t1, t2 = trace_from_best_fitness(values), trace_from_best_fitness(scaled)
        assert np.array_equal(np.sign(inter_delta_f(t1, 11)), np.sign(inter_delta_f(t2, 11)))


class TestIntraDeltaF:
    def test_uniform_population_gives_zero(self):
        trace = RunTrace()
        append(trace, np.zeros((3, 2)), np.full(3, 4.2))
        assert intra_delta_f(trace, 1)[0, 0] == 0.0

    def test_known_values(self):
        trace = RunTrace()
        append(trace, np.zeros((2, 2)), [0.0, 10.0])
        assert np.isclose(intra_delta_f(trace, 1)[0, 0], 0.9999990000010001, atol=1e-12)
        trace2 = RunTrace()
        append(trace2, np.zeros((2, 2)), [1.0, 2.0])
        assert np.isclose(intra_delta_f(trace2, 1)[0, 0], 0.49999750001249993, atol=1e-12)


class TestDeltaX:
    width = np.full(2, 10.0)

    def test_zero_displacement(self):
        trace = RunTrace()
        for _ in range(2):
            append(trace, [[1.0, 1.0]], [0.0])
        assert np.all(inter_delta_x(trace, 1, self.width) == 0.0)

    def test_inter_displacement_pair(self):
        trace = RunTrace()
        append(trace, [[0.0, 0.0]], [0.0])
        append(trace, [[1.0, -2.0]], [0.0])
        pair = inter_delta_x(trace, 1, self.width)
        assert pair.shape == (2, 1)
        assert np.allclose(pair[:, 0], [-0.2, 0.1])

    def test_min_leq_max(self, rng):
        trace = random_trace(rng, 6)
        out = inter_delta_x(trace, 6, np.full(3, 10.0))
        assert np.all(out[0::2] <= out[1::2])

    def test_intra_spread_values(self):
        trace = RunTrace()
        append(trace, [[0.0, 0.0], [2.0, 5.0]], [0.0, 1.0])
        spread = intra_delta_x(trace, 1, self.width)
        assert spread.shape == (2, 1)
        assert np.allclose(spread[:, 0], [0.2, 0.5])

    def test_identical_population_gives_zero_and_full_span_gives_one(self):
        trace = RunTrace()
        append(trace, np.ones((4, 2)), np.zeros(4))
        assert np.all(intra_delta_x(trace, 1, self.width) == 0.0)
        trace2 = RunTrace()
        append(trace2, [[-5.0, 0.0], [5.0, 0.1]], np.zeros(2))
        assert intra_delta_x(trace2, 1, self.width)[1, 0] == 1.0


class TestBuildObservation:
    def test_base_length(self, rng):
        trace = random_trace(rng, 3)
        spec = ObservationSpec(history_length=40)
        obs = build_observation(trace, spec, np.zeros((1, 4)), np.full(3, 10.0))
        assert obs.shape == (1, 44)

    def test_with_intra_df_length(self, rng):
        trace = random_trace(rng, 3)
        spec = ObservationSpec(history_length=40, include_intra_df=True)
        obs = build_observation(trace, spec, np.zeros((1, 4)), np.full(3, 10.0))
        assert obs.shape == (1, 84)

    def test_generation_zero_inter_block_is_zero(self, rng):
        trace = random_trace(rng, 1)
        spec = ObservationSpec(history_length=10)
        obs = build_observation(trace, spec, np.full((1, 2), 0.5), np.full(3, 10.0))
        assert np.all(obs[0, :10] == 0.0)

    @given(intra_df=st.booleans(), inter_dx=st.booleans(), intra_dx=st.booleans(),
           g=st.integers(min_value=1, max_value=50),
           a=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_length_matches_spec_for_all_block_combinations(self, intra_df, inter_dx,
                                                            intra_dx, g, a):
        spec = ObservationSpec(g, intra_df, inter_dx, intra_dx)
        trace = random_trace(np.random.default_rng(0), 4)
        obs = build_observation(trace, spec, np.zeros((1, a)), np.full(3, 10.0))
        assert obs.shape == (1, spec.length(a))
        assert np.all(np.isfinite(obs))


class TestBoundsProperties:
    def test_metric_ranges_over_random_traces(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            trace = random_trace(rng, int(rng.integers(1, 10)))
            g = int(rng.integers(1, 8))
            inter = inter_delta_f(trace, g)
            assert np.all(inter > -1.0) and np.all(inter < 1.0)
            intra = intra_delta_f(trace, g)
            assert np.all(intra >= 0.0) and np.all(intra < 1.0)
            spread = intra_delta_x(trace, g, np.full(3, 10.0))
            assert np.all(spread >= 0.0) and np.all(spread <= 1.0)


class TestReward:
    def test_generation_zero_is_zero(self):
        trace = trace_from_best_fitness([3.0])
        assert reward(trace) == 0.0

    def test_no_improvement_is_zero(self):
        trace = trace_from_best_fitness([3.0, 3.0])
        assert reward(trace).shape == (1,)
        assert reward(trace)[0] == 0.0

    def test_improvement_is_positive(self):
        trace = trace_from_best_fitness([10.0, 5.0])
        assert np.isclose(reward(trace)[0], 0.3333331111112593, atol=1e-12)

    def test_elitist_run_rewards_nonnegative(self):
        values = [10.0, 8.0, 8.0, 3.0, 1.0]
        for k in range(2, 6):
            sub = trace_from_best_fitness(values[:k])
            assert reward(sub)[0] >= 0.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            inter_delta_f(RunTrace(), 1)

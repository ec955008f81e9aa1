"""Property tests of the batched and stacked objectives and their optima,
the DE generation, the CMA-ES covariance, iDE, the rollout's action noise,
the nets' forward pass and policy checkpoints."""

import dataclasses
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evoadapt.baselines import archive_differences
from evoadapt.benchmarks import (evaluate, evaluate_population, evaluate_runs, get_function,
                                 registry_list, stack_objectives)
from evoadapt.cmaes import cma_generation, init_state
from evoadapt.de import (de_generation, draw_generations, init_population, pick_pairs,
                         rank_candidates)
from evoadapt.observe import ObservationSpec
from evoadapt.policy import Mlp, PolicyNet, action_spec, load_checkpoint, save_checkpoint
from evoadapt.ppo import PpoConfig, train

from conftest import SerialRollout, counted

# a little beyond the [-5, 5] box, so the boundary penalty terms run too
COORDS = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False, allow_subnormal=False)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.mark.parametrize("name,dim", registry_list())
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_population_equals_rows_bit_for_bit(name, dim, data):
    fn = get_function(name, dim)
    n = data.draw(st.integers(min_value=1, max_value=12), label="n")
    X = data.draw(arrays(np.float64, (n, dim), elements=COORDS), label="X")
    batched = evaluate_population(fn, X)
    rows = np.array([evaluate(fn, x) for x in X])
    assert batched.shape == (n,)
    assert np.array_equal(batched, rows)
    assert np.all(np.isfinite(batched))


@pytest.mark.parametrize("n", [50, 500])  # a 5-run and a 50-run lockstep generation
@pytest.mark.parametrize("name,dim", registry_list())
def test_lockstep_population_equals_rows_bit_for_bit(name, dim, n):
    fn = get_function(name, dim)
    X = np.random.default_rng(n).uniform(-6.0, 6.0, size=(n, dim))
    assert evaluate_population(fn, X).tobytes() == np.array([evaluate(fn, x) for x in X]).tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_objective_gives_each_run_its_entrys_bits(data):
    """Any same-dimension mix of entries, repeats included, as a rollout
    batch evaluates it: one `evaluate_runs` call over the runs' rows."""
    d = data.draw(st.sampled_from([5, 10, 20]), label="d")
    names = [name for name, dim in registry_list() if dim == d]
    fns = [get_function(name, d)
           for name in data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=8),
                                 label="entries")]
    n = data.draw(st.integers(min_value=1, max_value=12), label="n")
    X = data.draw(arrays(np.float64, (len(fns), n, d), elements=COORDS), label="X")
    stacked = evaluate_runs(stack_objectives(fns), X)
    assert stacked.shape == (len(fns), n)
    for fn, rows, fits in zip(fns, X, stacked):
        assert fits.tobytes() == evaluate_population(fn, rows).tobytes()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="exception notes need Python 3.11")
def test_stacked_objective_error_names_the_entry():
    def fails(x):
        raise FloatingPointError("overflow")

    broken = dataclasses.replace(get_function("Sphere", 10), name="Broken", fn=fails)
    with pytest.raises(FloatingPointError) as info:
        evaluate_runs(stack_objectives([get_function("Sphere", 10), broken]),
                      np.zeros((2, 3, 10)))
    assert info.value.__notes__ == ["while evaluating Broken-10"]


@settings(max_examples=60, deadline=None)
@given(a=st.sampled_from([1, 2, 4]), T=st.integers(min_value=1, max_value=400), seed=SEEDS)
def test_one_normal_block_equals_per_step_draws(a, T, seed):
    """`ppo.train` draws a horizon's action noise as one `(T, a)` block; it
    holds the bytes of T per-step `standard_normal(a)` calls and leaves the
    generator where they leave it."""
    block_rng, step_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    block = block_rng.standard_normal((T, a))
    steps = np.array([step_rng.standard_normal(a) for _ in range(T)])
    assert block.tobytes() == steps.tobytes()
    assert block_rng.bit_generator.state == step_rng.bit_generator.state


def documented_optimum(name: str, d: int) -> np.ndarray:
    """Where the registry's COCO definitions (arXiv 1603.08785, with identity
    rotations and no objective offset) put each function's optimum: the
    origin, except where the shift cannot be removed."""
    ones = np.ones(d)
    if name == "LinearSlope":
        return 5.0 * ones
    if name == "Schwefel":
        return 0.5 * 4.2096874633 * ones
    if name == "LunacekBiR":
        return 1.25 * ones  # mu0 / 2 on the canonical sign vector
    if name in ("RosenbrockRotated", "CompositeGR"):
        return 0.5 / max(1.0, math.sqrt(d) / 8.0) * ones
    return np.zeros(d)


BOX = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@pytest.mark.parametrize("name,dim", registry_list())
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_entry_is_zero_at_its_optimum_and_not_below_it_in_the_box(name, dim, data):
    fn = get_function(name, dim)
    assert abs(evaluate(fn, documented_optimum(name, dim))) <= 1e-12
    n = data.draw(st.integers(min_value=1, max_value=8), label="n")
    X = data.draw(arrays(np.float64, (n, dim), elements=BOX), label="X")
    assert np.all(evaluate_population(fn, X) >= -1e-12)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=0, max_value=15), seed=SEEDS)
def test_wrapped_objective_is_called_once_per_row(n, seed):
    fn = get_function("Rastrigin", 10)
    wrapped, calls = counted(fn)
    X = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(n, 10))
    values = evaluate_population(wrapped, X)
    assert calls[0] == n
    assert np.array_equal(values, evaluate_population(fn, X))


def test_evaluate_population_rejects_wrong_width():
    with pytest.raises(ValueError):
        evaluate_population(get_function("Sphere", 10), np.zeros((3, 5)))


@settings(max_examples=30, deadline=None)
@given(np_=st.integers(min_value=4, max_value=40), data=st.data(), seed=SEEDS)
def test_mutation_pairs_are_distinct(np_, data, seed):
    best = data.draw(st.integers(min_value=0, max_value=np_ - 1), label="best")
    a, b = pick_pairs(rank_candidates(np.random.default_rng(seed).random((1, np_, np_))),
                      np.array([best]))
    assert a.shape == b.shape == (1, np_)
    a, b, rows = a[0], b[0], np.arange(np_)
    assert np.all((a >= 0) & (a < np_) & (b >= 0) & (b < np_))
    assert np.all(a != b)
    assert np.all((a != rows) & (b != rows))
    assert np.all((a != best) & (b != best))


@settings(max_examples=30, deadline=None)
@given(np_=st.integers(min_value=4, max_value=40), seed=SEEDS)
def test_mutation_pairs_are_the_two_smallest_keys_left(np_, seed):
    """Ranking three candidates gives the pair that masking i and the best
    out of the full keys and taking the two smallest gives."""
    rng = np.random.default_rng(seed)
    keys, best = rng.random((3, np_, np_)), rng.integers(np_, size=3)
    masked = keys.copy()
    masked[:, np.arange(np_), np.arange(np_)] = np.inf
    masked[np.arange(3), :, best] = np.inf
    order = np.argsort(masked, axis=-1)
    a, b = pick_pairs(rank_candidates(keys), best)
    assert np.array_equal(a, order[..., 0]) and np.array_equal(b, order[..., 1])


def test_mutation_pairs_reach_every_ordered_pair():
    a, b = pick_pairs(rank_candidates(np.random.default_rng(0).random((300, 5, 5))),
                      np.zeros(300, dtype=int))
    seen = set(zip(a[:, 1].tolist(), b[:, 1].tolist()))
    # individual 1 with best 0 draws from {2, 3, 4}: six ordered pairs
    assert seen == {(p, q) for p in (2, 3, 4) for q in (2, 3, 4) if p != q}


@settings(max_examples=25, deadline=None)
@given(entry=st.sampled_from(registry_list()), np_=st.integers(min_value=4, max_value=16),
       F=st.floats(min_value=0.0, max_value=2.0), CR=st.floats(min_value=0.0, max_value=1.0),
       seed=SEEDS)
def test_de_generation_spends_np_evaluations_and_keeps_the_best(entry, np_, F, CR, seed):
    fn, calls = counted(get_function(*entry))
    rng = [np.random.default_rng(seed)]
    pop = init_population(fn, np_, rng)
    draws = draw_generations(rng, 5, np_, fn.dimension)
    best = pop.best_fitness[0]
    for generation in range(1, 6):
        pop, replaced = de_generation(pop, F, CR, fn, draws.at(generation - 1))
        assert calls[0] == (generation + 1) * np_
        assert replaced.shape == (1, np_)
        assert pop.best_fitness[0] <= best
        best = pop.best_fitness[0]
    assert np.all((pop.genotypes >= fn.lower) & (pop.genotypes <= fn.upper))


@settings(max_examples=25, deadline=None)
@given(entry=st.sampled_from(registry_list()),
       sigma=st.floats(min_value=1e-3, max_value=3.0), seed=SEEDS)
def test_cma_covariance_stays_symmetric_positive_definite(entry, sigma, seed):
    """At a fixed sigma the covariance after every generation is exactly
    symmetric and has a Cholesky factor, so sampling never needs the
    eigenvalue repair."""
    fn = get_function(*entry)
    rng = np.random.default_rng(seed)
    state = init_state(fn, [rng])
    z = rng.standard_normal((1, 30, 10, fn.dimension))
    for g in range(30):
        state = cma_generation(state, sigma, fn, z[:, g]).state
        cov = state.cov[0]
        assert np.array_equal(cov, cov.T)
        np.linalg.cholesky(cov)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(min_value=2, max_value=60), n=st.integers(min_value=0, max_value=30),
       seed=SEEDS)
def test_ide_archive_pairs_are_distinct_entries(m, n, seed):
    # entries 0, 1, ..., m-1 then NaN: a difference is 0 exactly when i == j,
    # and NaN when an index reaches past the fill count
    archive = np.concatenate([np.arange(m, dtype=float), np.full(5, np.nan)])
    u = np.random.default_rng(seed).random((2, n))
    diffs = archive_differences(archive, m, u[0], u[1])
    assert diffs.shape == (n,)
    assert np.all(diffs != 0.0)
    assert np.all(np.abs(diffs) <= m - 1)


class OneStepEnv(SerialRollout):
    """One-step episodes with a constant observation and reward 0."""

    steps_per_episode = 1

    def __init__(self, observation_dim, action_dim):
        self.observation_dim, self.action_dim = observation_dim, action_dim

    def reset(self):
        return np.zeros(self.observation_dim)

    def step(self, raw):
        return np.zeros(self.observation_dim), 0.0, True


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["cma_sigma", "de_direct", "de_normal", "de_uniform"]),
       hidden=st.lists(st.integers(min_value=1, max_value=6), max_size=2),
       activation=st.sampled_from(["relu", "tanh"]), seed=SEEDS, data=st.data())
def test_checkpoint_round_trips_bit_for_bit(kind, hidden, activation, seed, data):
    obs_spec = ObservationSpec(history_length=data.draw(st.integers(1, 6), label="g"),
                               include_intra_df=data.draw(st.booleans(), label="intra_df"),
                               include_inter_dx=data.draw(st.booleans(), label="inter_dx"),
                               include_intra_dx=data.draw(st.booleans(), label="intra_dx"))
    a_dim = action_spec(kind).dim
    cfg = PpoConfig(horizon=4, minibatch=2, epochs=1, hidden=tuple(hidden),
                    activation=activation)
    policy, _value, _log = train(OneStepEnv(obs_spec.length(a_dim), a_dim), cfg,
                                 episodes_budget=4, rng=np.random.default_rng(seed))
    # train returns a policy whose arrays are views into its flat parameters;
    # any finite value, written through those views, must survive the file
    assert all(p.base is not None for p in policy.params())
    for i, p in enumerate(policy.params()):
        p[...] = data.draw(arrays(np.float64, p.shape,
                                  elements=st.floats(allow_nan=False, allow_infinity=False)),
                           label=f"param{i}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.json")
        save_checkpoint(path, policy, kind, obs_spec)
        loaded, loaded_kind, loaded_spec = load_checkpoint(path)
    assert (loaded_kind, loaded_spec) == (kind, obs_spec)
    assert loaded.mlp.sizes == policy.mlp.sizes and loaded.mlp.activation == activation
    for a, b in zip(policy.params(), loaded.params()):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(in_dim=st.integers(1, 60), hidden=st.lists(st.integers(1, 60), min_size=1, max_size=2),
       action_dim=st.integers(1, 4), activation=st.sampled_from(["relu", "tanh"]),
       n=st.integers(1, 20), seed=SEEDS)
def test_forward_gives_each_row_the_bits_of_that_row_alone(in_dim, hidden, action_dim,
                                                           activation, n, seed):
    """The rollout and the test protocol act on the rows of a lockstep batch
    of runs, so a run's policy mean and value must not depend on its batch."""
    rng = np.random.default_rng(seed)
    policy = PolicyNet(in_dim, action_dim, hidden=tuple(hidden), activation=activation, rng=rng)
    value = Mlp([in_dim, *hidden, 1], activation=activation, rng=rng, last_layer_scale=1.0)
    X = rng.standard_normal((n, in_dim))
    for net in (policy.mlp, policy, value):
        rows = net.forward(X)
        assert rows.shape == (n, net.forward(X[0]).size)
        for i in range(n):
            assert rows[i].tobytes() == net.forward(X[i]).tobytes()

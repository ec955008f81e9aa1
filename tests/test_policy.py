import numpy as np
import pytest

from evoadapt.benchmarks import get_function
from evoadapt.de import de_generation, draw_generations, init_population
from evoadapt.envloop import PolicyController
from evoadapt.observe import ObservationSpec
from evoadapt.policy import (Mlp, PolicyNet, action_spec, decode_de_params,
                             decode_sigma, draw_decode_noise, gaussian_log_prob,
                             load_checkpoint, save_checkpoint)
from evoadapt.ppo import Learner, PpoConfig, value_loss


class TestActionSpec:
    def test_dimensions_and_bounds(self):
        assert action_spec("cma_sigma").dim == 1
        assert action_spec("de_direct").dim == 2
        assert action_spec("de_normal").dim == 4
        spec = action_spec("de_uniform")
        assert spec.dim == 4
        assert np.array_equal(spec.upper, [2.0, 2.0, 1.0, 1.0])

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            action_spec("nope")

    @pytest.mark.parametrize("kind,algorithm", [("cma_sigma", "cmaes"), ("de_direct", "de"),
                                                ("de_normal", "de"), ("de_uniform", "de")])
    def test_algorithm_is_the_engine_steered(self, kind, algorithm):
        assert action_spec(kind).algorithm == algorithm


class TestForward:
    def test_zero_network_outputs_zeros(self):
        policy = PolicyNet(5, 3)
        assert np.all(policy.forward(np.ones(5)) == 0.0)
        assert np.all(policy.log_std == 0.0)

    def test_tiny_net_hand_computation(self):
        # 1 -> 1 -> 1, relu hidden, linear output: out = w2*relu(w1*x+b1)+b2
        net = Mlp([1, 1, 1], activation="relu")
        net.weights[0][0, 0] = 2.0
        net.biases[0][0] = -1.0
        net.weights[1][0, 0] = 3.0
        net.biases[1][0] = 0.5
        assert net.forward(np.array([2.0]))[0] == 3.0 * (2.0 * 2.0 - 1.0) + 0.5
        assert net.forward(np.array([0.0]))[0] == 0.5  # relu clamps the hidden unit

    def test_deterministic(self, rng):
        policy = PolicyNet(6, 2, rng=rng)
        x = rng.standard_normal(6)
        a = policy.forward(x)
        b = policy.forward(x)
        assert np.array_equal(a, b)

    def test_dimension_mismatch_rejected(self, rng):
        policy = PolicyNet(6, 2, rng=rng)
        with pytest.raises(ValueError):
            policy.forward(np.zeros(5))

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_output_gradients_match_finite_differences(self, activation):
        # value_loss runs the backward pass through Mlp.backward: with
        # value_coef 0.5, one row and a return one below the output,
        # dLoss/dWeights of the value net is dOutput/dWeights
        rng = np.random.default_rng(0)
        net = Mlp([3, 4, 1], activation=activation, rng=rng, last_layer_scale=1.0)
        x = rng.standard_normal((1, 3)) + 0.1
        cfg = PpoConfig(horizon=1, minibatch=1, value_coef=0.5)
        learner = Learner(net, Mlp(net.sizes), cfg)
        ret = net.forward(x[0]) - 1.0
        value_loss(x, ret, learner)
        grads = learner.grad_net.params()
        params = net.weights + net.biases
        h = 1e-6
        for p, g in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = p[ix]
                p[ix] = orig + h
                up = net.forward(x[0])[0]
                p[ix] = orig - h
                dn = net.forward(x[0])[0]
                p[ix] = orig
                fd = (up - dn) / (2 * h)
                assert abs(fd - g[ix]) <= 1e-4 * max(abs(fd), abs(g[ix]), 1e-6)


class TestGaussianPolicy:
    def test_mean_outside_bounds_lands_on_boundary(self):
        spec, obs_spec = action_spec("de_direct"), ObservationSpec(history_length=2)
        policy = PolicyNet(obs_spec.length(spec.dim), spec.dim)  # zero weights
        policy.mlp.biases[-1][:] = [5.0, -3.0]
        action = PolicyController(policy, spec, obs_spec).act(np.zeros((1, 4)))
        assert np.array_equal(action, [[2.0, 0.0]])

    def test_log_prob_integrates_to_one(self):
        mean, log_std = np.array([0.3]), np.array([-0.2])
        grid = np.linspace(-8, 8, 20_001)
        dens = np.exp([gaussian_log_prob(np.array([x]), mean, log_std) for x in grid])
        integral = np.sum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))
        assert abs(integral - 1.0) < 1e-3


def decode(kind, action, np_, rng):
    """F and CR of one run's action, with one generation of decoding noise."""
    noise = draw_decode_noise(kind, [rng], 1, np_)
    noise = None if noise is None else noise[:, 0]
    return [x[0] for x in decode_de_params(np.array([action]), action_spec(kind), noise)]


class TestDecode:
    def test_direct_columns_give_the_generation_of_repeated_values(self, rng):
        """de_direct decodes one (F, CR) per run as `(R, 1)` columns; a DE
        generation gives the same bytes with them as with them repeated over
        the population, `(R, NP)`."""
        fn, runs = get_function("Rastrigin", 10), [np.random.default_rng(s) for s in range(3)]
        pop = init_population(fn, 10, runs)
        draws = draw_generations(runs, 1, 10, fn.dimension).at(0)
        actions = action_spec("de_direct").clip(rng.uniform(0.0, 2.0, size=(3, 2)))
        F, CR = decode_de_params(actions, action_spec("de_direct"), None)
        assert F.shape == CR.shape == (3, 1)
        assert np.array_equal(F[:, 0], actions[:, 0]) and np.array_equal(CR[:, 0], actions[:, 1])
        columns, replaced = de_generation(pop, F, CR, fn, draws)
        repeated, replaced_too = de_generation(pop, np.repeat(F, 10, axis=1),
                                               np.repeat(CR, 10, axis=1), fn, draws)
        assert columns.genotypes.tobytes() == repeated.genotypes.tobytes()
        assert columns.fitnesses.tobytes() == repeated.fitnesses.tobytes()
        assert np.array_equal(replaced, replaced_too)

    def test_normal_zero_variance(self, rng):
        F, CR = decode("de_normal", [1.5, 0.0, 0.25, 0.0], 10, rng)
        assert np.all(F == 1.5) and np.all(CR == 0.25)

    def test_uniform_swaps_inverted_bounds(self):
        rng = np.random.default_rng(0)
        draws = np.concatenate([decode("de_uniform", [1.5, 0.5, 0.0, 1.0], 100, rng)[0]
                                for _ in range(100)])
        assert draws.min() >= 0.5 and draws.max() <= 1.5
        assert draws.min() < 0.6 and draws.max() > 1.4  # spans the interval

    def test_uniform_degenerate_interval(self, rng):
        F, _ = decode("de_uniform", [0.7, 0.7, 0.0, 1.0], 10, rng)
        assert np.all(F == 0.7)

    def test_runs_decode_their_own_action_and_noise(self, rng):
        """A stack of runs decodes as each run alone."""
        for kind in ("de_direct", "de_normal", "de_uniform"):
            spec = action_spec(kind)
            actions = spec.clip(rng.uniform(-0.5, 2.5, size=(5, spec.dim)))
            noise = draw_decode_noise(kind, [rng] * 5, 1, 10)
            noise = None if noise is None else noise[:, 0]
            stacked = decode_de_params(actions, spec, noise)
            for i in range(5):
                alone = decode_de_params(actions[i:i + 1], spec,
                                         None if noise is None else noise[i:i + 1])
                assert all(np.array_equal(s[i], a[0]) for s, a in zip(stacked, alone))

    def test_decoded_params_always_in_range_under_extreme_actions(self, rng):
        for kind in ("de_direct", "de_normal", "de_uniform"):
            spec = action_spec(kind)
            for _ in range(200):
                raw = rng.standard_normal(spec.dim) * 1e6
                F, CR = decode(kind, spec.clip(raw), 10, rng)
                assert np.all((F >= 0) & (F <= 2))
                assert np.all((CR >= 0) & (CR <= 1))

    def test_sigma_clipped_into_interval(self):
        assert decode_sigma(np.array([100.0])) == 3.0
        assert decode_sigma(np.array([-1.0])) == 1e-10
        assert decode_sigma(np.array([0.5])) == 0.5


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path, rng):
        spec = ObservationSpec(history_length=40, include_intra_df=True)
        policy = PolicyNet(spec.length(4), 4, rng=rng)
        policy.log_std = rng.standard_normal(4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, policy, "de_uniform", spec)
        loaded, kind, obs_spec = load_checkpoint(path)
        assert kind == "de_uniform"
        assert obs_spec == spec
        for a, b in zip(policy.params(), loaded.params()):
            assert np.array_equal(a, b)

    def test_corrupted_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"architecture": {"sizes": [2, 2]}}')
        with pytest.raises(ValueError):
            load_checkpoint(path)

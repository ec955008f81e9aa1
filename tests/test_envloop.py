import dataclasses

import numpy as np
import pytest

from evoadapt import envloop
from evoadapt.benchmarks import get_function, registry_list
from evoadapt.cmaes import StateNotFinite
from evoadapt.envloop import (CsaController, Episode, EvolutionEnv,
                              FixedDeController, FixedSigmaController,
                              IdeController, JdeController, PolicyController,
                              multi_function_sampler, run_cma_episode,
                              run_de_episode, run_episode, run_test_protocol,
                              export_trace_csv)
from evoadapt.observe import ObservationSpec, reward
from evoadapt.policy import SIGMA_MAX, SIGMA_MIN, PolicyNet, action_spec
from evoadapt.ppo import PpoConfig, train

from conftest import SerialRollout, counted


def small_policy_act(env, noise):
    """The `act` of a small policy net for `env`: its mean actions plus its
    std times `noise[rows]`."""
    policy = PolicyNet(env.observation_dim, env.action_dim, hidden=(8,),
                       rng=np.random.default_rng(1))
    std = np.exp(policy.log_std)
    return lambda obs_rows, rows: policy.forward(obs_rows) + std * noise[rows]


class TestEpisodeBudget:
    """Every run of an episode evaluates exactly GENERATIONS x POPULATION =
    500 rows: one-run and lockstep episodes and the PPO environment alike."""

    def test_de_episode_uses_exactly_500_evaluations(self):
        fn, calls = counted(get_function("Sphere", 10))
        trace = run_de_episode(fn, FixedDeController(), np.random.default_rng(0))
        assert calls[0] == 500
        assert len(trace) == 50

    def test_cma_episode_uses_exactly_500_evaluations(self):
        fn, calls = counted(get_function("Sphere", 10))
        trace = run_cma_episode(fn, FixedSigmaController(), np.random.default_rng(0))
        assert calls[0] == 500
        assert len(trace) == 50

    @pytest.mark.parametrize("algorithm,controller", [
        ("de", FixedDeController), ("cmaes", FixedSigmaController)])
    def test_lockstep_episode_uses_exactly_500_evaluations_per_run(self, algorithm, controller):
        fn, calls = counted(get_function("Sphere", 10))
        episode = Episode(fn, algorithm, [np.random.default_rng(s) for s in range(5)])
        trace = run_episode(episode, controller())
        assert calls[0] == 5 * 500
        assert len(trace) == 50

    @pytest.mark.parametrize("kind", ["de_uniform", "cma_sigma"])
    def test_training_episode_uses_exactly_500_evaluations(self, kind, monkeypatch):
        """A 147-step rollout finishes the episode `reset` opened and two
        planned ones, stepped as a batch, then opens the next episode."""
        fn, calls = counted(get_function("Sphere", 10))
        monkeypatch.setattr(envloop, "get_function", lambda name, dim: fn)
        spec = action_spec(kind)
        env = EvolutionEnv([("Sphere", 10)], spec, ObservationSpec(), np.random.default_rng(0))
        reward, done = np.empty(3 * 49), np.empty(3 * 49, bool)
        act = small_policy_act(env, np.zeros((3 * 49, spec.dim)))
        env.rollout(act, env.reset(), reward, done)
        assert done.tolist() == ([False] * 48 + [True]) * 3
        assert calls[0] == 3 * 500 + 10  # and generation 0 of the episode opened last


class TestEpisodeTraces:
    def test_reward_sequence_matches_recomputation(self):
        fn = get_function("Sphere", 10)
        trace = run_de_episode(fn, FixedDeController(), np.random.default_rng(2))
        assert trace.rewards[0] == 0.0
        for g in range(1, len(trace)):
            sub = dataclasses.replace(
                trace,
                best_fitness=trace.best_fitness[: g + 1],
                fitness_max=trace.fitness_max[: g + 1],
            )
            assert trace.rewards[g] == reward(sub)

    def test_elitist_de_rewards_nonnegative(self):
        fn = get_function("Rosenbrock", 10)
        trace = run_de_episode(fn, JdeController(), np.random.default_rng(3))
        assert all(r >= 0.0 for r in trace.rewards)

    @pytest.mark.parametrize("controller_factory,algorithm", [
        (FixedDeController, "de"),
        (IdeController, "de"),
        (JdeController, "de"),
        (FixedSigmaController, "cmaes"),
        (lambda: CsaController(), "cmaes"),
    ])
    def test_episodes_deterministic_under_fixed_seed(self, controller_factory, algorithm):
        fn = get_function("Ellipsoid", 10)

        def run():
            rng = np.random.default_rng(7)
            if algorithm == "de":
                return run_de_episode(fn, controller_factory(), rng)
            return run_cma_episode(fn, controller_factory(), rng)

        a, b = run(), run()
        assert a.best_fitness == b.best_fitness
        assert a.rewards == b.rewards
        for x, y in zip(a.actions, b.actions):
            assert np.array_equal(x, y)


class TestFunctionSampler:
    def test_uniform_over_registry(self):
        functions = registry_list()
        rng = np.random.default_rng(0)
        counts = {f: 0 for f in functions}
        n = 5000
        for _ in range(n):
            counts[multi_function_sampler(functions, rng)] += 1
        assert min(counts.values()) >= 76
        assert max(counts.values()) <= 141
        observed = np.array([counts[f] for f in functions])
        expected = n / len(functions)
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        # chi-square 0.999 quantile at 45 degrees of freedom
        assert chi2 < 80.07673201081901

    def test_singleton_set(self):
        rng = np.random.default_rng(1)
        assert multi_function_sampler([("Sphere", 10)], rng) == ("Sphere", 10)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            multi_function_sampler([], np.random.default_rng(0))


class TestEvolutionEnv:
    def make_env(self, seed=0, functions=None):
        return EvolutionEnv(functions or [("Sphere", 10)], action_spec("de_direct"),
                            ObservationSpec(history_length=40), np.random.default_rng(seed))

    def test_dimensions(self):
        env = self.make_env()
        assert env.observation_dim == 42
        assert env.action_dim == 2
        assert env.steps_per_episode == 49

    def test_episode_terminates_after_49_steps(self):
        env = self.make_env()
        obs = env.reset()
        assert obs.shape == (42,)
        done = False
        steps = 0
        while not done:
            obs, r, done = env.step(np.array([0.5, 0.9]))
            steps += 1
            assert np.all(np.isfinite(obs))
        assert steps == 49

    def test_episode_log_records_function_identity(self):
        env = self.make_env(functions=[("Sphere", 10), ("Rastrigin", 10)])
        for _ in range(6):
            env.reset()
        assert len(env.episode_log) == 6
        assert set(env.episode_log) <= {("Sphere", 10), ("Rastrigin", 10)}

    @pytest.mark.parametrize("algorithm,kind", [("de", "de_normal"), ("cmaes", "cma_sigma")])
    def test_training_steps_match_evaluation_run(self, algorithm, kind):
        """PPO's environment and the test protocol step the same run: fed a
        policy's mean actions, the env reproduces `run_episode` exactly."""
        spec, obs_spec = action_spec(kind), ObservationSpec(history_length=8)
        policy = PolicyNet(obs_spec.length(spec.dim), spec.dim, hidden=(6,),
                           rng=np.random.default_rng(1))
        # a large last layer so the mean actions move F/CR or sigma around
        policy.mlp.weights[-1] *= 100.0
        env = EvolutionEnv([("Rastrigin", 10)], spec, obs_spec, np.random.default_rng(21))
        obs, done, rewards = env.reset(), False, []
        while not done:
            obs, r, done = env.step(policy.forward(obs))
            rewards.append(r)
        trained = env.episode.trace.split_runs()[0]

        # the env seeds the episode's generator from its own; choosing from a
        # one-entry function list draws nothing
        rng = np.random.default_rng(np.random.default_rng(21).integers(2**63))
        episode = Episode(get_function("Rastrigin", 10), algorithm, [rng])
        trace = run_episode(episode, PolicyController(policy, spec, obs_spec)).split_runs()[0]
        assert trace.rewards[1:] == rewards
        assert trace.best_fitness[1:] == trained.best_fitness[1:]
        assert len(trace.actions) == len(trained.actions) == 50
        for a, b in zip(trace.actions[1:], trained.actions[1:]):
            assert np.array_equal(a, b)
        assert len({tuple(a) for a in trace.actions[1:]}) > 1  # the policy does steer

    def test_env_deterministic(self):
        def run():
            env = self.make_env(seed=11)
            env.reset()
            out = []
            for _ in range(49):
                obs, r, done = env.step(np.array([0.6, 0.4]))
                out.append((obs.tobytes(), r, done))
            return out

        assert run() == run()


class SerialEnv(SerialRollout, EvolutionEnv):
    """`EvolutionEnv` stepping its rollouts one `reset`/`step` at a time."""


MULTI = [("SharpRidge", 5), ("Rastrigin", 10), ("GG21hi", 5), ("Katsuura", 10),
         ("SharpRidge", 20), ("Weierstrass", 10)]


def recorded_training(env_class, kind, functions, horizon, counts=None):
    """Two or more PPO iterations over `env_class`; returns every rollout's
    observations and raw actions, which `act` saw and gave, its rewards,
    ends and last observation, then the log rows, the episode log, `theta`
    and both generators' states. Checks that each rollout calls `act` once
    for each of its rows. With `counts` (the objective rows so far), checks
    after each rollout that every step and every opened episode's
    generation 0 evaluated POPULATION rows, and nothing else did."""
    env = env_class(functions, action_spec(kind), ObservationSpec(), np.random.default_rng(11))
    rollouts, real = [], env.rollout

    def rollout(act, obs, reward, done):
        seen = {}

        def recorded(obs_rows, rows):
            raw = act(obs_rows, rows)
            for row, o, a in zip(np.asarray(rows).tolist(), obs_rows, raw):
                assert row not in seen
                seen[row] = o.copy(), a.copy()
            return raw

        obs = real(recorded, obs, reward, done)
        assert sorted(seen) == list(range(horizon))
        rollouts.append([np.array([seen[t][i] for t in range(horizon)]) for i in (0, 1)]
                        + [reward.copy(), done.copy(), obs.copy()])
        if counts is not None:
            opened = len(env.episode_log)
            assert counts() == (len(rollouts) * horizon + opened) * envloop.POPULATION
        return obs

    env.rollout = rollout
    cfg = PpoConfig(horizon=horizon, minibatch=16, epochs=1, hidden=(8,))
    rng = np.random.default_rng(5)
    policy, value, log = train(env, cfg, 2 * -(-horizon // 49) + 2, rng)
    assert len(log) >= 2
    theta = np.concatenate([p.ravel() for p in policy.params() + value.params()])
    rows = np.array([list(row.values()) for row in log], dtype=float)
    return (rollouts, rows.tobytes(), env.episode_log, theta.tobytes(),
            env.rng.bit_generator.state, rng.bit_generator.state)


def assert_same_training(ours, theirs):
    rollouts, *rest = ours
    assert len(rollouts) == len(theirs[0])
    for mine, serial in zip(rollouts, theirs[0]):
        for a, b in zip(mine, serial):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert rest == list(theirs[1:])


class TestRollout:
    """`EvolutionEnv.rollout` steps a horizon's full episodes in lockstep
    batches and gives the bytes of the `reset`/`step` loop."""

    @pytest.fixture
    def counted_registry(self, monkeypatch):
        """Every entry the env builds counts its objective rows; returns
        the count so far."""
        made = {}

        def get(name, dim):
            if (name, dim) not in made:
                made[name, dim] = counted(get_function(name, dim))
            return made[name, dim][0]

        monkeypatch.setattr(envloop, "get_function", get)
        return lambda: sum(calls[0] for _fn, calls in made.values())

    @pytest.mark.parametrize("horizon", [30, 49, 98, 160])
    @pytest.mark.parametrize("mode", ["single", "multi"])
    @pytest.mark.parametrize("kind", ["de_uniform", "de_normal", "de_direct", "cma_sigma"])
    def test_batched_rollout_equals_the_serial_one(self, kind, mode, horizon,
                                                   counted_registry):
        functions = [("Rastrigin", 10)] if mode == "single" else MULTI
        ours = recorded_training(EvolutionEnv, kind, functions, horizon, counted_registry)
        theirs = recorded_training(SerialEnv, kind, functions, horizon)
        assert_same_training(ours, theirs)

    @pytest.mark.parametrize("kind", ["de_uniform", "cma_sigma"])
    @pytest.mark.parametrize("functions,horizon", [
        (MULTI, 8 * 49), ([("Sphere", 10)], 17 * 49), ([("SharpRidge", 20)], 18 * 49)])
    def test_full_batches_of_registry_objectives(self, kind, functions, horizon):
        """With the registry's own batched objectives: batches that mix
        entries, one batch of 16 runs at 10 dimensions (after the episode
        `reset` opened), and 17 runs at 20 dimensions split into batches of
        at most 8."""
        assert_same_training(recorded_training(EvolutionEnv, kind, functions, horizon),
                             recorded_training(SerialEnv, kind, functions, horizon))


def test_action_spaces_share_functions_and_engine_draws():
    """Envs built at one seed see the same functions in the same order
    whatever their action space, and the DE spaces open every episode on the
    same initial population and DE blocks, in batches and alone: common
    random numbers for comparing policies trained at that seed."""
    horizon = 4 * 49
    logs, opened = {}, {}
    for kind in ("de_direct", "de_normal", "de_uniform", "cma_sigma"):
        env = EvolutionEnv(MULTI, action_spec(kind), ObservationSpec(), np.random.default_rng(3))
        real, opened[kind] = env._open, []

        def spy(fns, rng, real=real, record=opened[kind]):
            episode, decoder, obs = real(fns, rng)
            if episode.algorithm == "de":
                record += [(episode.last.genotypes[i].copy(), *(a[i] for a in episode.draws))
                           for i in range(episode.runs)]
            return episode, decoder, obs

        env._open = spy
        noise = np.random.default_rng(5).standard_normal((horizon, 4))
        act = small_policy_act(env, noise[:, :env.action_dim])
        obs, reward, done = env.reset(), np.empty(horizon), np.empty(horizon, bool)
        for _ in range(2):
            obs = env.rollout(act, obs, reward, done)
        logs[kind] = env.episode_log
    assert len(logs["cma_sigma"]) == 9 and len(set(logs["cma_sigma"])) > 1
    assert logs["de_direct"] == logs["de_normal"] == logs["de_uniform"] == logs["cma_sigma"]
    assert len(opened["de_direct"]) == 9
    for kind in ("de_normal", "de_uniform"):
        for ours, theirs in zip(opened["de_direct"], opened[kind], strict=True):
            assert all(np.array_equal(a, b) for a, b in zip(ours, theirs, strict=True))


class TestProtocol:
    def test_fifty_runs_with_consecutive_seeds(self):
        result = run_test_protocol(FixedDeController, ("Sphere", 10), seed_base=100,
                                   runs=50, algorithm="de")
        assert len(result.traces) == 50
        assert result.aucs.shape == (50,) and result.bests.shape == (50,)
        assert result.seeds == list(range(100, 150))
        assert np.all(result.aucs > 0) and np.all(result.bests >= 0)

    @pytest.mark.parametrize("algorithm,kind", [
        ("de", "fixed"), ("de", "ide"), ("de", "jde"),
        ("de", "de_direct"), ("de", "de_normal"), ("de", "de_uniform"),
        ("cmaes", "fixed"), ("cmaes", "csa"), ("cmaes", "cma_sigma"),
    ])
    def test_lockstep_run_equals_the_same_seed_run_alone(self, algorithm, kind):
        """Run i of an R-run protocol gives the bytes of a one-run batch of
        seed_base + i, field for field, so results do not depend on the
        batch size."""
        if kind in ("fixed", "ide", "jde", "csa"):
            factory = {("de", "fixed"): FixedDeController, ("de", "ide"): IdeController,
                       ("de", "jde"): JdeController, ("cmaes", "fixed"): FixedSigmaController,
                       ("cmaes", "csa"): CsaController}[algorithm, kind]
        else:
            spec = action_spec(kind)
            obs_spec = ObservationSpec(history_length=6, include_intra_df=True,
                                       include_inter_dx=True, include_intra_dx=True)
            policy = PolicyNet(obs_spec.length(spec.dim), spec.dim, hidden=(8,),
                               rng=np.random.default_rng(3))
            policy.mlp.weights[-1] *= 100.0
            factory = lambda: PolicyController(policy, spec, obs_spec)  # noqa: E731
        fn = get_function("Rastrigin", 10)
        protocol = run_test_protocol(factory, ("Rastrigin", 10), 40, runs=4,
                                     algorithm=algorithm)
        for i, seed in enumerate(protocol.seeds):
            alone = run_episode(Episode(fn, algorithm, [np.random.default_rng(seed)]),
                                factory()).split_runs()[0]
            for field in dataclasses.fields(alone):
                ours = np.array(getattr(protocol.traces[i], field.name))
                theirs = np.array(getattr(alone, field.name))
                assert ours.shape == theirs.shape, field.name
                assert ours.tobytes() == theirs.tobytes(), (field.name, i)
        repeat = run_test_protocol(factory, ("Rastrigin", 10), 40, runs=4, algorithm=algorithm)
        assert protocol.aucs.tobytes() == repeat.aucs.tobytes()
        assert protocol.bests.tobytes() == repeat.bests.tobytes()

    @pytest.mark.parametrize("algorithm,factory", [("de", FixedDeController),
                                                   ("cmaes", CsaController)])
    def test_lockstep_gallagher_run_equals_the_same_seed_run_alone(self, algorithm, factory):
        """GG21hi evaluates its peaks with a matrix product, which must round
        each run's rows as it rounds a lone run's."""
        fn = get_function("GG21hi", 5)
        protocol = run_test_protocol(factory, ("GG21hi", 5), 60, runs=4, algorithm=algorithm)
        for i, seed in enumerate(protocol.seeds):
            alone = run_episode(Episode(fn, algorithm, [np.random.default_rng(seed)]),
                                factory()).split_runs()[0]
            for field in dataclasses.fields(alone):
                ours = np.array(getattr(protocol.traces[i], field.name))
                assert ours.tobytes() == np.array(getattr(alone, field.name)).tobytes(), \
                    (field.name, i)

    def test_diverging_cma_run_names_function_seed_and_generation(self):
        class OneRunDiverges(FixedSigmaController):
            """Sigma 1e308 for run 2 (seed 49), the default for the others."""

            def propose(self, episode):
                sigma = np.where(np.arange(episode.runs) == 2, 1e308, self.sigma)
                return sigma, sigma[..., None]

        with pytest.raises(StateNotFinite, match=r"LinearSlope-5 is not finite at "
                                                 r"generation 2 \(run seeds \[49\]\)"):
            run_test_protocol(OneRunDiverges, ("LinearSlope", 5), 47, runs=4, algorithm="cmaes")

    def test_csa_sigma_stays_in_the_policy_box(self):
        """Unclamped, CSA's sigma grows without bound on LinearSlope-5, seed 49,
        until the covariance turns NaN; clamped to SIGMA_MAX the run finishes."""
        result = run_test_protocol(CsaController, ("LinearSlope", 5), 49, runs=1,
                                   algorithm="cmaes")
        assert np.isfinite(result.aucs).all()
        sigmas = np.array(result.traces[0].actions)
        assert ((SIGMA_MIN <= sigmas) & (sigmas <= SIGMA_MAX)).all()
        assert sigmas.max() == SIGMA_MAX  # the clamp binds on this run

    def test_cma_protocol(self):
        result = run_test_protocol(CsaController, ("Sphere", 10), 3, runs=5, algorithm="cmaes")
        assert len(result.traces) == 5
        assert np.all(np.isfinite(result.aucs))

    def test_degenerate_controller_still_completes(self):
        class NoMutationNoCrossover(FixedDeController):
            """F = CR = 0: each child is its parent but for its j_rand
            coordinate, which it takes from the best individual."""
            F = CR = 0.0

        result = run_test_protocol(NoMutationNoCrossover, ("Sphere", 10), 0, runs=3,
                                   algorithm="de")
        assert all(len(t) == 50 for t in result.traces)


class CountingGenerator:
    """A run's generator that counts every method looked up on it."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def __getattr__(self, name):
        self.draws += 1
        return getattr(self.rng, name)


def make_controller(algorithm, kind):
    baseline = {("de", "fixed"): FixedDeController, ("de", "ide"): IdeController,
                ("de", "jde"): JdeController, ("cmaes", "fixed"): FixedSigmaController,
                ("cmaes", "csa"): CsaController}.get((algorithm, kind))
    if baseline is not None:
        return baseline()
    spec, obs_spec = action_spec(kind), ObservationSpec(history_length=6)
    policy = PolicyNet(obs_spec.length(spec.dim), spec.dim, hidden=(8,),
                       rng=np.random.default_rng(3))
    policy.mlp.weights[-1] *= 100.0
    return PolicyController(policy, spec, obs_spec)


class TestDrawsOncePerEpisode:
    """Every random number of an episode is drawn when it starts: after
    `Episode(...)` and the controller's `start`, no run's generator is
    touched again."""

    @pytest.mark.parametrize("algorithm,kind", [
        ("de", "fixed"), ("de", "ide"), ("de", "jde"),
        ("de", "de_direct"), ("de", "de_normal"), ("de", "de_uniform"),
        ("cmaes", "fixed"), ("cmaes", "csa"), ("cmaes", "cma_sigma"),
    ])
    def test_no_draw_after_start(self, algorithm, kind):
        rng = [CountingGenerator(np.random.default_rng(seed)) for seed in range(3)]
        episode = Episode(get_function("Rastrigin", 10), algorithm, rng)
        controller = make_controller(algorithm, kind)
        episode.start(controller.start(episode))
        drawn = [r.draws for r in rng]
        assert min(drawn) > 0
        while not episode.done:
            controller.feedback(episode.apply(*controller.propose(episode)))
        assert len(episode.trace) == 50
        assert [r.draws for r in rng] == drawn

    @pytest.mark.parametrize("kind", ["de_direct", "de_normal", "de_uniform", "cma_sigma"])
    def test_env_steps_draw_nothing(self, kind):
        spec = action_spec(kind)
        rng = CountingGenerator(np.random.default_rng(4))
        env = EvolutionEnv([("Sphere", 10), ("Rastrigin", 10)], spec,
                           ObservationSpec(history_length=6), rng)
        for _ in range(2):
            env.reset()
            drawn, done = rng.draws, False
            own = env.episode.rng[0].bit_generator.state
            while not done:
                _obs, _r, done = env.step(spec.neutral())
            assert rng.draws == drawn
            assert env.episode.rng[0].bit_generator.state == own


def test_export_trace_csv_round_trip(tmp_path):
    fn = get_function("Sphere", 10)
    trace = run_de_episode(fn, FixedDeController(), np.random.default_rng(0))
    path = tmp_path / "trace.csv"
    export_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "generation,best_fitness,reward,action_0,action_1"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == trace.best_fitness[0]  # repr round-trips exactly

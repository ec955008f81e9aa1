"""Episode orchestration: one episode = one full evolutionary run.

Every episode is the paper's protocol shape, `GENERATIONS` generations of
`POPULATION` individuals, so it consumes exactly 500 evaluations: generation
0 is the evaluated initial population (DE) or the first sampling at step
size `SIGMA0` (CMA-ES), followed by 49 controller-driven generations.

`Episode` steps every run as a lockstep batch of R >= 1 runs, for the test
protocol (`run_episode` with a `Controller`, R runs) and for PPO
(`EvolutionEnv`, batches of up to `BATCH_RUNS` runs) alike. Each run draws
its whole episode's random numbers from its own generator when the episode
starts: the engine's when the `Episode` is built, a controller's in its
`start`. A generation then takes its `(R, ...)` slice of those blocks, so it
draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import baselines, cmaes, de
from .benchmarks import BenchmarkFunction, get_function, stack_objectives
from .observe import ObservationSpec, RunTrace, build_observation, reward
from .policy import (SIGMA_MAX, SIGMA_MIN, ActionSpec, PolicyNet, decode_de_params,
                     decode_sigma, draw_decode_noise)
from .artifacts import write_csv
from .stats import auc, best_of_run

GENERATIONS = 50
POPULATION = 10
SIGMA0 = 0.5
FIXED_F, FIXED_CR = 0.5, 0.9  # the fixed-parameter DE baseline
BATCH_RUNS = 16  # the most runs `EvolutionEnv.rollout` steps in one batch


def multi_function_sampler(function_set: list, rng: np.random.Generator):
    """Uniform i.i.d. choice of the episode's objective function."""
    if not function_set:
        raise ValueError("function set is empty")
    return tuple(function_set[rng.integers(len(function_set))])


# ---------------------------------------------------------------------------
# Episode stepper

class DeOutcome(NamedTuple):
    F: np.ndarray
    CR: np.ndarray
    replaced: np.ndarray    # (R, NP): parents their trial replaced
    improved: np.ndarray    # (R,): the run's best fitness went down


class Episode:
    """R runs (`runs`) of `algorithm` ("de" or "cmaes") on `fn` in lockstep,
    one Generator per run in `rng`: every array has a leading run axis, and
    each generation is one objective call. `last` is the newest generation:
    the DE population, or the CMA-ES `GenerationResult`. Construction draws
    the engine's random numbers for the whole episode and evaluates
    generation 0, the DE population or the first CMA-ES sampling at
    `SIGMA0`. Per run, DE draws the population, then its
    `de.draw_generations` blocks; CMA-ES draws the mean, then its
    `cmaes.draw_generations` block, which generation g indexes at g.
    `start(action)` records generation 0; `apply(params, action)` runs one
    generation with F/CR or sigma, records its trace rows and rewards, and
    returns a `DeOutcome` or the CMA-ES `GenerationResult`."""

    def __init__(self, fn: BenchmarkFunction, algorithm: str, rng: list):
        self.fn, self.algorithm, self.rng = fn, algorithm, rng
        self.runs = len(rng)
        self.trace = RunTrace()
        if algorithm == "de":
            self.last = de.init_population(fn, POPULATION, rng)
            self.draws = de.draw_generations(rng, GENERATIONS - 1, POPULATION, fn.dimension)
        else:
            state = cmaes.init_state(fn, rng)
            self.draws = cmaes.draw_generations(rng, GENERATIONS, POPULATION, fn.dimension)
            self.last = cmaes.cma_generation(state, SIGMA0, fn, self.draws[:, 0])

    @property
    def done(self) -> bool:
        return len(self.trace) >= GENERATIONS

    @property
    def step(self) -> int:
        """The next controlled generation's index into the blocks drawn for
        generations 1 to GENERATIONS - 1: 0 right after `start`."""
        return len(self.trace) - 1

    def each(self, action) -> np.ndarray:
        """The same action for every run."""
        action = np.asarray(action, dtype=float)
        return np.broadcast_to(action, (self.runs,) + action.shape)

    def start(self, action) -> None:
        self.trace.append_generation(self.last.genotypes, self.last.fitnesses, action)
        self.trace.rewards.append(np.zeros(self.runs))

    def apply(self, params, action):
        if self.algorithm == "de":
            F, CR = params
            prev_best = self.last.best_fitness
            self.last, replaced = de.de_generation(self.last, F, CR, self.fn,
                                                   self.draws.at(self.step))
            outcome = DeOutcome(F, CR, replaced, self.last.best_fitness < prev_best)
        else:
            outcome = self.last = cmaes.cma_generation(
                self.last.state, params, self.fn, self.draws[:, len(self.trace)])
        self.trace.append_generation(self.last.genotypes, self.last.fitnesses, action)
        self.trace.rewards.append(reward(self.trace))
        return outcome


# ---------------------------------------------------------------------------
# Controllers

class Controller:
    """Steers all runs of an episode. `start(episode)` draws the random
    numbers the controller needs for the whole episode and returns the
    action recorded for generation 0, `propose(episode)` the next engine
    parameters and the action to record, and `feedback(outcome)` gets what
    `Episode.apply` returned (ignored unless overridden)."""

    def feedback(self, outcome):
        pass


class FixedDeController(Controller):
    """Constant F/CR, `FIXED_F` and `FIXED_CR`, for every individual and
    generation."""

    F, CR = FIXED_F, FIXED_CR

    def start(self, episode):
        return episode.each([self.F, self.CR])

    def propose(self, episode):
        return (self.F, self.CR), episode.each([self.F, self.CR])


class IdeController(Controller):
    """iDE. Per run, `start` draws the initial F/CR, then the `draw_ide`
    blocks."""

    def start(self, episode):
        self.state = baselines.make_ide_state(POPULATION, GENERATIONS, episode.rng)
        self.noise, self.picks = baselines.draw_ide(episode.rng, GENERATIONS - 1, POPULATION)
        return np.stack([self.state.F.mean(axis=-1), self.state.CR.mean(axis=-1)], axis=-1)

    def propose(self, episode):
        F, CR = baselines.ide_update(self.state, episode.last.best_index,
                                     self.noise[:, episode.step], self.picks[:, episode.step])
        return (F, CR), np.stack([F.mean(axis=-1), CR.mean(axis=-1)], axis=-1)

    def feedback(self, outcome):
        baselines.ide_record_success(self.state, outcome.F, outcome.CR, outcome.replaced)


class JdeController(Controller):
    """jDE. Per run, `start` draws the `draw_jde` block."""

    def start(self, episode):
        self.state = baselines.JdeState(np.full(episode.runs, 0.5), np.full(episode.runs, 0.9))
        self.uniforms = baselines.draw_jde(episode.rng, GENERATIONS - 1)
        return np.stack([self.state.best_F, self.state.best_CR], axis=-1)

    def propose(self, episode):
        F, CR = baselines.jde_update(self.state, self.uniforms[:, episode.step])
        return (F[..., None], CR[..., None]), np.stack([F, CR], axis=-1)

    def feedback(self, outcome):
        baselines.jde_record(self.state, outcome.F[..., 0], outcome.CR[..., 0], outcome.improved)


class FixedSigmaController(Controller):
    """Sigma fixed at `SIGMA0`, the step size of generation 0."""

    sigma = SIGMA0

    def start(self, episode):
        return episode.each([SIGMA0])  # generation 0 ran at SIGMA0

    def propose(self, episode):
        sigma = np.broadcast_to(self.sigma, episode.runs)
        return sigma, sigma[..., None]


class CsaController(FixedSigmaController):
    """CSA with its default constants for the episode's dimension, its sigma
    clamped into the policy's box [SIGMA_MIN, SIGMA_MAX]. `start` builds
    the CSA state, and its feedback on generation 0's sampling at `SIGMA0`
    sets the first sigmas."""

    def start(self, episode):
        self.state = baselines.make_csa_state(episode.fn.dimension)
        self.feedback(episode.last)
        return super().start(episode)

    def feedback(self, outcome: cmaes.GenerationResult):
        best = outcome.samples[np.arange(len(outcome.samples)), outcome.best_index]
        xi_star = (best - outcome.mean_before) / outcome.sigma_used[..., None]
        self.state, sigma = baselines.csa_update(self.state, xi_star, outcome.sigma_used)
        self.sigma = np.clip(sigma, SIGMA_MIN, SIGMA_MAX)


class PolicyController(Controller):
    """A policy sets F/CR (`decode_de_params`) or sigma (`decode_sigma`).

    The test-time action is the policy's mean, clipped into the action
    space. With `policy=None` it only observes and decodes actions chosen
    elsewhere, which is how `EvolutionEnv` applies PPO's actions. `start`
    draws the decoding noise of the whole episode (`draw_decode_noise`:
    none for de_direct and cma_sigma)."""

    def __init__(self, policy: PolicyNet | None, spec: ActionSpec, obs_spec: ObservationSpec):
        self.policy, self.spec, self.obs_spec = policy, spec, obs_spec

    def start(self, episode):
        self.noise = draw_decode_noise(self.spec.kind, episode.rng, GENERATIONS - 1, POPULATION)
        return episode.each([SIGMA0] if episode.algorithm == "cmaes" else self.spec.neutral())

    def observe(self, episode) -> np.ndarray:
        """Observation rows `(R, obs)` of the trace, whose last recorded
        action is each row's previous action."""
        return build_observation(episode.trace, self.obs_spec,
                                 self.spec.normalize(episode.trace.actions[-1]))

    def act(self, obs: np.ndarray) -> np.ndarray:
        """Clipped mean actions `(R, k)` of observation rows `(R, obs)`."""
        return self.spec.clip(self.policy.forward(obs))

    def propose(self, episode):
        action = self.act(self.observe(episode))
        return self.decode(episode, action), action

    def decode(self, episode, action: np.ndarray):
        """Engine parameters of clipped actions."""
        if episode.algorithm == "cmaes":
            return decode_sigma(action)
        noise = None if self.noise is None else self.noise[:, episode.step]
        return decode_de_params(action, self.spec, noise)


# ---------------------------------------------------------------------------
# Episode runners

def run_episode(episode: Episode, controller) -> RunTrace:
    """Step `episode` from generation 0 to its end under `controller`."""
    episode.start(controller.start(episode))
    while not episode.done:
        controller.feedback(episode.apply(*controller.propose(episode)))
    return episode.trace


def run_de_episode(fn: BenchmarkFunction, controller, rng: np.random.Generator) -> RunTrace:
    """The trace of one DE run drawing from `rng`: a one-run `Episode`."""
    return run_episode(Episode(fn, "de", [rng]), controller).split_runs()[0]


def run_cma_episode(fn: BenchmarkFunction, controller, rng: np.random.Generator) -> RunTrace:
    """The trace of one CMA-ES run drawing from `rng`: a one-run `Episode`."""
    return run_episode(Episode(fn, "cmaes", [rng]), controller).split_runs()[0]


# ---------------------------------------------------------------------------
# Training environment (PPO-facing)

class EvolutionEnv:
    """Step interface over evolutionary runs for the PPO trainer.

    Each episode draws only from its own generator, `default_rng` of one
    `integers(2**63)` that the env's generator draws right after choosing
    the episode's function (`Generator.spawn` needs numpy 1.25; the floor
    is 1.24). `reset` opens a one-run `Episode`, runs generation 0 and
    returns the observation; each `step` applies one controlled generation
    and draws nothing. PPO sees run 0's observation and reward. `rollout`
    fills a whole horizon with the bytes of `reset` and `step`, stepping
    its full episodes in lockstep batches. Policy-emitted raw actions are
    clipped into the action space before decoding.
    """

    steps_per_episode = GENERATIONS - 1

    def __init__(self, functions: list, spec: ActionSpec, obs_spec: ObservationSpec,
                 rng: np.random.Generator):
        self.functions, self.spec, self.obs_spec, self.rng = functions, spec, obs_spec, rng
        self.episode_log: list[tuple] = []
        self.episode = self.decoder = None

    @property
    def observation_dim(self) -> int:
        return self.obs_spec.length(self.spec.dim)

    @property
    def action_dim(self) -> int:
        return self.spec.dim

    def reset(self) -> np.ndarray:
        fn, rng = self._sample()
        self.episode, self.decoder, obs = self._open([fn], [rng])
        return obs[0]

    def step(self, raw_action: np.ndarray):
        obs, rewards = self._advance(self.episode, self.decoder,
                                     self.spec.clip(raw_action)[None])
        return obs[0], rewards[0], self.episode.done

    def rollout(self, act, obs: np.ndarray, reward: np.ndarray, done: np.ndarray) -> np.ndarray:
        """Step the `len(reward)` steps of a PPO horizon from observation
        `obs` of the open episode, filling `reward` and `done` one row per
        step in step order, and return the observation after the last step.
        `act(obs_rows, rows)` gives the raw actions `(R, k)` of observation
        rows `(R, obs)` at horizon rows `rows` `(R,)`, once for each row.

        The episode carried in from the last horizon and the horizon's last
        one, unfinished or just opened by `reset`, step as one-run episodes.
        The full episodes between them are sampled in order, each its
        function and generator, and step in lockstep batches of one
        dimension. Every run draws only from its own generator, so every
        row holds the bytes that `reset` and `step` give one episode at a
        time. Every run of a batch holds its episode's blocks of random
        numbers, whose size grows with the dimension, so a batch holds at
        most `BATCH_RUNS` runs and `10 * BATCH_RUNS` coordinates (16 runs up
        to 10 dimensions, 8 at 20)."""
        T, S = len(reward), self.steps_per_episode
        carried = min(T, S - self.episode.step)
        obs = self._run(self.episode, self.decoder, obs[None], np.arange(carried)[:, None],
                        act, reward, done)
        if not self.episode.done:
            return obs[0]
        full, last = divmod(T - carried, S)
        plan = [self._sample() for _ in range(full)]
        starts = carried + S * np.arange(full)
        for dimension in dict.fromkeys(fn.dimension for fn, _ in plan):
            group = [k for k, (fn, _) in enumerate(plan) if fn.dimension == dimension]
            cap = min(BATCH_RUNS, BATCH_RUNS * 10 // dimension)
            for batch in np.array_split(group, -(-len(group) // cap)):
                fns, rng = zip(*(plan[k] for k in batch))
                # no name holds the episode, so it is freed before the next opens
                self._run(*self._open(list(fns), list(rng)), starts[batch] + np.arange(S)[:, None],
                          act, reward, done)
        obs = self.reset()
        return self._run(self.episode, self.decoder, obs[None], T - last + np.arange(last)[:, None],
                         act, reward, done)[0]

    def _sample(self) -> tuple[BenchmarkFunction, np.random.Generator]:
        """The next episode's function and its own generator."""
        function = multi_function_sampler(self.functions, self.rng)
        self.episode_log.append(function)
        return get_function(*function), np.random.default_rng(self.rng.integers(2**63))

    def _open(self, fns: list, rng: list):
        """An episode whose run i is on `fns[i]` and draws from `rng[i]`, its
        decoder, and the runs' first observations."""
        fn = fns[0] if len(fns) == 1 else stack_objectives(fns)
        episode = Episode(fn, self.spec.algorithm, rng)
        decoder = PolicyController(None, self.spec, self.obs_spec)
        episode.start(decoder.start(episode))
        return episode, decoder, decoder.observe(episode)

    def _advance(self, episode: Episode, decoder: PolicyController, action: np.ndarray):
        """One generation of clipped actions `(R, k)`: the observations and
        rewards after it."""
        episode.apply(decoder.decode(episode, action), action)
        return decoder.observe(episode), episode.trace.rewards[-1]

    def _run(self, episode, decoder, obs, rows, act, reward, done) -> np.ndarray:
        """Step `episode`'s runs from observations `obs` `(R, obs)` through
        `rows` `(steps, R)`, run j's i-th step acting and writing at row
        `rows[i, j]`; return the observations after the last step."""
        for row in rows:
            obs, reward[row] = self._advance(episode, decoder, self.spec.clip(act(obs, row)))
            done[row] = episode.done
        return obs


# ---------------------------------------------------------------------------
# Test protocol

@dataclass
class ProtocolResult:
    traces: list
    aucs: np.ndarray
    bests: np.ndarray
    seeds: list


def run_test_protocol(controller_factory, function: tuple, seed_base: int, runs: int,
                      algorithm: str) -> ProtocolResult:
    """Seeded runs seed_base..seed_base+runs-1 of the paper's protocol stepped
    in lockstep under one controller; run i draws only from
    `default_rng(seed_base + i)`, so it gives the bytes of a one-run batch of
    that seed. Results are ordered by run index."""
    fn = get_function(*function)
    seeds = [seed_base + i for i in range(runs)]
    episode = Episode(fn, algorithm, [np.random.default_rng(s) for s in seeds])
    try:
        traces = run_episode(episode, controller_factory()).split_runs()
    except cmaes.StateNotFinite as exc:
        raise cmaes.StateNotFinite(f"{exc} (run seeds {[seeds[i] for i in exc.runs]})",
                                   exc.runs) from None
    aucs = np.array([auc(np.minimum.accumulate(t.best_fitness)) for t in traces])
    bests = np.array([best_of_run(t) for t in traces])
    return ProtocolResult(traces=traces, aucs=aucs, bests=bests, seeds=seeds)


def export_trace_csv(trace: RunTrace, path) -> None:
    rows = [["generation", "best_fitness", "reward"]
            + [f"action_{i}" for i in range(len(trace.actions[0]))]]
    rows += [[g, repr(float(trace.best_fitness[g])), repr(float(trace.rewards[g]))]
             + [repr(float(a)) for a in trace.actions[g]] for g in range(len(trace))]
    write_csv(path, rows)

import numpy as np

from evoadapt.benchmarks import get_function
from evoadapt.de import de_generation, draw_generations, init_population, mutate_best1

from conftest import counted

SPHERE = get_function("Sphere", 10)


def test_mutation_formula():
    mutant = mutate_best1(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                          np.array([0.0, 1.0]), 0.5)
    assert np.allclose(mutant, [0.5, -0.5])


def test_init_population_within_bounds(rng):
    pop = init_population(SPHERE, 10, [rng])
    assert pop.genotypes.shape == (1, 10, 10)
    assert pop.fitnesses.shape == (1, 10)
    assert np.all(pop.genotypes >= -5) and np.all(pop.genotypes <= 5)


def test_init_population_deterministic():
    a = init_population(SPHERE, 10, [np.random.default_rng(7)])
    b = init_population(SPHERE, 10, [np.random.default_rng(7)])
    assert np.array_equal(a.genotypes, b.genotypes)
    assert np.array_equal(a.fitnesses, b.fitnesses)


def test_init_population_counts_evaluations():
    fn, calls = counted(SPHERE)
    init_population(fn, 10, [np.random.default_rng(0)])
    assert calls[0] == 10


def test_zero_scale_factor_makes_mutants_equal_best(rng):
    pop = init_population(SPHERE, 10, [rng])
    draws = draw_generations([rng], 1, 10, 10)
    best = pop.genotypes[0, pop.best_index[0]].copy()
    # with F=0 and CR=1 every child equals the clipped best
    new_pop, _ = de_generation(pop, 0.0, 1.0, SPHERE, draws.at(0))
    for child, old, old_fit, new_fit in zip(new_pop.genotypes[0], pop.genotypes[0],
                                            pop.fitnesses[0], new_pop.fitnesses[0]):
        if new_fit != old_fit or not np.array_equal(child, old):
            assert np.array_equal(child, best)


def test_full_crossover_takes_all_genes_from_mutant(rng):
    # F=0, CR=1: every child gene comes from the mutant, which is the best
    pop = init_population(SPHERE, 8, [rng])
    draws = draw_generations([rng], 1, 8, 10)
    best_fit = pop.best_fitness[0]
    new_pop, replaced = de_generation(pop, 0.0, 1.0, SPHERE, draws.at(0))
    assert replaced.shape == (1, 8)
    assert np.all(new_pop.fitnesses[replaced] == best_fit)


def test_elitism_monotone_and_reproducible():
    def run(seed):
        rng = [np.random.default_rng(seed)]
        pop = init_population(SPHERE, 10, rng)
        draws = draw_generations(rng, 49, 10, 10)
        bests = [pop.best_fitness[0]]
        for g in range(49):
            pop, _ = de_generation(pop, 0.5, 0.9, SPHERE, draws.at(g))
            bests.append(pop.best_fitness[0])
        return np.array(bests), pop

    bests1, pop1 = run(11)
    bests2, pop2 = run(11)
    assert np.array_equal(bests1, bests2)
    assert np.array_equal(pop1.genotypes, pop2.genotypes)
    assert np.all(np.diff(bests1) <= 0)


def test_children_within_bounds(rng):
    pop = init_population(SPHERE, 10, [rng])
    draws = draw_generations([rng], 10, 10, 10)
    for g in range(10):
        pop, _ = de_generation(pop, 1.9, 1.0, SPHERE, draws.at(g))
        assert np.all(pop.genotypes >= -5) and np.all(pop.genotypes <= 5)


def test_generation_consumes_exactly_np_evaluations(rng):
    fn, calls = counted(SPHERE)
    pop = init_population(fn, 10, [rng])
    draws = draw_generations([rng], 1, 10, 10)
    de_generation(pop, 0.5, 0.9, fn, draws.at(0))
    assert calls[0] == 20


def test_sphere_improves_in_100_of_100_runs():
    for seed in range(100):
        rng = [np.random.default_rng(seed)]
        pop = init_population(SPHERE, 10, rng)
        draws = draw_generations(rng, 49, 10, 10)
        initial = pop.best_fitness[0]
        for g in range(49):
            pop, _ = de_generation(pop, 0.5, 0.9, SPHERE, draws.at(g))
        assert pop.best_fitness[0] < initial

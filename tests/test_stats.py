import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evoadapt.observe import RunTrace
from evoadapt.stats import (ComparisonMatrix, auc, best_of_run,
                            build_comparison, export_comparison_csv,
                            export_comparison_json, win_probability)


class TestAuc:
    def test_constant_curve(self):
        assert auc(np.full(50, 3.0)) == pytest.approx(49 * 3.0, abs=1e-12)

    def test_two_points(self):
        assert auc([3.0, 1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_linear_descent(self):
        # 10 down to 0 over 11 points: area of a triangle plus nothing, 50
        assert auc(np.linspace(10.0, 0.0, 11)) == pytest.approx(50.0, abs=1e-12)

    def test_single_point_is_zero(self):
        assert auc([7.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc([])

    def test_matches_midpoint_oracle_on_smooth_curves(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            curve = np.cumsum(rng.normal(size=30))
            oracle = float(np.sum((curve[1:] + curve[:-1]) / 2.0))
            assert auc(curve) == pytest.approx(oracle, rel=1e-12)

    def test_dominating_curve_has_larger_auc(self, rng):
        base = np.abs(rng.normal(size=40)) + 1.0
        assert auc(base + 0.5) > auc(base)


def test_best_of_run_scans_whole_trace():
    trace = RunTrace()
    for v in [5.0, 1.0, 3.0]:
        trace.append_generation(np.zeros((1, 1, 2)), np.array([[v]]), np.array([[0.5]]))
    assert best_of_run(trace) == 1.0
    with pytest.raises(ValueError):
        best_of_run(RunTrace())


class TestWinProbability:
    def test_hand_example(self):
        # pairs: 1<2, 1<4, 3<4 win; 3<2 loses -> 3/4
        assert win_probability([1.0, 3.0], [2.0, 4.0]) == 0.75

    def test_total_dominance(self):
        assert win_probability([0.0, 0.1], [1.0, 2.0]) == 1.0
        assert win_probability([1.0, 2.0], [0.0, 0.1]) == 0.0

    def test_ties_count_as_losses(self):
        assert win_probability([1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_empty_or_mismatched_rejected(self):
        with pytest.raises(ValueError):
            win_probability([], [])
        with pytest.raises(ValueError):
            win_probability([1.0], [1.0, 2.0])

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 12))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            oracle = sum(x < y for x in a for y in b) / n ** 2
            assert win_probability(a, b) == pytest.approx(oracle, abs=1e-15)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry_without_ties(self, values):
        rng = np.random.default_rng(abs(hash(tuple(values))) % 2 ** 32)
        a = np.asarray(values) + rng.uniform(0.1, 0.2, size=len(values))
        b = np.asarray(values)
        if len(set(a) | set(b)) < 2 * len(values):  # skip accidental ties
            return
        assert win_probability(a, b) + win_probability(b, a) == pytest.approx(1.0)


class TestComparisonMatrix:
    def make_matrix(self, row, functions):
        return ComparisonMatrix(variants=["v"], functions=functions, cells=np.array([row]))

    def test_row_ratio_arithmetic(self):
        functions = [("F", d) for d in range(46)]
        row = [0.9 if i < 28 else 0.1 for i in range(46)]
        matrix = self.make_matrix(row, functions)
        assert matrix.row_ratio("v") == pytest.approx(28 / 46)

    def test_exact_half_cells_excluded(self):
        functions = [("A", 5), ("B", 5), ("C", 5)]
        matrix = self.make_matrix([0.5, 0.5, 0.8], functions)
        assert matrix.row_ratio("v") == 1.0

    def test_all_undecided_gives_none(self):
        matrix = self.make_matrix([0.5], [("A", 5)])
        assert matrix.row_ratio("v") is None


class TestBuildAndExport:
    def setup_method(self):
        self.functions = [("Sphere", 10), ("Rastrigin", 10)]
        variant = {"policy": {("Sphere", 10): [1.0, 2.0], ("Rastrigin", 10): [5.0, 6.0]}}
        opponent = {("Sphere", 10): [3.0, 4.0], ("Rastrigin", 10): [1.0, 2.0]}
        self.matrix = build_comparison(variant, opponent, self.functions)

    def test_cell_values(self):
        assert self.matrix.cells.tolist() == [[1.0, 0.0]]
        assert self.matrix.row_ratio("policy") == 0.5

    def test_csv_export(self, tmp_path):
        path = tmp_path / "cmp.csv"
        export_comparison_csv(self.matrix, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "variant,ratio,Sphere_10,Rastrigin_10"
        assert lines[1] == "policy,0.500000,1.000000,0.000000"

    def test_json_export(self, tmp_path):
        import json
        path = tmp_path / "cmp.json"
        export_comparison_json(self.matrix, path)
        doc = json.loads(path.read_text())
        assert doc["functions"] == ["Sphere_10", "Rastrigin_10"]
        assert doc["rows"][0]["cells"]["Sphere_10"] == 1.0
        assert doc["rows"][0]["ratio"] == 0.5

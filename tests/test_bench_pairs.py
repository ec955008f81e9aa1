"""The gain rule of `scripts/bench_pairs.py`."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# ten parent values, median 109.5, quartiles 105.75 and 114.25 (IQR 8.5); the
# values and the arithmetic below are exact in binary floating point
PARENT = [100.0, 110.0, 120.0, 105.0, 115.0, 102.0, 118.0, 108.0, 112.0, 109.0]


def rule(parent, change, better="lower"):
    return bench_pairs.gain_rule(parent, change, better)


def test_a_clear_gain_holds():
    result = rule(PARENT, [p - 30.0 for p in PARENT])
    assert result["holds"] and (result["wins"], result["ties"], result["losses"]) == (10, 0, 0)
    assert (result["median_gap"], result["parent_iqr"]) == (30.0, 8.5)


@pytest.mark.parametrize("better_pairs,holds", [(10, True), (9, True), (8, False)])
def test_nine_of_ten_pairs_must_be_better(better_pairs, holds):
    change = [p - 30.0 if i < better_pairs else p + 5.0 for i, p in enumerate(PARENT)]
    result = rule(PARENT, change)
    assert result["wins"] == better_pairs and result["losses"] == 10 - better_pairs
    assert result["holds"] is holds


@pytest.mark.parametrize("ties,holds", [(1, True), (2, False)])
def test_ties_count_for_neither_side(ties, holds):
    change = [p if i < ties else p - 30.0 for i, p in enumerate(PARENT)]
    result = rule(PARENT, change)
    assert (result["wins"], result["ties"], result["losses"]) == (10 - ties, ties, 0)
    assert result["holds"] is holds


@pytest.mark.parametrize("gain,holds", [(8.0, False), (8.5, False), (9.0, True)])
def test_the_median_gap_must_exceed_the_parents_iqr(gain, holds):
    # every pair is better; only the size of the gain decides
    result = rule(PARENT, [p - gain for p in PARENT])
    assert result["wins"] == 10
    assert result["holds"] is holds


def test_higher_is_better_for_throughput():
    assert rule(PARENT, [1.5 * p for p in PARENT], "higher")["holds"]
    assert not rule(PARENT, [p + 8.5 for p in PARENT], "higher")["holds"]
    # a lower value is no gain on a metric where higher is better
    worse = rule(PARENT, [p - 30.0 for p in PARENT], "higher")
    assert not worse["holds"] and worse["losses"] == 10 and worse["median_gap"] == -30.0

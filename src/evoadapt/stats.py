"""Evaluation metrics: AUC, best of run, pairwise win probability and the
cross-function comparison matrix behind the heatmap-style result tables."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .artifacts import replace_atomically, write_csv


def auc(best_fitness_curve) -> float:
    """Composite trapezoid integral of the per-generation best-so-far curve
    (unit spacing); a single point integrates to 0."""
    curve = np.asarray(best_fitness_curve, dtype=float)
    if curve.size == 0:
        raise ValueError("curve is empty")
    if curve.size == 1:
        return 0.0
    return float(np.sum((curve[1:] + curve[:-1]) / 2.0))


def best_of_run(trace) -> float:
    """Minimum fitness observed anywhere in the run."""
    if len(trace.best_fitness) == 0:
        raise ValueError("trace is empty")
    return float(np.min(trace.best_fitness))


def win_probability(metrics_a, metrics_b) -> float:
    """p(A < B): fraction of cross-paired runs where A's metric is strictly
    below B's. Ties count as losses per the strict inequality."""
    a = np.asarray(metrics_a, dtype=float)
    b = np.asarray(metrics_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("metric vectors must be non-empty")
    if a.size != b.size:
        raise ValueError("metric vectors must have equal length")
    wins = np.sum(a[:, None] < b[None, :])
    return float(wins) / (a.size * b.size)


@dataclass
class ComparisonMatrix:
    variants: list            # row labels
    functions: list           # [(name, dimension), ...] column keys
    cells: dict               # (variant, (name, dim)) -> float, absent = n/a

    def cell(self, variant, function):
        return self.cells.get((variant, tuple(function)))

    def row_ratio(self, variant) -> float | None:
        """wins / (wins + losses); exact-0.5 cells are excluded. None when
        no cell decides either way."""
        wins = losses = 0
        for function in self.functions:
            p = self.cell(variant, function)
            if p is None or p == 0.5:
                continue
            if p > 0.5:
                wins += 1
            else:
                losses += 1
        if wins + losses == 0:
            return None
        return wins / (wins + losses)


def build_comparison(variant_metrics: dict, opponent_metrics: dict,
                     functions: list) -> ComparisonMatrix:
    """Win probabilities of each variant against the opponent, per function.

    `variant_metrics[variant][(name, dim)]` and `opponent_metrics[(name, dim)]`
    are per-run metric vectors; a missing vector leaves the cell absent.
    """
    functions = [tuple(f) for f in functions]
    cells = {}
    for variant, per_fn in variant_metrics.items():
        for function in functions:
            a = per_fn.get(function)
            b = opponent_metrics.get(function)
            if a is None or b is None:
                continue
            cells[(variant, function)] = win_probability(a, b)
    return ComparisonMatrix(variants=list(variant_metrics), functions=functions, cells=cells)


def _fn_label(function) -> str:
    return f"{function[0]}_{function[1]}"


def export_comparison_csv(matrix: ComparisonMatrix, path) -> None:
    rows = [["variant", "ratio"] + [_fn_label(f) for f in matrix.functions]]
    for variant in matrix.variants:
        ratio = matrix.row_ratio(variant)
        row = [variant, "n/a" if ratio is None else f"{ratio:.6f}"]
        for function in matrix.functions:
            p = matrix.cell(variant, function)
            row.append("n/a" if p is None else f"{p:.6f}")
        rows.append(row)
    write_csv(path, rows)


def export_comparison_json(matrix: ComparisonMatrix, path) -> None:
    doc = {
        "functions": [_fn_label(f) for f in matrix.functions],
        "rows": [
            {
                "variant": variant,
                "ratio": matrix.row_ratio(variant),
                "cells": {
                    _fn_label(f): matrix.cell(variant, f) for f in matrix.functions
                },
            }
            for variant in matrix.variants
        ],
    }
    with replace_atomically(path) as fh:
        json.dump(doc, fh, indent=2)

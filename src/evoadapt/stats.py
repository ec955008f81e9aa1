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
    cells: np.ndarray         # (variants, functions) win probabilities

    def row_ratio(self, variant) -> float | None:
        """wins / (wins + losses); exact-0.5 cells are excluded. None when
        no cell decides either way."""
        p = self.cells[self.variants.index(variant)]
        wins, losses = int(np.sum(p > 0.5)), int(np.sum(p < 0.5))
        if wins + losses == 0:
            return None
        return wins / (wins + losses)


def build_comparison(variant_metrics: dict, opponent_metrics: dict,
                     functions: list) -> ComparisonMatrix:
    """Win probabilities of each variant against the opponent, per function.

    `variant_metrics[variant][(name, dim)]` and `opponent_metrics[(name, dim)]`
    are per-run metric vectors, one for every function.
    """
    functions = [tuple(f) for f in functions]
    cells = np.array([[win_probability(per_fn[f], opponent_metrics[f]) for f in functions]
                      for per_fn in variant_metrics.values()])
    return ComparisonMatrix(variants=list(variant_metrics), functions=functions, cells=cells)


def _fn_label(function) -> str:
    return f"{function[0]}_{function[1]}"


def export_comparison_csv(matrix: ComparisonMatrix, path) -> None:
    rows = [["variant", "ratio"] + [_fn_label(f) for f in matrix.functions]]
    for variant, cells in zip(matrix.variants, matrix.cells):
        ratio = matrix.row_ratio(variant)
        rows.append([variant, "n/a" if ratio is None else f"{ratio:.6f}"]
                    + [f"{p:.6f}" for p in cells])
    write_csv(path, rows)


def export_comparison_json(matrix: ComparisonMatrix, path) -> None:
    doc_functions = [_fn_label(f) for f in matrix.functions]
    doc = {
        "functions": doc_functions,
        "rows": [
            {
                "variant": variant,
                "ratio": matrix.row_ratio(variant),
                "cells": dict(zip(doc_functions, cells.tolist())),
            }
            for variant, cells in zip(matrix.variants, matrix.cells)
        ],
    }
    with replace_atomically(path) as fh:
        json.dump(doc, fh, indent=2)

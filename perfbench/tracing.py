"""Span tracing of evoadapt's modules, installed from outside the program.

Each traced function is replaced by a wrapper under every name a caller
looks it up by: the module attributes of every `evoadapt` module that hold
it (so `from .benchmarks import evaluate` in `de` is covered) and the class
attribute for methods. A wrapper records a span (name, start, end, parent,
op) and adds to its layer's call count and self time, which is the span's
duration minus the time its child spans cover. A call that enters a layer
already open on top of the stack (PolicyNet.forward calling Mlp.forward,
cli.main calling cmd_train) stays inside that span.

A target that no longer exists is skipped and one never called reads 0
calls, so the traced run survives code moving between these functions.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# layer -> functions, as "module:attribute" or "module:Class.method"
LAYERS = {
    "benchmarks.objective": ("benchmarks:evaluate", "benchmarks:evaluate_population"),
    "de.de_generation": ("de:de_generation",),
    "de.init_population": ("de:init_population",),
    "cmaes.cma_generation": ("cmaes:cma_generation",),
    "baselines.ide": ("baselines:make_ide_state", "baselines:ide_update",
                      "baselines:ide_record_success"),
    "baselines.jde": ("baselines:jde_update", "baselines:jde_record"),
    "baselines.csa": ("baselines:make_csa_state", "baselines:csa_update"),
    "observe.build_observation": ("observe:build_observation",),
    "observe.trace": ("observe:RunTrace.append_generation", "observe:reward"),
    "policy.forward": ("policy:PolicyNet.forward", "policy:Mlp.forward"),
    "policy.decode": ("policy:decode_de_params", "policy:decode_sigma"),
    "policy.mlp_forward_cache": ("policy:Mlp.forward_cache",),
    "policy.mlp_backward": ("policy:Mlp.backward",),
    "policy.load_checkpoint": ("policy:load_checkpoint",),
    "ppo.ppo_loss": ("ppo:ppo_loss",),
    "ppo.optimizer_step": ("ppo:Sgd.step", "ppo:Adam.step"),
    "ppo.clip_gradients": ("ppo:clip_gradients",),
    "ppo.compute_gae": ("ppo:compute_gae",),
    "ppo.train": ("ppo:train",),
    "envloop.protocol": ("envloop:run_test_protocol",),
    "envloop.episode": ("envloop:run_de_episode", "envloop:run_cma_episode",
                        "envloop:run_episode"),
    "envloop.env": ("envloop:EvolutionEnv.reset", "envloop:EvolutionEnv.step"),
    "envloop.export_trace_csv": ("envloop:export_trace_csv",),
    "stats": ("stats:auc", "stats:best_of_run", "stats:win_probability",
              "stats:build_comparison", "stats:export_comparison_csv",
              "stats:export_comparison_json"),
    "config": ("config:load_config", "config:save_config"),
    "cli": ("cli:main", "cli:cmd_list_functions", "cli:cmd_train", "cli:cmd_evaluate",
            "cli:cmd_compare", "cli:run_training"),
}
OBJECTIVE = "benchmarks.objective"


def _objective_rows(args, kwargs):
    """(Name-dim, rows) of an evaluate/evaluate_population call."""
    fn = args[0] if args else kwargs["fn"]
    x = args[1] if len(args) > 1 else kwargs.get("x", kwargs.get("X"))
    rows = 1 if getattr(x, "ndim", 1) == 1 else len(x)
    return f"{fn.name}-{fn.dimension}", rows


class Tracer:
    def __init__(self, layers: dict = LAYERS):
        self.targets = layers
        self.layers = list(layers)
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        self.rows: dict[str, list] = {}     # Name-dim -> [rows, seconds]
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self.active = False
        self.missing: list[str] = []
        self._stack = [[-1, -1, 0.0]]       # [layer, span index, child seconds]
        self._undo: list = []

    def _wrap(self, layer: int, fn):
        stack = self._stack
        tracer = self
        is_objective = self.layers[layer] == OBJECTIVE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if not tracer.active or top[0] == layer:
                return fn(*args, **kwargs)
            index = len(tracer.span_start)
            frame = [layer, index, 0.0]
            stack.append(frame)
            tracer.span_layer.append(layer)
            tracer.span_parent.append(top[1])
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[2]
                stack[-1][2] += duration
                tracer.span_end[index] = end
                tracer.calls[layer] += 1
                tracer.self_s[layer] += own
                if is_objective:
                    label, rows = _objective_rows(args, kwargs)
                    entry = tracer.rows.setdefault(label, [0, 0.0])
                    entry[0] += rows
                    entry[1] += own

        return wrapper

    def install(self) -> None:
        """Patch every target found in the imported evoadapt modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "evoadapt" or name.startswith("evoadapt."))]
        for layer, targets in enumerate(self.targets.values()):
            for target in targets:
                module_name, attr = target.split(":")
                module = sys.modules.get(f"evoadapt.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = (vars(owner).get(method) if owner is not None and method
                            else None)
                if original is None or not callable(original):
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(layer, original)
                if owner_name:
                    self._undo.append((owner, method, original))
                    setattr(owner, method, wrapper)
                else:
                    for m in modules:
                        for name, value in list(vars(m).items()):
                            if value is original:
                                self._undo.append((m, name, original))
                                setattr(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def metrics(self) -> dict:
        """Per-layer calls and self seconds, plus objective rows per function."""
        out = {}
        for i, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = self.calls[i]
            out[f"{layer}.self_s"] = self.self_s[i]
        rows = sum(r for r, _ in self.rows.values())
        out[f"{OBJECTIVE}.rows"] = rows
        calls = out[f"{OBJECTIVE}.calls"]
        out[f"{OBJECTIVE}.rows_per_call"] = rows / calls if calls else 0.0
        for label, (n, seconds) in self.rows.items():
            out[f"{OBJECTIVE}.us_per_row.{label}"] = 1e6 * seconds / n
        out["trace.spans"] = len(self.span_start)
        return out

    def write(self, path: str) -> None:
        """Spans as a compressed numpy archive: parallel arrays indexed by
        span, with `layers` naming the values of `layer`."""
        import numpy as np
        np.savez_compressed(path, layers=np.array(self.layers),
                            layer=np.frombuffer(self.span_layer, dtype=np.int32),
                            start=np.frombuffer(self.span_start, dtype=np.float64),
                            end=np.frombuffer(self.span_end, dtype=np.float64),
                            parent=np.frombuffer(self.span_parent, dtype=np.int32),
                            op=np.frombuffer(self.span_op, dtype=np.int32))

"""Per-layer spans recorded from the benchmark's side of each call.

`instrument` replaces chosen module-level functions and methods of the
distpriv layers with timing wrappers, in every distpriv module that
imported them, and `restore` puts the originals back. Nothing in the
program itself changes; a traced run pays one wrapper call per traced
call, which is the tracing overhead the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute or Class.method, layer key, tally of extra counters)
_LOAD_CELL_HIT = lambda args, kwargs, result: {"cli.cells_reused": int(result is not None)}  # noqa: E731
_STORE_CELL = lambda args, kwargs, result: {"cli.cells_computed": 1}  # noqa: E731
_MODEL_DRAWS = lambda args, kwargs, result: {"mechanisms.model_draws": int(args[1])}  # noqa: E731

TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("distpriv.dataio", "load_adult", "dataio.load", None),
    ("distpriv.dataio", "split_dataset", "dataio.split", None),
    ("distpriv.dataio", "sample_subset_indices", "dataio.sample", None),
    ("distpriv.dataio", "Table.take", "dataio.take", None),
    ("distpriv.dataio", "compute_query", "dataio.query", None),
    ("distpriv.model", "estimate_gaussian", "model.estimate", None),
    ("distpriv.model", "check_assumptions", "model.assumption", None),
    ("distpriv.model", "eigendecompose", "model.eigendecompose", None),
    ("distpriv.mechanisms", "calibrate_wasserstein", "mechanisms.plan", None),
    ("distpriv.mechanisms", "calibrate_approx_wasserstein", "mechanisms.plan", None),
    ("distpriv.mechanisms", "calibrate_expm", "mechanisms.plan", None),
    ("distpriv.mechanisms", "calibrate_directional", "mechanisms.plan", None),
    ("distpriv.mechanisms", "eig_plan", "mechanisms.plan", None),
    ("distpriv.mechanisms", "dau_plan", "mechanisms.plan", None),
    ("distpriv.mechanisms", "group_dp_calibrate", "mechanisms.plan", None),
    ("distpriv.mechanisms", "apply", "mechanisms.apply", None),
    ("distpriv.mechanisms", "apply_batch", "mechanisms.apply", None),
    ("distpriv.mechanisms", "audit", "mechanisms.audit", None),
    ("distpriv.mechanisms", "gaussian_model_draws", "mechanisms.draws", _MODEL_DRAWS),
    ("distpriv.attack", "run_attack_trial", "attack.trial", None),
    ("distpriv.attack", "train_meta_classifier", "attack.train", None),
    ("distpriv.transport", "_Dinic.max_flow", "transport.max_flow", None),
    ("distpriv.transport", "ClosenessCertificate.verify", "transport.verify", None),
    ("distpriv.cli", "cmd_model", "cli.stage", None),
    ("distpriv.cli", "cmd_utility", "cli.stage", None),
    ("distpriv.cli", "cmd_attack", "cli.stage", None),
    ("distpriv.cli", "_load_cell", "cli.load_cell", _LOAD_CELL_HIT),
    ("distpriv.cli", "_store_cell", "cli.store_cell", _STORE_CELL),
)

# Per-layer metrics: name -> (unit, source, layer key or counter)
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "dataio.load_calls": ("count", "calls", "dataio.load"),
    "dataio.load_s": ("s", "busy", "dataio.load"),
    "dataio.split_s": ("s", "busy", "dataio.split"),
    "dataio.sample_calls": ("count", "calls", "dataio.sample"),
    "dataio.sample_s": ("s", "busy", "dataio.sample"),
    "dataio.take_s": ("s", "busy", "dataio.take"),
    "dataio.query_calls": ("count", "calls", "dataio.query"),
    "dataio.query_s": ("s", "busy", "dataio.query"),
    "model.estimate_s": ("s", "busy", "model.estimate"),
    "model.assumption_calls": ("count", "calls", "model.assumption"),
    "model.assumption_s": ("s", "busy", "model.assumption"),
    "model.eigendecompose_calls": ("count", "calls", "model.eigendecompose"),
    "mechanisms.plan_calls": ("count", "calls", "mechanisms.plan"),
    "mechanisms.plan_s": ("s", "busy", "mechanisms.plan"),
    "mechanisms.apply_calls": ("count", "calls", "mechanisms.apply"),
    "mechanisms.apply_s": ("s", "busy", "mechanisms.apply"),
    "mechanisms.audit_calls": ("count", "calls", "mechanisms.audit"),
    "mechanisms.audit_s": ("s", "busy", "mechanisms.audit"),
    "mechanisms.model_draws": ("count", "tally", "mechanisms.model_draws"),
    "attack.trials": ("count", "calls", "attack.trial"),
    "attack.trial_s": ("s", "busy", "attack.trial"),
    "attack.train_calls": ("count", "calls", "attack.train"),
    "attack.train_s": ("s", "busy", "attack.train"),
    "transport.flow_probes": ("count", "calls", "transport.max_flow"),
    "transport.max_flow_s": ("s", "busy", "transport.max_flow"),
    "transport.verify_s": ("s", "busy", "transport.verify"),
    "cli.cells_computed": ("count", "tally", "cli.cells_computed"),
    "cli.cells_reused": ("count", "tally", "cli.cells_reused"),
    "cli.stage_self_s": ("s", "self", "cli.stage"),
}


class Tracer:
    """Spans at layer boundaries, aggregated as they close.

    For each layer key: `calls` counts outermost entries (a layer calling
    itself, as apply does apply_batch, counts once), `busy` sums their
    durations, and `self` sums every span's duration minus the part its
    child spans cover. Spans up to `keep_depth` deep are kept whole, with
    the index of their parent, for the trace file.
    """

    def __init__(self, keep_depth: int = 2):
        self.calls: Counter = Counter()
        self.tally: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[str, float, float, int]] = []
        self.keep_depth = keep_depth
        self._open: List[list] = []  # [key, child seconds, span index]
        self._depth: Counter = Counter()
        self._undo: List[Tuple[object, str, object]] = []

    def snapshot(self) -> dict:
        return {
            "calls": Counter(self.calls),
            "tally": Counter(self.tally),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
        }

    def per_layer(self, before: dict, after: dict) -> Dict[str, float]:
        """Per-layer metric values accumulated between two snapshots."""
        out = {}
        for name, (_, source, key) in PER_LAYER.items():
            out[name] = after[source].get(key, 0) - before[source].get(key, 0)
        return out

    def wrap(self, key: str, fn, tally=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = self._depth[key] == 0
            if outermost:
                self.calls[key] += 1
            self._depth[key] += 1
            index = -1
            if len(self._open) < self.keep_depth:
                parent = self._open[-1][2] if self._open else -1
                index = len(self.spans)
                self.spans.append((key, 0.0, 0.0, parent))
            frame = [key, 0.0, index]
            self._open.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                took = end - start
                self._open.pop()
                self._depth[key] -= 1
                if outermost:
                    self.busy[key] += took
                self.self_time[key] += took - frame[1]
                if self._open:
                    self._open[-1][1] += took
                if index >= 0:
                    self.spans[index] = (key, start, end, self.spans[index][3])
                if tally is not None:
                    self.tally.update(tally(args, kwargs, result))

        return traced

    def instrument(self) -> None:
        """Wrap every target in every loaded distpriv module that holds it."""
        for module_name, _, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for name, m in sys.modules.items()
                   if name == "distpriv" or name.startswith("distpriv.")]
        for module_name, attr, key, tally in TARGETS:
            home = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[method]
                self._replace(owner, method, self.wrap(key, original, tally))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(key, original, tally)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, wrapped)

    def _replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

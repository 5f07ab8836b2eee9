"""Layer spans for the traced run, recorded from outside the package.

`Tracer.install()` replaces each traced function, under every name that
holds it in a loaded `dudekit` module (and the method on its class), with a
wrapper that records a span: name, start, end and the enclosing span. Spans
and counts stay in memory; `write()` saves them when the run ends and
`metrics()` folds them into the per-layer metrics. Nothing under `src/`
changes. A function that is no longer there is listed in `missing`.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# Traced functions: (module, attribute path). A dotted path names a method.
TARGETS = (
    ("io", "load_sequence"),
    ("io", "save_sequence"),
    ("channel", "build_estimated_loss"),
    ("baselines", "generate_source"),
    ("baselines", "corrupt"),
    ("baselines", "smoothing_posteriors"),
    ("baselines", "forward_backward_denoise"),
    ("core", "context_matrix"),
    ("core", "pack_context_keys"),
    ("dude", "select_denoisers"),
    ("dude", "_group_interior"),
    ("dude", "_argmin_chunked"),
    ("neural", "train"),
    ("neural", "_encode_rows"),
    ("neural", "MLPDenoiser._loss_grad"),
    ("neural", "_Adam.step"),
    ("neural", "select_denoisers"),
    ("neural", "_unique_contexts"),
    ("evaluation", "sweep_k"),
    ("evaluation", "estimated_loss"),
    ("evaluation", "apply_rules"),
    ("evaluation", "symbol_error_rate"),
)

# Counts taken from a call's arguments and result: span name -> (counter, fn).
COUNTERS = {
    "io.load_sequence": ("io.symbols", lambda args, res: len(res[0])),
    "io.save_sequence": ("io.symbols", lambda args, res: len(args[0])),
    "dude._group_interior": ("dude.contexts", lambda args, res: res[1].shape[0]),
    "neural.MLPDenoiser._loss_grad": ("neural.rows_trained", lambda args, res: args[1].shape[0]),
    "neural._Adam.step": ("neural.steps", lambda args, res: 1),
    "neural._unique_contexts": ("neural.infer_rows", lambda args, res: res[0].shape[0]),
}

# Per-layer time -> (span names summed, use self time). Self time is a span's
# duration minus that of the spans it encloses.
TIMES = {
    "io.load_s": (("io.load_sequence",), False),
    "io.save_s": (("io.save_sequence",), False),
    "channel.tables_s": (("channel.build_estimated_loss",), False),
    "baselines.generate_s": (("baselines.generate_source",), False),
    "baselines.corrupt_s": (("baselines.corrupt",), False),
    "baselines.smooth_s": (("baselines.smoothing_posteriors",), False),
    "baselines.fb_decide_s": (("baselines.forward_backward_denoise",), True),
    "core.context_matrix_s": (("core.context_matrix",), False),
    "core.pack_keys_s": (("core.pack_context_keys",), False),
    "dude.select_s": (("dude.select_denoisers",), False),
    "dude.group_s": (("dude._group_interior",), True),
    "dude.argmin_s": (("dude._argmin_chunked",), False),
    "neural.train_s": (("neural.train",), False),
    "neural.encode_s": (("neural._encode_rows",), False),
    "neural.loss_grad_s": (("neural.MLPDenoiser._loss_grad",), False),
    "neural.adam_s": (("neural._Adam.step",), False),
    "neural.infer_s": (("neural.select_denoisers",), False),
    "neural.unique_s": (("neural._unique_contexts",), False),
    "evaluation.sweep_s": (("evaluation.sweep_k",), False),
    "evaluation.score_s": (
        ("evaluation.estimated_loss", "evaluation.apply_rules", "evaluation.symbol_error_rate"),
        False,
    ),
}
COUNTS = ("io.symbols", "dude.contexts", "neural.steps", "neural.rows_trained", "neural.infer_rows")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in TIMES}
    units.update({name: "count" for name in COUNTS})
    units["neural.step_us"] = "us"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # One entry per span, appended at entry; the end is filled in at exit.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time of enclosed spans]
        self.phase = "setup"
        self.total = defaultdict(float)  # (phase, name) -> seconds
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)  # (phase, counter) -> count
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = self._name_id.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            self.span_end.append(0.0)
            t0 = clock()
            self.span_start.append(t0)
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_end[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.total[self.phase, name] += dur
                self.self_time[self.phase, name] += dur - frame[1]
            if counter is not None:
                self.counts[self.phase, counter[0]] += counter[1](args, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded dudekit module that holds it."""
        modules = [m for key, m in sys.modules.items() if key == "dudekit" or key.startswith("dudekit.")]
        for mod_name, path in TARGETS:
            name = f"{mod_name}.{path}"
            owner = sys.modules.get(f"dudekit.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, fn)
            if cls_path:
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def metrics(self, reps: dict[str, int]) -> dict[str, float]:
        """Per-layer metrics for one set-up and one round.

        Spans and counts in each phase are divided by how many times the
        phase ran (`reps`, e.g. {"setup": 3, "round": 1}).
        """
        def per_rep(table, key):
            return sum(table[phase, key] / r for phase, r in reps.items())

        out = {}
        for metric, (spans, use_self) in TIMES.items():
            table = self.self_time if use_self else self.total
            out[metric] = sum(per_rep(table, s) for s in spans)
        for counter in COUNTS:
            out[counter] = per_rep(self.counts, counter)
        steps = out["neural.steps"]
        out["neural.step_us"] = 1e6 * out["neural.train_s"] / steps if steps else 0.0
        return out

    def write(self, path: str) -> None:
        """Save every span: name id, parent span index (-1 at top), start, end."""
        doc = {
            "names": self.names,
            "missing": self.missing,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start": list(self.span_start),
            "end": list(self.span_end),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

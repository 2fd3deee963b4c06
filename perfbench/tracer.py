"""Span tracer that times dercoord's public functions from outside.

`Tracer.install()` replaces module and class attributes of the package (the
`TARGETS` table) with thin wrappers that record one span per call: name,
start, end and the index of the enclosing span. `Tracer.remove()` puts every
original back. Spans stay in memory until `write()` dumps them at the end of
a run; `layer_summary()` turns them into counts, busy time (total duration)
and self time (duration minus child spans) per span name.

Nothing under `src/` is touched: a target is patched where its caller looks
it up at call time. Names imported with ``from .x import f`` are patched in
the importing module too (for instance `dercoord.experiment.run` besides
`dercoord.algorithms.run`), because that module holds its own reference.
"""

from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np

MARKER = "__perfbench_wrapper__"

# (module, class or None, attribute, span name)
TARGETS = (
    ("dercoord.network", "GraphSchedule", "active_mask", "network.active_mask"),
    ("dercoord.algorithms", None, "metropolis_weights", "network.mixing"),
    ("dercoord.algorithms", None, "push_matrix", "network.mixing"),
    ("dercoord.algorithms", None, "augmented_push_matrix", "network.mixing"),
    ("dercoord.network", None, "connected_components", "network.connectivity"),
    ("dercoord.network", None, "minimal_connectivity_window", "network.minimal_connectivity_window"),
    ("dercoord.algorithms", None, "run", "algorithms.run"),
    ("dercoord.experiment", None, "run", "algorithms.run"),
    ("dercoord.algorithms", None, "pd1_step", "algorithms.step"),
    ("dercoord.algorithms", None, "pd2_step", "algorithms.step"),
    ("dercoord.algorithms", None, "directed_pd_step", "algorithms.step"),
    ("dercoord.algorithms", None, "robust_pd_step", "algorithms.step"),
    ("dercoord.algorithms", None, "virtual_domain_step", "algorithms.step"),
    ("dercoord.algorithms", None, "project_box", "problem.project_box"),
    ("dercoord.problem", "QuadraticCost", "grad", "problem.cost_grad"),
    ("dercoord.oracle", None, "solve_bisection", "oracle.solve_bisection"),
    ("dercoord.experiment", None, "solve_bisection", "oracle.solve_bisection"),
    ("dercoord.metrics", None, "convergence_error", "metrics.convergence_error"),
    ("dercoord.experiment", None, "convergence_error", "metrics.convergence_error"),
    ("dercoord.metrics", None, "fit_rate", "metrics.fit_rate"),
    ("dercoord.experiment", None, "fit_rate", "metrics.fit_rate"),
    ("dercoord.metrics", None, "invariant_report", "metrics.invariant_report"),
    ("dercoord.experiment", None, "run_experiment", "experiment.run_experiment"),
    ("dercoord.cli", None, "run_experiment", "experiment.run_experiment"),
    ("dercoord.cli", None, "main", "cli.main"),
    ("dercoord.experiment", None, "load_case", "experiment.load_case"),
    ("dercoord.experiment", None, "generate_graph", "experiment.generate_graph"),
    ("dercoord.experiment", None, "generate_instance", "experiment.generate_instance"),
)

SETUP_SPANS = ("experiment.load_case", "experiment.generate_graph", "experiment.generate_instance")


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def leftover_wrappers() -> list[str]:
    """Targets that currently hold a tracer wrapper instead of the original."""
    found = []
    for module, cls, attr, _ in TARGETS:
        try:
            value = vars(_owner(module, cls)).get(attr)
        except (ImportError, AttributeError):
            continue
        if getattr(value, MARKER, False):
            found.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    return found


class Tracer:
    """Records spans and per-name counters while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent, hook_s]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}
        self._mask_keys: set[tuple[str, int]] = set()
        self._digests: dict[int, tuple[object, str]] = {}
        self.missing: list[str] = []
        self.kept: list[list] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for module, cls, attr, name in self.targets:
            try:
                owner = _owner(module, cls)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                # A target a later version no longer has: its layer then
                # reads zero calls instead of failing the traced run.
                self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, _HOOKS.get(name)))
            self._patches.append((owner, attr, original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, perf_counter(), 0.0, parent, 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                # Hook time is charged to no layer: the parent's self time
                # excludes it.
                hook(self, args, result)
                if parent >= 0:
                    spans[parent][4] += perf_counter() - span[2]
            return result

        setattr(wrapper, MARKER, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self) -> None:
        """Forget recorded spans and counters (between batches)."""
        self.spans.clear()
        self.counters = {}
        self._mask_keys = set()

    def keep_spans(self) -> None:
        """Keep a copy of the recorded spans for `write()`."""
        self.kept = [list(span) for span in self.spans]

    # -- counters -------------------------------------------------------

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def schedule_digest(self, schedule) -> str:
        # The schedule is kept referenced so its id is not reused.
        entry = self._digests.get(id(schedule))
        if entry is None or entry[0] is not schedule:
            entry = (schedule, schedule.digest())
            self._digests[id(schedule)] = entry
        return entry[1]

    def note_mask(self, schedule, k: int) -> None:
        self._mask_keys.add((self.schedule_digest(schedule), int(k)))
        self.counters["network.active_mask.distinct"] = len(self._mask_keys)

    # -- analysis ---------------------------------------------------------

    def layer_summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s and self_s."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, hook_s) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - child[i] - hook_s
        return out

    def write(self, path) -> None:
        """Dump the kept spans as CSV: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.kept):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def _on_active_mask(tracer: Tracer, args, result) -> None:
    tracer.note_mask(*args)  # (schedule, k)


def _on_mixing(tracer: Tracer, args, result) -> None:
    entries = result.shape[0] * result.shape[1]
    tracer.count("network.mixing.bytes_computed", 8 * entries)
    tracer.count("network.mixing.entries", entries)
    tracer.count("network.mixing.nonzeros", int(np.count_nonzero(result)))


def _on_run(tracer: Tracer, args, result) -> None:
    tracer.count("algorithms.run.steps", result.steps)
    tracer.count("algorithms.run.agent_steps", result.steps * result.p.shape[1])


def _on_oracle(tracer: Tracer, args, result) -> None:
    tracer.count("oracle.solve_bisection.iterations", result.iterations)


_HOOKS = {
    "network.active_mask": _on_active_mask,
    "network.mixing": _on_mixing,
    "algorithms.run": _on_run,
    "oracle.solve_bisection": _on_oracle,
}

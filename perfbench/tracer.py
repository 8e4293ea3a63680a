"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer (listed in
:data:`TARGETS`) at class level for the duration of a traced episode.  Each
call becomes a span (id, name, start, end, parent); a span's *self* time is
its duration minus the time covered by its child spans, so the self times
of all spans add up exactly to the duration of the root spans.  Totals are
aggregated as the spans close; full span records are kept in memory only
while ``record`` is set and written out by the caller at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

#: (span name, module, class, methods).  ``"*"`` wraps every public method
#: the class itself defines.  The span name's prefix up to the last dot is
#: its layer, except for the names listed in :data:`LAYER_OF`.
TARGETS = (
    ("localsearch.run", "repro.localsearch.multistart", "MultiStartRunner", ("run",)),
    ("service.scheduler", "repro.service.server", "SolveServer", ("run_trace",)),
    ("service.step", "repro.service.continuous", "ContinuousRunner", ("step",)),
    ("service.attach", "repro.service.continuous", "ContinuousRunner", ("attach",)),
    ("service.suspend_resume", "repro.service.continuous", "ContinuousRunner",
     ("suspend", "resume")),
    ("service.detach", "repro.service.continuous", "ContinuousRunner", ("detach",)),
    ("core.evaluate", "repro.core.evaluators", "NeighborhoodEvaluator", ("evaluate_many",)),
    ("core.evaluate", "repro.core.evaluators", "GPUEvaluator", ("evaluate_resident",)),
    ("core.evaluate", "repro.core.evaluators", "MultiGPUEvaluator", ("evaluate_resident",)),
    ("core.apply_deltas", "repro.core.evaluators", "GPUEvaluator", ("apply_deltas",)),
    ("core.apply_deltas", "repro.core.evaluators", "MultiGPUEvaluator", ("apply_deltas",)),
    ("core.rebalance", "repro.core.evaluators", "MultiGPUEvaluator", ("rebalance_resident",)),
    ("core.fault", "repro.core.evaluators", "MultiGPUEvaluator",
     ("fail_device", "join_device")),
    ("gpu.runtime", "repro.gpu.runtime", "GPUContext",
     ("launch", "launch_async", "copy_async", "copy_peer_async", "download_async",
      "reduce_async", "to_device")),
    ("gpu.interconnect", "repro.gpu.interconnect", "TransferEngine",
     ("transfer", "peer_transfer", "transfer_batch")),
    ("gpu.scheduler", "repro.gpu.scheduler", "DeviceScheduler", "*"),
    ("problems.score", "repro.problems.ppp", "PermutedPerceptronProblem",
     ("evaluate_neighborhood_batch", "evaluate_neighborhood")),
    ("problems.score", "repro.problems.ppp", "_PPPFastScorer", ("evaluate",)),
    ("problems.score", "repro.problems.ubqp", "UBQP",
     ("evaluate_neighborhood_batch", "evaluate_neighborhood")),
    ("problems.score", "repro.problems.ubqp", "_UBQPFastScorer", ("evaluate",)),
    ("problems.incremental.try_evaluate", "repro.problems.incremental", "GainEngine",
     ("try_evaluate",)),
    ("problems.incremental.commit", "repro.problems.incremental", "GainEngine",
     ("commit",)),
)

#: Span names whose layer is the whole name (they are layers themselves).
LAYER_OF = {"gpu.runtime": "gpu.runtime", "gpu.interconnect": "gpu.interconnect",
            "gpu.scheduler": "gpu.scheduler"}

LAYERS = ("localsearch", "service", "core", "gpu.runtime", "gpu.interconnect",
          "gpu.scheduler", "problems", "problems.incremental")


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.rsplit(".", 1)[0])


class Tracer:
    """Class-level span wrappers with on-the-fly self-time aggregation."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: Calls not nested inside another span of the same name.
        self.outer_calls: dict[str, int] = defaultdict(int)
        self.root_ns = 0
        self.try_attempted = 0
        self.try_served = 0
        self.scored_elements = 0
        #: Full span records ``(id, parent, name, start_ns, end_ns)`` while set.
        self.record: list | None = None
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for name, module, cls_name, methods in TARGETS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            if cls is None:
                self.missing.append(f"{module}.{cls_name}")
                continue
            if methods == "*":
                methods = tuple(
                    attr for attr, value in vars(cls).items()
                    if not attr.startswith("_") and inspect.isfunction(value)
                )
            for method in methods:
                original = vars(cls).get(method)
                if not inspect.isfunction(original):
                    self.missing.append(f"{module}.{cls_name}.{method}")
                    continue
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patches):
            setattr(cls, method, original)
        self._patches = []
        self._stack = []
        self._depth.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn):
        stack, depth = self._stack, self._depth
        on_exit = _ON_EXIT.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._next_id += 1
            # [name, child_ns, start_ns, span id, served-by-gain-engine]
            frame = [name, 0, 0, self._next_id, False]
            stack.append(frame)
            depth[name] += 1
            frame[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                depth[name] -= 1
                duration = end - frame[2]
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if not depth[name]:
                    self.outer_calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_ns += duration
                if self.record is not None:
                    parent = stack[-1][3] if stack else 0
                    self.record.append((frame[3], parent, name, frame[2], end))
            if on_exit is not None:
                on_exit(self, frame, result)
            return result

        return span

    # ------------------------------------------------------------------
    def layer_self_ns(self) -> dict[str, int]:
        totals = dict.fromkeys(LAYERS, 0)
        for name, value in self.self_ns.items():
            layer = layer_of(name)
            totals[layer] = totals.get(layer, 0) + value
        return totals


def _try_evaluate_exit(tracer: Tracer, frame, result) -> None:
    tracer.try_attempted += 1
    if result is not None:
        tracer.try_served += 1
        stack = tracer._stack
        if stack and stack[-1][0] == "problems.score":
            stack[-1][4] = True


def _score_exit(tracer: Tracer, frame, result) -> None:
    # Count scored (replica, move) pairs once per outermost scoring call
    # that the gain engine did not serve.
    if not tracer._depth["problems.score"] and not frame[4]:
        tracer.scored_elements += int(np.size(result))


_ON_EXIT = {
    "problems.incremental.try_evaluate": _try_evaluate_exit,
    "problems.score": _score_exit,
}

"""Multi-trial experiment runner for the PPP tabu-search evaluation.

This module turns individual :class:`~repro.localsearch.result.LSResult`
runs into the aggregate rows reported by the paper's tables: mean/std
fitness, number of iterations, number of successful tries and the modeled
CPU/GPU times for the measured trajectory length.

The CPU and GPU columns are priced by the evaluators themselves:
:func:`~repro.core.evaluators.full_step_time` runs one ``full`` step of one
solution on a :class:`CPUEvaluator` and on a :class:`GPUEvaluator`, the
clocks that price every search, and the columns scale that step by the
mean trajectory length.  They keep the paper's definition whatever
evaluator and transfer mode ran the trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from ..core.evaluators import (
    CPUEvaluator,
    GPUEvaluator,
    MultiGPUEvaluator,
    NeighborhoodEvaluator,
    SequentialEvaluator,
    full_step_time,
)
from ..localsearch.multistart import TRANSFER_MODES, MultiStartRunner
from ..neighborhoods import KHammingNeighborhood
from ..problems.instances import PPPInstanceSpec, instance_seed, make_table_instance
from .config import ExperimentScale

__all__ = [
    "TrialRecord",
    "ExperimentRow",
    "run_ppp_experiment",
    "EVALUATOR_SPECS",
    "resolve_evaluator_factory",
    "TRANSFER_MODES",
]

#: Named evaluator factories: the ``--evaluator`` choices of the CLI.  The
#: GPU-backed factories accept the device-pool options (``devices``,
#: ``pinned``, ``topology``).
EVALUATOR_SPECS = {
    "cpu": lambda problem, neighborhood: CPUEvaluator(problem, neighborhood),
    "sequential": lambda problem, neighborhood: SequentialEvaluator(problem, neighborhood),
    "gpu": lambda problem, neighborhood, pinned=False, topology=None: GPUEvaluator(
        problem, neighborhood, pinned=pinned, topology=topology
    ),
    "multi-gpu": lambda problem, neighborhood, devices=2, pinned=False, topology=None: (
        MultiGPUEvaluator(
            problem, neighborhood, devices=devices, pinned=pinned, topology=topology
        )
    ),
}

#: Which pool options each named spec understands.
_SPEC_OPTIONS = {
    "cpu": (),
    "sequential": (),
    "gpu": ("pinned", "topology"),
    "multi-gpu": ("devices", "pinned", "topology"),
}


def resolve_evaluator_factory(
    spec,
    *,
    devices: int | None = None,
    pinned: bool = False,
    topology: str | None = None,
):
    """Turn an evaluator spec (name, callable or ``None``) into a factory.

    ``None`` selects the default vectorized CPU evaluator; a string is looked
    up in :data:`EVALUATOR_SPECS`; a callable is returned unchanged.  The
    ``devices``/``pinned``/``topology`` pool options apply only to the
    GPU-backed named specs — passing them with a CPU spec or a custom
    callable is an error (silently ignoring them would misreport the
    experiment's configuration).
    """
    options_requested = devices is not None or pinned or topology is not None
    if spec is None:
        if options_requested:
            raise ValueError(
                "devices/pinned/topology need a GPU-backed evaluator spec "
                "(\"gpu\" or \"multi-gpu\")"
            )
        return EVALUATOR_SPECS["cpu"]
    if isinstance(spec, str):
        try:
            base = EVALUATOR_SPECS[spec]
        except KeyError:
            raise ValueError(
                f"unknown evaluator spec {spec!r}; expected one of {sorted(EVALUATOR_SPECS)}"
            ) from None
        supported = _SPEC_OPTIONS[spec]
        if devices is not None and "devices" not in supported:
            raise ValueError(f"evaluator spec {spec!r} does not take a device count")
        if pinned and "pinned" not in supported:
            raise ValueError(f"evaluator spec {spec!r} does not support pinned memory")
        if topology is not None and "topology" not in supported:
            raise ValueError(
                f"evaluator spec {spec!r} does not take an interconnect topology"
            )
        if not supported or not options_requested:
            return base
        options = {}
        if devices is not None and "devices" in supported:
            options["devices"] = devices
        if "pinned" in supported:
            options["pinned"] = pinned
        if topology is not None and "topology" in supported:
            options["topology"] = topology
        return lambda problem, neighborhood: base(problem, neighborhood, **options)
    if callable(spec):
        if options_requested:
            raise ValueError(
                "devices/pinned/topology apply to named evaluator specs only; "
                "bake them into the custom factory instead"
            )
        return spec
    raise TypeError(f"evaluator spec must be a name, a callable or None, got {type(spec)}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one tabu-search run."""

    trial: int
    fitness: float
    iterations: int
    success: bool
    wall_time: float


@dataclass
class ExperimentRow:
    """One row of a reproduced table (one instance, one neighborhood order)."""

    instance: PPPInstanceSpec
    order: int
    trials: list[TrialRecord] = field(default_factory=list)
    #: Simulated time of one ``full`` step of one solution on the CPU
    #: baseline and on one GPU (:func:`~repro.core.evaluators.full_step_time`).
    cpu_time_per_iteration: float = 0.0
    gpu_time_per_iteration: float = 0.0
    #: Transfer/timeline accounting of the run (populated when the trials
    #: execute on a simulated device).
    transfer_mode: str = "full"
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    #: Device->device bytes routed over peer links (no host round trip);
    #: disjoint from the h2d/d2h counters by construction.
    p2p_bytes: int = 0
    #: Kernel launches issued over the whole run (summed across devices).
    #: The persistent mode collapses this to one launch per device per run.
    kernel_launches: int = 0
    #: Overlap-aware elapsed simulated device time: the cross-device
    #: stream-timeline makespan.
    sim_elapsed_s: float = 0.0
    #: Transfer time hidden under concurrent kernel execution.
    overlap_saved_s: float = 0.0
    #: Devices in the pool the trials ran on (1 for single-GPU/CPU).
    num_devices: int = 1
    #: Whether host transfers were staged through pinned memory.
    pinned: bool = False
    #: Total host<->device transfer time summed over the pool.
    transfer_time_s: float = 0.0
    #: What the recorded device work would cost serialized one device after
    #: another (sum of per-device stream busy times).
    serialized_device_s: float = 0.0
    #: Per-device overlap-aware elapsed times (timeline makespans).
    device_elapsed_s: list[float] = field(default_factory=list)
    #: Interconnect topology the pool's transfers were routed over.
    topology: str = "dedicated"
    #: Busy time of the shared host uplink (0 on dedicated fabrics).
    uplink_busy_s: float = 0.0
    #: Total time transfers spent stalled on shared-link arbitration.
    contention_stall_s: float = 0.0

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        return self.instance.label

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def mean_fitness(self) -> float:
        return float(np.mean([t.fitness for t in self.trials])) if self.trials else float("nan")

    @property
    def std_fitness(self) -> float:
        return float(np.std([t.fitness for t in self.trials])) if self.trials else float("nan")

    @property
    def mean_iterations(self) -> float:
        return float(np.mean([t.iterations for t in self.trials])) if self.trials else float("nan")

    @property
    def successes(self) -> int:
        return sum(t.success for t in self.trials)

    @property
    def cpu_time(self) -> float:
        """Modeled CPU time of one average run (paper's "CPU time" column)."""
        return self.cpu_time_per_iteration * self.mean_iterations

    @property
    def gpu_time(self) -> float:
        """Modeled GPU time of one average run (paper's "GPU time" column)."""
        return self.gpu_time_per_iteration * self.mean_iterations

    @property
    def acceleration(self) -> float:
        """CPU / GPU acceleration factor (paper's "Acceleration" column)."""
        return self.cpu_time / self.gpu_time if self.gpu_time else float("inf")

    @property
    def cross_device_overlap_s(self) -> float:
        """Simulated time saved by running the devices concurrently."""
        return max(0.0, self.serialized_device_s - self.sim_elapsed_s)

    @property
    def uplink_utilization(self) -> float:
        """Fraction of the elapsed makespan the shared host uplink was busy."""
        if self.sim_elapsed_s <= 0.0:
            return 0.0
        return self.uplink_busy_s / self.sim_elapsed_s

    def as_dict(self) -> dict:
        """Plain-dictionary view (used by the reporting code and the benches)."""
        return {
            "instance": self.label,
            "order": self.order,
            "trials": self.num_trials,
            "fitness_mean": self.mean_fitness,
            "fitness_std": self.std_fitness,
            "iterations_mean": self.mean_iterations,
            "successes": self.successes,
            "cpu_time_s": self.cpu_time,
            "gpu_time_s": self.gpu_time,
            "acceleration": self.acceleration,
            "transfer_mode": self.transfer_mode,
            "h2d_bytes": self.h2d_bytes,
            "d2h_bytes": self.d2h_bytes,
            "p2p_bytes": self.p2p_bytes,
            "kernel_launches": self.kernel_launches,
            "sim_elapsed_s": self.sim_elapsed_s,
            "overlap_saved_s": self.overlap_saved_s,
            "num_devices": self.num_devices,
            "pinned": self.pinned,
            "transfer_time_s": self.transfer_time_s,
            "serialized_device_s": self.serialized_device_s,
            "cross_device_overlap_s": self.cross_device_overlap_s,
            "device_elapsed_s": list(self.device_elapsed_s),
            "topology": self.topology,
            "uplink_busy_s": self.uplink_busy_s,
            "uplink_utilization": self.uplink_utilization,
            "contention_stall_s": self.contention_stall_s,
        }


def _collect_transfer_stats(evaluator, row: ExperimentRow) -> None:
    """Fill the row's transfer/timeline columns from a device-backed evaluator."""
    pool = getattr(evaluator, "pool", None)
    if pool is None:
        return
    contexts = pool.contexts
    row.h2d_bytes = sum(ctx.stats.h2d_bytes for ctx in contexts)
    row.d2h_bytes = sum(ctx.stats.d2h_bytes for ctx in contexts)
    row.p2p_bytes = sum(ctx.stats.p2p_bytes for ctx in contexts)
    row.kernel_launches = sum(ctx.stats.kernel_launches for ctx in contexts)
    # Concurrent devices: the elapsed makespan is the slowest device's.
    row.sim_elapsed_s = max(ctx.timeline.elapsed for ctx in contexts)
    row.overlap_saved_s = sum(ctx.timeline.overlap_saved for ctx in contexts)
    row.num_devices = len(contexts)
    row.pinned = any(ctx.pinned for ctx in contexts)
    row.transfer_time_s = sum(ctx.stats.transfer_time for ctx in contexts)
    row.serialized_device_s = sum(ctx.timeline.busy_time for ctx in contexts)
    row.device_elapsed_s = [ctx.timeline.elapsed for ctx in contexts]
    row.topology = pool.engine.topology.name
    row.uplink_busy_s = pool.engine.uplink_busy()
    row.contention_stall_s = pool.engine.total_stall


def run_ppp_experiment(
    spec: PPPInstanceSpec | tuple[int, int],
    order: int,
    *,
    trials: int,
    max_iterations: int,
    tenure: int | None = None,
    evaluator_factory=None,
    base_seed: int | None = None,
    transfer_mode: str = "full",
    devices: int | None = None,
    pinned: bool = False,
    topology: str | None = None,
    fault_plan: str | None = None,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    restore=None,
) -> ExperimentRow:
    """Run the paper's tabu-search protocol on one instance and one neighborhood.

    The independent trials advance in lockstep through one
    :class:`~repro.localsearch.multistart.MultiStartRunner` over one
    evaluator: one batched ``(S, n) -> (S, M)`` evaluation per iteration.
    A standalone :class:`~repro.localsearch.tabu.TabuSearch` is a one-row
    run of the same runner, so each trial's record equals that of a
    standalone search with the same seed.

    Parameters
    ----------
    spec:
        Instance dimensions ``(m, n)``.
    order:
        Hamming order of the neighborhood (1, 2 or 3 in the paper).
    trials:
        Number of independent runs (the paper uses 50).
    max_iterations:
        Iteration cap per run (the paper uses ``n(n-1)(n-2)/6``).
    tenure:
        Tabu tenure; defaults to the paper's ``|N| / 6`` rule.
    evaluator_factory:
        Either a named evaluator spec (one of :data:`EVALUATOR_SPECS`:
        ``"cpu"``, ``"sequential"``, ``"gpu"``, ``"multi-gpu"``) or a
        callable ``(problem, neighborhood) -> NeighborhoodEvaluator``;
        defaults to the vectorized CPU evaluator (all evaluators are
        functionally identical, so the choice only affects wall-clock
        time).
    base_seed:
        Base RNG seed; each trial uses a distinct derived seed.
    transfer_mode:
        One of :data:`TRANSFER_MODES` (``"full"``, ``"delta"``,
        ``"reduced"``, ``"persistent"``): how candidate data moves between
        host and device each iteration — ``"persistent"`` runs every search
        as a single persistent launch whose loop lives on-device.  The
        non-default modes need a device-backed evaluator (``"gpu"`` /
        ``"multi-gpu"``); per-trial records are bit-identical across all
        modes.
    devices:
        Device count of the ``"multi-gpu"`` pool (named specs only).
    pinned:
        Stage host transfers through pinned memory on the GPU-backed
        evaluators (named specs only); the timing model then prices PCIe
        copies with the devices' pinned latency/bandwidth terms.
    topology:
        Interconnect topology preset the GPU-backed evaluators route their
        transfers over (one of
        :data:`~repro.gpu.interconnect.TOPOLOGY_PRESETS`: ``"dedicated"``,
        ``"shared"``, ``"switched"``, ``"nvlink"``).  The default keeps the
        legacy dedicated-link model; the contended fabrics time-share the
        host root complex among concurrent transfers.  Purely a timing
        property — trajectories are identical across topologies.
    fault_plan:
        A fault schedule in the :meth:`repro.gpu.faults.FaultPlan.parse`
        syntax (``kind:arg@iteration``, comma-separated) injected at
        lockstep boundaries.  Device failures/joins and flaky transfers
        change timing and placement only — per-trial records stay
        bit-identical.
    checkpoint_every:
        Write the run's latest checkpoint to ``checkpoint_path`` every this
        many lockstep iterations (see
        :func:`repro.harness.io.save_checkpoint`).
    checkpoint_path:
        Where ``checkpoint_every`` writes its snapshot (required with it).
    restore:
        Path of a checkpoint written by a previous (killed) run; the
        experiment resumes from it instead of starting fresh, and its
        records are bit-identical to an uninterrupted run.
    """
    # Imported lazily: io imports ExperimentRow from this module.
    from .io import load_checkpoint, save_checkpoint

    if not isinstance(spec, PPPInstanceSpec):
        spec = PPPInstanceSpec(*spec)
    if order < 1:
        raise ValueError(f"neighborhood order must be >= 1, got {order}")
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if transfer_mode not in TRANSFER_MODES:
        raise ValueError(
            f"unknown transfer_mode {transfer_mode!r}; expected one of {TRANSFER_MODES}"
        )
    if checkpoint_every is not None and checkpoint_path is None:
        raise ValueError("checkpoint_every requires a checkpoint_path")

    problem = make_table_instance(spec, trial=0)
    neighborhood = KHammingNeighborhood(problem.n, order)

    row = ExperimentRow(
        instance=spec,
        order=order,
        cpu_time_per_iteration=full_step_time(CPUEvaluator(problem, neighborhood)),
        gpu_time_per_iteration=full_step_time(GPUEvaluator(problem, neighborhood)),
        transfer_mode=transfer_mode,
    )
    factory = resolve_evaluator_factory(
        evaluator_factory, devices=devices, pinned=pinned, topology=topology
    )
    evaluator: NeighborhoodEvaluator = factory(problem, neighborhood)
    runner = MultiStartRunner(
        evaluator,
        algorithm="tabu",
        tenure=tenure,
        max_iterations=max_iterations,
        transfer_mode=transfer_mode,
    )
    checkpoint_callback = (
        (lambda checkpoint: save_checkpoint(checkpoint_path, checkpoint))
        if checkpoint_every is not None
        else None
    )
    if restore is not None:
        population = {"resume": load_checkpoint(restore)}
    else:
        population = {
            "seeds": [
                instance_seed(spec.m, spec.n, trial) if base_seed is None else base_seed + trial
                for trial in range(trials)
            ]
        }
    results = runner.run(
        **population,
        checkpoint_every=checkpoint_every,
        checkpoint_callback=checkpoint_callback,
        fault_plan=fault_plan,
    )
    row.trials.extend(
        TrialRecord(
            trial=trial,
            fitness=result.best_fitness,
            iterations=result.iterations,
            success=result.success,
            wall_time=result.wall_time,
        )
        for trial, result in enumerate(results)
    )
    _collect_transfer_stats(evaluator, row)
    return row


def scale_experiment_rows(
    scale: ExperimentScale,
    order: int,
    *,
    evaluator_factory=None,
    transfer_mode: str = "full",
) -> list[ExperimentRow]:
    """Run one table's worth of experiments (every instance of ``scale``)."""
    rows = []
    for spec in scale.table_instances:
        rows.append(
            run_ppp_experiment(
                spec,
                order,
                trials=scale.trials,
                max_iterations=scale.iteration_cap(spec, order),
                evaluator_factory=evaluator_factory,
                transfer_mode=transfer_mode,
            )
        )
    return rows

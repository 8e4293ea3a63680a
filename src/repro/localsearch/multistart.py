"""Lockstep multi-start execution: many independent searches per evaluation.

The paper's experimental protocol runs 50 independent tabu-search trials per
instance; the serial harness replays them one after the other, paying the
per-iteration evaluation overhead (kernel launch, transfers, NumPy dispatch)
once per replica per iteration.  :class:`MultiStartRunner` instead advances
``R`` independent replicas *in lockstep*: each iteration performs exactly one
batched :meth:`~repro.core.evaluators.NeighborhoodEvaluator.evaluate_many`
call over the still-active replicas — on the GPU backend a single
``S x M``-thread launch — and applies a vectorized selection rule per
replica.

Determinism is preserved replica by replica: given the same seed, a replica
follows bit-for-bit the same trajectory as a standalone
:class:`~repro.localsearch.tabu.TabuSearch` (or hill-climbing) run, because
the batched evaluators are functionally identical to the scalar ones and the
selection rules below are exact vectorizations of the scalar policies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..core.evaluators import NeighborhoodEvaluator, _fused_reduce
from ..gpu.dtypes import TABU_NEVER
from ..gpu.faults import FaultEvent, FaultPlan
from ..problems.base import as_solution
from ..problems.incremental import (
    attach_gain_engine,
    create_gain_engine,
    detach_gain_engine,
)
from .base import REDUCED_SELECTION_MODES, check_transfer_mode
from .result import LSResult

__all__ = ["CHECKPOINT_VERSION", "MultiStartResult", "MultiStartRunner"]

#: Version tag written into every runner checkpoint.  Bumped whenever the
#: checkpoint layout changes; :meth:`MultiStartRunner.run` refuses to resume
#: from a different version instead of silently misreading it.
CHECKPOINT_VERSION = 1

#: Sentinel for "move never applied" in the vectorized tabu memory (matches
#: the scalar :class:`~repro.localsearch.tabu.TabuSearch` encoding and the
#: device-resident tabu memory).
_NEVER = TABU_NEVER


@dataclass
class MultiStartResult:
    """Per-replica results of one lockstep multi-start run."""

    #: One :class:`LSResult` per replica, in replica order.
    results: list[LSResult] = field(default_factory=list)
    #: Wall-clock time of the whole batched run.
    wall_time: float = 0.0
    #: Simulated time accumulated by the evaluator over the whole run (the
    #: batched launches are shared by all replicas — this is the elapsed
    #: simulated time of the multi-start, not a per-replica sum).
    simulated_time: float = 0.0
    #: Number of lockstep iterations executed (the longest replica's count).
    iterations: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[LSResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> LSResult:
        return self.results[index]

    @property
    def num_successes(self) -> int:
        return sum(r.success for r in self.results)

    @property
    def best(self) -> LSResult:
        """The replica that found the lowest fitness (ties: lowest index)."""
        if not self.results:
            raise ValueError("empty multi-start result")
        return min(self.results, key=lambda r: r.best_fitness)

    @property
    def best_fitness(self) -> float:
        return self.best.best_fitness

    def summary(self) -> str:
        return (
            f"{len(self.results)} replicas: best fitness {self.best_fitness:g}, "
            f"{self.num_successes} successes, {self.iterations} lockstep iterations"
        )


class MultiStartRunner:
    """Advance ``R`` independent local searches with one batched evaluation per step.

    Parameters
    ----------
    evaluator:
        Neighborhood evaluator (binds problem + neighborhood + platform).
        Any backend works; the GPU backend turns every lockstep iteration
        into a single ``S x M``-thread launch.
    algorithm:
        Vectorized selection rule: ``"tabu"`` (the paper's robust taboo
        search), ``"hill-climbing"`` (steepest descent) or
        ``"first-improvement"``.
    tenure:
        Tabu tenure; defaults to the paper's ``|N| / 6`` rule (floor 1).
    aspiration:
        Classic aspiration criterion for the tabu rule.
    max_iterations:
        Per-replica iteration cap; defaults to the paper's
        ``n(n-1)(n-2)/6``.
    target_fitness:
        A replica stops (reason ``"target_reached"``) once its best fitness
        is at or below this value.
    track_history:
        Record each replica's best fitness after every one of its
        iterations.
    transfer_mode:
        One of :data:`~repro.localsearch.base.TRANSFER_MODES`.  ``"delta"``
        keeps the solution block device-resident and uploads only flipped
        bits; ``"reduced"`` additionally runs the fused on-device reduction
        so only ``(index, fitness)`` pairs come back — 16 bytes per replica
        instead of the whole fitness row; ``"persistent"`` folds the whole
        lockstep loop into a single persistent launch per run (the tabu
        memory lives on-device, the host drains a 16 B/replica result ring
        and writes ``O(S)`` early-stop flags, and the launch overhead is
        paid once).  All need a device-resident evaluator and follow
        bit-identical trajectories to ``"full"``.
    rebalance_every:
        Every this many lockstep iterations, ask a multi-device resident
        evaluator to migrate replicas between devices so the *still-active*
        replicas stay split proportionally to device throughput (replicas
        that stopped early otherwise leave their device underloaded while
        others stay full).  Purely a placement/timing optimization over the
        peer links — trajectories are bit-identical with or without it.
        Ignored for evaluators without a ``rebalance_resident`` method, in
        ``"full"`` mode (nothing is resident) and in ``"persistent"`` mode
        (the launches are pinned to their devices for the whole run).
    """

    ALGORITHMS = ("tabu", "hill-climbing", "first-improvement")

    def __init__(
        self,
        evaluator: NeighborhoodEvaluator,
        *,
        algorithm: str = "tabu",
        tenure: int | None = None,
        aspiration: bool = True,
        max_iterations: int | None = None,
        target_fitness: float = 0.0,
        track_history: bool = False,
        transfer_mode: str = "full",
        rebalance_every: int | None = None,
    ) -> None:
        if algorithm not in self.ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {self.ALGORITHMS}"
            )
        if rebalance_every is not None and rebalance_every <= 0:
            raise ValueError(
                f"rebalance_every must be positive, got {rebalance_every}"
            )
        self.transfer_mode = check_transfer_mode(transfer_mode, evaluator)
        self.evaluator = evaluator
        self.problem = evaluator.problem
        self.neighborhood = evaluator.neighborhood
        self.algorithm = algorithm
        if max_iterations is None:
            n = self.problem.n
            max_iterations = n * (n - 1) * (n - 2) // 6
        if max_iterations < 0:
            raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
        self.max_iterations = int(max_iterations)
        if tenure is None:
            tenure = max(1, self.neighborhood.size // 6)
        if tenure < 0:
            raise ValueError(f"tabu tenure must be non-negative, got {tenure}")
        self.tenure = int(tenure)
        self.aspiration = bool(aspiration)
        self.target_fitness = float(target_fitness)
        self.track_history = bool(track_history)
        self.rebalance_every = rebalance_every

    # ------------------------------------------------------------------
    def _initial_block(
        self,
        replicas: int | None,
        seeds: Sequence[int] | None,
        rng: np.random.Generator | int | None,
        initial_solutions: np.ndarray | None,
    ) -> np.ndarray:
        """Resolve the ``(R, n)`` block of starting points.

        With ``seeds``, replica ``r`` draws its start from
        ``np.random.default_rng(seeds[r])`` exactly like a standalone
        ``search.run(rng=seeds[r])`` — that is what makes the batched
        harness bit-compatible with the serial trial loop.
        """
        if initial_solutions is not None:
            block = np.asarray(initial_solutions, dtype=np.int8)
            if block.ndim != 2 or block.shape[1] != self.problem.n:
                raise ValueError(
                    f"expected an (R, {self.problem.n}) block of initial solutions, "
                    f"got {block.shape}"
                )
            if replicas is not None and replicas != block.shape[0]:
                raise ValueError("replicas does not match the initial solution count")
            return np.stack([as_solution(row, self.problem.n) for row in block])
        if seeds is not None:
            if replicas is not None and replicas != len(seeds):
                raise ValueError("replicas does not match the number of seeds")
            streams = [np.random.default_rng(seed) for seed in seeds]
        else:
            if replicas is None:
                raise ValueError("need replicas, seeds or initial_solutions")
            if replicas <= 0:
                raise ValueError(f"replicas must be positive, got {replicas}")
            streams = np.random.default_rng(rng).spawn(replicas)
        return np.stack([self.problem.random_solution(stream) for stream in streams])

    # ------------------------------------------------------------------
    def _select(
        self,
        fitnesses: np.ndarray,
        current_fitness: np.ndarray,
        best_fitness: np.ndarray,
        iterations: np.ndarray,
        last_applied: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized per-replica move selection.

        Returns ``(indices, selected_fitness, stop_mask)`` over the active
        replicas; ``stop_mask`` marks replicas that hit a local optimum
        (hill-climbing rules only — the tabu rule always moves).  The
        selection core is :func:`~repro.core.evaluators._fused_reduce` —
        the same function the device-resident pipeline fuses into its
        reduction epilogue — so the ``full``/``delta`` host-side paths and
        the ``reduced`` on-device path share one definition and stay
        bit-identical by construction.
        """
        num_active = fitnesses.shape[0]
        rows = np.arange(num_active)
        if self.algorithm == "tabu":
            if self.tenure == 0:
                admissible = np.ones_like(fitnesses, dtype=bool)
            else:
                admissible = (iterations[:, None] - last_applied) > self.tenure
            indices, selected = _fused_reduce(
                fitnesses,
                "argmin",
                admissible,
                best_fitness if self.aspiration else None,
                None,
            )
            # Robust-tabu escape: when every move of a replica is
            # inadmissible, fall back to its oldest tabu move.
            blocked = indices < 0
            if blocked.any():
                indices = np.where(blocked, last_applied.argmin(axis=1), indices)
                selected = np.where(blocked, fitnesses[rows, indices], selected)
            return indices, selected, np.zeros(num_active, dtype=bool)
        if self.algorithm == "hill-climbing":
            indices, selected = _fused_reduce(fitnesses, "argmin", None, None, None)
            return indices, selected, selected >= current_fitness
        # first-improvement
        indices, selected = _fused_reduce(
            fitnesses, "first-improvement", None, None, current_fitness
        )
        stopped = indices < 0
        return np.where(stopped, 0, indices), selected, stopped

    # ------------------------------------------------------------------
    def _select_reduced(
        self,
        active_idx: np.ndarray,
        current_fitness: np.ndarray,
        best_fitness: np.ndarray,
        iterations: np.ndarray,
        last_applied: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reduced transfer path: selection happens inside the fused reduction.

        Device-side semantics exactly mirror :meth:`_select`, so the
        trajectories stay bit-identical; only ``(index, fitness)`` pairs —
        plus, for tabu, the ``O(S)`` iteration stamps of the device-resident
        tabu memory (or the admissibility mask, when the memory is still
        host-side) going up — cross PCIe.
        """
        num_active = active_idx.size
        if self.algorithm == "tabu":
            if last_applied is None:
                # Device-resident tabu memory: the admissibility mask is
                # derived next to the reduction from the resident
                # ``last_applied`` stamps, the robust-tabu escape resolves
                # on-device, and the winning stamps are updated in place.
                indices, fits = self.evaluator.evaluate_resident(
                    active_idx,
                    reduce="argmin",
                    tabu_iterations=iterations,
                    aspiration_fitness=best_fitness if self.aspiration else None,
                )
                return indices, fits, np.zeros(num_active, dtype=bool)
            if self.tenure == 0:
                admissible = np.ones((num_active, self.neighborhood.size), dtype=bool)
            else:
                admissible = (iterations[:, None] - last_applied) > self.tenure
            indices, fits = self.evaluator.evaluate_resident(
                active_idx,
                reduce="argmin",
                admissible=admissible,
                aspiration_fitness=best_fitness if self.aspiration else None,
            )
            blocked = indices < 0
            if blocked.any():
                # Robust-tabu escape: the host falls back to the oldest tabu
                # move and fetches just that move's fitness (8 bytes each).
                indices = np.where(blocked, last_applied.argmin(axis=1), indices)
                fits = fits.copy()
                fits[blocked] = self.evaluator.fetch_fitnesses(
                    active_idx[blocked], indices[blocked]
                )
            return indices, fits, np.zeros(num_active, dtype=bool)
        if self.algorithm == "hill-climbing":
            indices, fits = self.evaluator.evaluate_resident(active_idx, reduce="argmin")
            return indices, fits, fits >= current_fitness
        # first-improvement
        indices, fits = self.evaluator.evaluate_resident(
            active_idx, reduce="first-improvement", thresholds=current_fitness
        )
        stopped = indices < 0
        return np.where(stopped, 0, indices), fits, stopped

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_config(self, replicas: int) -> dict:
        """The runner parameters a checkpoint must match to be resumable."""
        return {
            "problem": self.problem.name,
            "n": self.problem.n,
            "neighborhood": self.neighborhood.size,
            "algorithm": self.algorithm,
            "tenure": self.tenure,
            "aspiration": self.aspiration,
            "max_iterations": self.max_iterations,
            "target_fitness": self.target_fitness,
            "track_history": self.track_history,
            "transfer_mode": self.transfer_mode,
            "replicas": int(replicas),
        }

    def _restore_checkpoint(self, ckpt: dict) -> dict:
        """Validate a checkpoint, restore the evaluator, return loop state.

        The evaluator's :meth:`snapshot_state` is installed as a side
        effect (resident session, tabu stamps, accounting, fleet mask);
        the returned dict holds the runner-side arrays with their exact
        dtypes, ready for :meth:`run` to continue from.
        """
        if not isinstance(ckpt, dict) or ckpt.get("version") != CHECKPOINT_VERSION:
            version = ckpt.get("version") if isinstance(ckpt, dict) else None
            raise ValueError(
                f"unsupported checkpoint version {version!r}; this build writes "
                f"version {CHECKPOINT_VERSION}"
            )
        state = ckpt["state"]
        config = ckpt["config"]
        expected = self._checkpoint_config(len(state["active"]))
        mismatched = [key for key in expected if config.get(key) != expected[key]]
        if mismatched:
            raise ValueError(
                "checkpoint does not match this runner's configuration; "
                f"differing keys: {mismatched}"
            )
        self.evaluator.restore_state(ckpt["evaluator"])
        last = state.get("last_applied")
        return {
            "lockstep": int(ckpt["lockstep"]),
            "current": np.asarray(state["current"], dtype=np.int8),
            "current_fitness": np.asarray(state["current_fitness"], dtype=np.float64),
            "initial_fitness": np.asarray(state["initial_fitness"], dtype=np.float64),
            "best": np.asarray(state["best"], dtype=np.int8),
            "best_fitness": np.asarray(state["best_fitness"], dtype=np.float64),
            "iterations": np.asarray(state["iterations"], dtype=np.int64),
            "evaluations": np.asarray(state["evaluations"], dtype=np.int64),
            "sim_share": np.asarray(state["sim_share"], dtype=np.float64),
            "wall_share": np.asarray(state["wall_share"], dtype=np.float64),
            "active": np.asarray(state["active"], dtype=bool),
            "reasons": np.array([str(r) for r in state["reasons"]], dtype=object),
            "history_steps": [
                (np.asarray(movers, dtype=np.int64), np.asarray(vals, dtype=np.float64))
                for movers, vals in state["history_steps"]
            ],
            "last_applied": (
                np.asarray(last, dtype=np.int64) if last is not None else None
            ),
        }

    # ------------------------------------------------------------------
    def _apply_fault(self, event: FaultEvent) -> None:
        """Apply one :class:`~repro.gpu.faults.FaultEvent` at a lockstep boundary."""
        # Belt and braces: fault recovery may reshuffle replica placement, so
        # drop all derived gain state (it re-derives on the next evaluation;
        # the engine's mirror check would also catch any divergence).
        gain_engine = getattr(self.problem, "_gain_engine", None)
        if gain_engine is not None:
            gain_engine.invalidate_all()
        if event.kind in ("fail", "join"):
            method = getattr(
                self.evaluator,
                "fail_device" if event.kind == "fail" else "join_device",
                None,
            )
            if method is None:
                raise RuntimeError(
                    f"fault {event} needs a multi-device evaluator, got "
                    f"{type(self.evaluator).__name__}"
                )
            method(event.arg)
        else:  # flaky
            engine = getattr(getattr(self.evaluator, "pool", None), "engine", None)
            if engine is None:
                engine = getattr(
                    getattr(self.evaluator, "context", None), "engine", None
                )
            if engine is None:
                raise RuntimeError(
                    f"fault {event} needs a GPU evaluator with a transfer engine, "
                    f"got {type(self.evaluator).__name__}"
                )
            engine.inject_transfer_faults(retries=max(1, event.arg))

    # ------------------------------------------------------------------
    def run(
        self,
        replicas: int | None = None,
        *,
        seeds: Sequence[int] | None = None,
        rng: np.random.Generator | int | None = None,
        initial_solutions: np.ndarray | None = None,
        checkpoint_every: int | None = None,
        checkpoint_callback=None,
        fault_plan: FaultPlan | str | None = None,
        resume: dict | None = None,
    ) -> MultiStartResult:
        """Run all replicas to completion and return their per-replica results.

        ``checkpoint_every`` invokes ``checkpoint_callback(checkpoint)`` every
        that many lockstep iterations with a version-tagged dict capturing the
        full search state (runner arrays + evaluator session/accounting); feed
        it to :func:`repro.harness.io.save_checkpoint` or keep it in memory.
        ``resume`` takes such a checkpoint and continues the run from it — the
        continuation is bit-identical to the uninterrupted run (trajectories,
        byte counters, makespans), assuming the evaluator is freshly
        constructed with the same spec.  ``fault_plan`` (a
        :class:`~repro.gpu.faults.FaultPlan` or its string syntax) injects
        failures at lockstep boundaries; see :mod:`repro.gpu.faults`.
        """
        start_wall = time.perf_counter()
        start_sim = self.evaluator.stats.simulated_time

        if checkpoint_every is not None:
            if checkpoint_every <= 0:
                raise ValueError(
                    f"checkpoint_every must be positive, got {checkpoint_every}"
                )
            if checkpoint_callback is None:
                raise ValueError("checkpoint_every requires a checkpoint_callback")
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        resume_state = None
        if resume is not None:
            if any(
                value is not None
                for value in (replicas, seeds, rng, initial_solutions)
            ):
                raise ValueError(
                    "resume is mutually exclusive with replicas/seeds/rng/"
                    "initial_solutions; the checkpoint carries the population"
                )
            resume_state = self._restore_checkpoint(resume)
            current = resume_state["current"]
        else:
            current = self._initial_block(replicas, seeds, rng, initial_solutions)
        num_replicas = current.shape[0]
        size = self.neighborhood.size
        mapping = self.neighborhood.mapping

        resuming = resume_state is not None
        if resuming:
            current_fitness = resume_state["current_fitness"]
            initial_fitness = resume_state["initial_fitness"]
            best = resume_state["best"]
            best_fitness = resume_state["best_fitness"]
            iterations = resume_state["iterations"]
            evaluations = resume_state["evaluations"]
            sim_share = resume_state["sim_share"]
            wall_share = resume_state["wall_share"]
            active = resume_state["active"]
            reasons = resume_state["reasons"]
            history_steps = resume_state["history_steps"]
        else:
            current_fitness = np.asarray(
                self.problem.evaluate_batch(current), dtype=np.float64
            )
            initial_fitness = current_fitness.copy()
            best = current.copy()
            best_fitness = current_fitness.copy()

            iterations = np.zeros(num_replicas, dtype=np.int64)
            evaluations = np.zeros(num_replicas, dtype=np.int64)
            sim_share = np.zeros(num_replicas, dtype=np.float64)
            wall_share = np.zeros(num_replicas, dtype=np.float64)
            active = np.ones(num_replicas, dtype=bool)
            reasons = np.array(["max_iterations"] * num_replicas, dtype=object)
            # Per-lockstep (movers, best-so-far) snapshots; the per-replica
            # history lists are assembled vectorized after the loop instead of
            # appending row by row inside it.
            history_steps = []

        resident = self.transfer_mode != "full"
        reduced_path = self.transfer_mode in REDUCED_SELECTION_MODES
        # The tabu memory moves device-resident whenever selection happens
        # in the fused reduction and the backend supports it: the host then
        # never materializes (nor uploads) the O(S·M) admissibility data.
        device_tabu = (
            reduced_path
            and self.algorithm == "tabu"
            and hasattr(self.evaluator, "init_tabu_memory")
        )
        if resuming:
            # The evaluator restore already reinstalled the resident session
            # (and tabu memory) exactly as snapshotted — re-running
            # begin_search would re-charge the upload.
            last_applied = resume_state["last_applied"]
        else:
            last_applied = (
                np.full((num_replicas, size), _NEVER, dtype=np.int64)
                if self.algorithm == "tabu" and not device_tabu
                else None
            )
            if resident:
                # The whole (R, n) block crosses PCIe once; afterwards only
                # flipped-bit deltas go up ("persistent" additionally opens the
                # run's single persistent launch).
                self.evaluator.begin_search(
                    current, persistent=self.transfer_mode == "persistent"
                )
                if device_tabu:
                    self.evaluator.init_tabu_memory(self.tenure)

        rebalance = (
            self.rebalance_every
            if resident
            and self.transfer_mode != "persistent"
            and hasattr(self.evaluator, "rebalance_resident")
            else None
        )

        def take_checkpoint() -> dict:
            return {
                "version": CHECKPOINT_VERSION,
                "config": self._checkpoint_config(num_replicas),
                "lockstep": int(lockstep),
                "state": {
                    "current": current.copy(),
                    "current_fitness": current_fitness.copy(),
                    "initial_fitness": initial_fitness.copy(),
                    "best": best.copy(),
                    "best_fitness": best_fitness.copy(),
                    "iterations": iterations.copy(),
                    "evaluations": evaluations.copy(),
                    "sim_share": sim_share.copy(),
                    "wall_share": wall_share.copy(),
                    "active": active.copy(),
                    "reasons": [str(r) for r in reasons],
                    "history_steps": [
                        (movers.copy(), vals.copy())
                        for movers, vals in history_steps
                    ],
                    "last_applied": (
                        last_applied.copy() if last_applied is not None else None
                    ),
                },
                "evaluator": self.evaluator.snapshot_state(),
            }

        lockstep = resume_state["lockstep"] if resuming else 0
        resumed_at = lockstep if resuming else -1
        # Incremental gain cache: the one batched evaluation per lockstep
        # iteration is served from persistent per-replica gain state advanced
        # by the committed moves below; the engine re-derives any replica
        # whose solution changed outside a commit (restarts, faults, resume),
        # so trajectories stay bit-identical to the recompute path.  Gain
        # state is derived data — fresh per run, never checkpointed.
        gain_engine = create_gain_engine(self.problem, rows_hint=num_replicas)
        prev_engine = attach_gain_engine(self.problem, gain_engine)
        try:
            while True:
                # Per-replica stopping checks, in the scalar loop's order:
                # target first, then the iteration cap.
                reached = active & (best_fitness <= self.target_fitness)
                reasons[reached] = "target_reached"
                capped = active & ~reached & (iterations >= self.max_iterations)
                active &= ~(reached | capped)
                if not active.any():
                    break
                # Checkpoint before same-boundary faults: a resumed run re-applies
                # the faults due at the checkpointed lockstep, replaying exactly
                # what the uninterrupted run did after taking the checkpoint.
                if (
                    checkpoint_every
                    and lockstep
                    and lockstep % checkpoint_every == 0
                    and lockstep != resumed_at
                ):
                    checkpoint_callback(take_checkpoint())
                if fault_plan is not None:
                    for event in fault_plan.due(lockstep):
                        self._apply_fault(event)
                if rebalance and lockstep and lockstep % rebalance == 0:
                    # Timing/placement only: keep the still-active replicas split
                    # proportionally to device throughput (trajectories unchanged).
                    self.evaluator.rebalance_resident(active=active)
                    if gain_engine is not None:
                        # Replica placement moved; drop derived gain state and
                        # let it re-derive at the next evaluation.
                        gain_engine.invalidate_all()
                lockstep += 1
                active_idx = np.nonzero(active)[0]

                # One batched evaluation for every still-active replica (the
                # single S x M GPU launch of the solution-parallel engine).
                step_wall = time.perf_counter()
                step_sim = self.evaluator.stats.simulated_time
                if gain_engine is not None:
                    gain_engine.expect(active_idx)
                sub_last = last_applied[active_idx] if last_applied is not None else None
                if reduced_path:
                    indices, selected_fitness, optima = self._select_reduced(
                        active_idx,
                        current_fitness[active_idx],
                        best_fitness[active_idx],
                        iterations[active_idx],
                        sub_last,
                    )
                else:
                    if resident:
                        fitnesses = self.evaluator.evaluate_resident(active_idx)
                    else:
                        fitnesses = self.evaluator.evaluate_many(current[active_idx])
                    indices, selected_fitness, optima = self._select(
                        fitnesses,
                        current_fitness[active_idx],
                        best_fitness[active_idx],
                        iterations[active_idx],
                        sub_last,
                    )
                sim_share[active_idx] += (
                    self.evaluator.stats.simulated_time - step_sim
                ) / active_idx.size
                evaluations[active_idx] += size
                if optima.any():
                    stopped = active_idx[optima]
                    reasons[stopped] = "local_optimum"
                    active[stopped] = False

                movers = active_idx[~optima]
                if movers.size:
                    move_idx = indices[~optima]
                    moves = mapping.from_flat_batch(move_idx)
                    current[movers[:, None], moves] ^= 1
                    if gain_engine is not None:
                        gain_engine.commit(movers, moves)
                    if resident:
                        # Delta packet: one (replica, bit) pair per flipped bit
                        # (free inside a persistent launch — the resident grid
                        # scattered its own selection).
                        self.evaluator.apply_deltas(
                            np.repeat(movers, moves.shape[1]), moves.reshape(-1)
                        )
                    current_fitness[movers] = selected_fitness[~optima]
                    if last_applied is not None:
                        last_applied[movers, move_idx] = iterations[movers]
                    improved = current_fitness[movers] < best_fitness[movers]
                    improved_rows = movers[improved]
                    best[improved_rows] = current[improved_rows]
                    best_fitness[improved_rows] = current_fitness[improved_rows]
                    iterations[movers] += 1
                    if self.track_history:
                        history_steps.append((movers, best_fitness[movers]))
                wall_share[active_idx] += (
                    time.perf_counter() - step_wall
                ) / active_idx.size
        finally:
            detach_gain_engine(self.problem, prev_engine)

        if resident:
            self.evaluator.end_search()

        histories: list[list[float]] = [[] for _ in range(num_replicas)]
        if history_steps:
            # Group the flat (replica, value) stream by replica in one stable
            # sort; within a replica the lockstep order is preserved, so each
            # list matches what per-iteration appends would have produced.
            rows = np.concatenate([movers for movers, _ in history_steps])
            values = np.concatenate([vals for _, vals in history_steps])
            order = np.argsort(rows, kind="stable")
            rows, values = rows[order], values[order]
            bounds = np.searchsorted(rows, np.arange(num_replicas + 1))
            histories = [
                values[bounds[r] : bounds[r + 1]].tolist() for r in range(num_replicas)
            ]

        results = [
            LSResult(
                best_solution=best[r],
                best_fitness=float(best_fitness[r]),
                iterations=int(iterations[r]),
                evaluations=int(evaluations[r]),
                success=self.problem.is_solution(float(best_fitness[r])),
                stopping_reason=str(reasons[r]),
                simulated_time=float(sim_share[r]),
                wall_time=float(wall_share[r]),
                initial_fitness=float(initial_fitness[r]),
                history=histories[r],
            )
            for r in range(num_replicas)
        ]
        return MultiStartResult(
            results=results,
            wall_time=time.perf_counter() - start_wall,
            simulated_time=self.evaluator.stats.simulated_time - start_sim,
            iterations=int(lockstep),
        )

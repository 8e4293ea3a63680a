"""Command-line interface of the reproduction.

``python -m repro <command>`` exposes the main entry points without writing
any code:

* ``tables``   — regenerate Tables I/II/III at a chosen scale;
* ``experiment`` — run the multi-trial tabu protocol on one instance, with a
  choice of trial execution mode (serial / parallel / batched lockstep);
* ``figure8``  — regenerate the Figure 8 acceleration sweep;
* ``solve``    — run one tabu search on a generated PPP instance;
* ``devices``  — list the simulated device presets and their key parameters;
* ``mapping``  — print the thread-id -> move table of a small neighborhood
  (useful to understand the paper's index transformations).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Large neighborhood local search optimization on (simulated) GPUs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="regenerate Tables I/II/III of the paper")
    p_tables.add_argument("--scale", default="smoke", choices=("smoke", "reduced", "paper"))
    p_tables.add_argument("--table", type=int, choices=(1, 2, 3), action="append",
                          help="which table(s); default all")
    p_tables.add_argument("--trial-mode", default="serial",
                          choices=("serial", "parallel", "batched"),
                          help="how the independent trials are executed")
    p_tables.add_argument("--jobs", type=int, default=1,
                          help="worker processes for --trial-mode parallel")

    p_exp = sub.add_parser(
        "experiment",
        help="run the paper's multi-trial tabu protocol on one generated PPP instance",
    )
    p_exp.add_argument("--m", type=int, default=25, help="constraints (rows of A)")
    p_exp.add_argument("--n", type=int, default=25, help="secret length (columns of A)")
    p_exp.add_argument("--k", type=int, default=1, choices=(1, 2, 3), help="Hamming order")
    p_exp.add_argument("--trials", type=int, default=50, help="independent runs (paper: 50)")
    p_exp.add_argument("--iterations", type=int, default=None,
                       help="iteration cap per trial (default: the paper's n(n-1)(n-2)/6)")
    p_exp.add_argument("--trial-mode", default="batched",
                       choices=("serial", "parallel", "batched"),
                       help="serial loop, worker processes, or the lockstep batched engine")
    p_exp.add_argument("--evaluator", default="cpu",
                       choices=("cpu", "sequential", "gpu", "multi-gpu"),
                       help="named evaluator spec used to run the trials")
    p_exp.add_argument("--transfer-mode", default="full",
                       choices=("full", "delta", "reduced", "persistent"),
                       help="host<->device transfer strategy: re-upload everything, "
                            "device-resident with flipped-bit deltas, deltas plus the "
                            "fused on-device reduction, or one persistent launch per "
                            "run with the whole loop on-device (GPU evaluators only)")
    p_exp.add_argument("--devices", type=int, default=None,
                       help="device count of the multi-gpu pool "
                            "(only with --evaluator multi-gpu)")
    p_exp.add_argument("--pinned", action=argparse.BooleanOptionalAction, default=False,
                       help="stage host transfers through pinned (page-locked) "
                            "memory on the GPU evaluators; --no-pinned keeps the "
                            "pageable model (the default)")
    p_exp.add_argument("--topology", default=None,
                       choices=("dedicated", "shared", "switched", "nvlink"),
                       help="interconnect topology the GPU transfers are routed "
                            "over: private per-device links (dedicated, the "
                            "default), a shared host root-complex uplink, a PCIe "
                            "switch, or an NVLink-style peer mesh")
    p_exp.add_argument("--jobs", type=int, default=1,
                       help="worker processes for --trial-mode parallel")
    p_exp.add_argument("--fault-plan", default=None, metavar="PLAN",
                       help="inject faults at lockstep boundaries (--trial-mode "
                            "batched only): comma-separated kind:arg@iteration "
                            "terms with kind one of fail/join/flaky, "
                            "e.g. 'flaky:2@5,fail:1@40,join:1@80'; timing-only — "
                            "per-trial records stay bit-identical")
    p_exp.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                       help="write the latest search checkpoint every N lockstep "
                            "iterations (--trial-mode batched only; needs "
                            "--checkpoint-path)")
    p_exp.add_argument("--checkpoint-path", default=None, metavar="FILE",
                       help="where --checkpoint-every writes its JSON snapshot")
    p_exp.add_argument("--restore", default=None, metavar="FILE",
                       help="resume from a checkpoint written by a previous run "
                            "(--trial-mode batched only); the finished run is "
                            "bit-identical to an uninterrupted one")

    p_fig = sub.add_parser("figure8", help="regenerate Figure 8 (acceleration vs instance size)")
    p_fig.add_argument("--scale", default="smoke", choices=("smoke", "reduced", "paper"))
    p_fig.add_argument("--points", type=int, default=None, help="first N instance sizes only")

    p_solve = sub.add_parser("solve", help="run one tabu search on a generated PPP instance")
    p_solve.add_argument("--m", type=int, default=73, help="constraints (rows of A)")
    p_solve.add_argument("--n", type=int, default=73, help="secret length (columns of A)")
    p_solve.add_argument("--k", type=int, default=2, choices=(1, 2, 3), help="Hamming order")
    p_solve.add_argument("--iterations", type=int, default=500, help="iteration cap")
    p_solve.add_argument("--platform", default="gpu", choices=("cpu", "gpu", "multi-gpu"),
                         help="which evaluator to use")
    p_solve.add_argument("--devices", type=int, default=2, help="device count for multi-gpu")
    p_solve.add_argument("--seed", type=int, default=0, help="instance and search seed")
    p_solve.add_argument("--texture", action="store_true",
                         help="bind the instance matrix to texture memory (GPU platforms)")
    p_solve.add_argument("--transfer-mode", default="full",
                         choices=("full", "delta", "reduced", "persistent"),
                         help="host<->device transfer strategy (GPU platforms); "
                              "\"persistent\" runs the whole search in one launch")
    p_solve.add_argument("--pinned", action=argparse.BooleanOptionalAction, default=False,
                         help="stage host transfers through pinned memory "
                              "(GPU platforms)")
    p_solve.add_argument("--topology", default=None,
                         choices=("dedicated", "shared", "switched", "nvlink"),
                         help="interconnect topology for the GPU platforms "
                              "(see the devices command for the link layout)")

    p_serve = sub.add_parser(
        "serve",
        help="replay a solve-job arrival trace through the continuous-batching "
             "solve server and print the latency/goodput table",
    )
    p_serve.add_argument("--trace", default=None, metavar="FILE",
                         help="workload JSON written by repro.service.save_trace; "
                              "omitted: generate an open-loop Poisson trace from "
                              "--trace-jobs/--load/--seed")
    p_serve.add_argument("--devices", type=int, default=4,
                         help="device count of the simulated pool")
    p_serve.add_argument("--topology", default=None,
                         choices=("dedicated", "shared", "switched", "nvlink"),
                         help="interconnect topology the GPU transfers are routed over")
    p_serve.add_argument("--evaluator", default="multi-gpu",
                         choices=("gpu", "multi-gpu"),
                         help="named evaluator spec the batch runs on")
    p_serve.add_argument("--transfer-mode", default="reduced",
                         choices=("full", "delta", "reduced", "persistent"),
                         help="host<->device transfer strategy of the live batch")
    p_serve.add_argument("--capacity", type=int, default=None,
                         help="replica slots in the live batch "
                              "(default: 16 per device, REPRO_SERVICE_CAPACITY "
                              "overrides)")
    p_serve.add_argument("--policy", default="both",
                         choices=("both", "continuous", "drain"),
                         help="continuous tenant packing, the drain-and-refill "
                              "baseline, or both side by side")
    p_serve.add_argument("--m", type=int, default=31, help="constraints (rows of A)")
    p_serve.add_argument("--n", type=int, default=31, help="secret length (columns of A)")
    p_serve.add_argument("--k", type=int, default=1, choices=(1, 2, 3),
                         help="Hamming order of the neighborhood")
    p_serve.add_argument("--trace-jobs", type=int, default=60,
                         help="jobs in the generated trace (without --trace)")
    p_serve.add_argument("--load", type=float, default=1.5,
                         help="offered load of the generated trace as a multiple "
                              "of the batch's calibrated service capacity")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="instance and trace seed")
    p_serve.add_argument("--save-trace", default=None, metavar="FILE",
                         help="also write the (generated or loaded) trace as JSON")

    p_dev = sub.add_parser("devices", help="list the simulated GPU device presets")
    p_dev.add_argument("--topology", default=None,
                       choices=("dedicated", "shared", "switched", "nvlink"),
                       help="additionally print the link layout of this "
                            "interconnect topology over a pool of GTX 280s")
    p_dev.add_argument("--devices", type=int, default=4,
                       help="pool size for the --topology listing (default 4)")

    p_map = sub.add_parser("mapping", help="print the thread-id -> move table of a neighborhood")
    p_map.add_argument("--n", type=int, default=6, help="solution length")
    p_map.add_argument("--k", type=int, default=2, help="Hamming order")
    p_map.add_argument("--limit", type=int, default=30, help="print at most this many rows")

    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_tables(args) -> int:
    from .harness import format_experiment_table, get_scale, table_one, table_three, table_two

    builders = {1: ("I", table_one), 2: ("II", table_two), 3: ("III", table_three)}
    scale = get_scale(args.scale)
    print(f"scale: {scale.name} ({scale.trials} trials per instance, "
          f"{args.trial_mode} trial mode)")
    for index in args.table or [1, 2, 3]:
        numeral, builder = builders[index]
        rows = builder(scale, trial_mode=args.trial_mode, n_jobs=args.jobs)
        print()
        print(format_experiment_table(
            rows,
            title=f"Table {numeral} ({scale.name} scale)",
            include_acceleration=(index != 1),
        ))
    return 0


def _cmd_experiment(args) -> int:
    from .harness import format_bytes, format_time, run_ppp_experiment

    n = args.n
    max_iterations = args.iterations
    if max_iterations is None:
        max_iterations = n * (n - 1) * (n - 2) // 6
    row = run_ppp_experiment(
        (args.m, n),
        args.k,
        trials=args.trials,
        max_iterations=max_iterations,
        evaluator_factory=args.evaluator,
        trial_mode=args.trial_mode,
        n_jobs=args.jobs,
        transfer_mode=args.transfer_mode,
        devices=args.devices,
        pinned=args.pinned,
        topology=args.topology,
        fault_plan=args.fault_plan,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_path,
        restore=args.restore,
    )
    print(f"instance: {args.m} x {n} PPP, {args.k}-Hamming neighborhood, "
          f"{args.trials} trials ({args.trial_mode} mode, {args.evaluator} evaluator, "
          f"{args.transfer_mode} transfers"
          + (", pinned memory" if args.pinned else "")
          + (f", {args.topology} interconnect" if args.topology else "")
          + (f", faults [{args.fault_plan}]" if args.fault_plan else "")
          + (", resumed from checkpoint" if args.restore else "") + ")")
    print(f"fitness: {row.mean_fitness:.2f} +/- {row.std_fitness:.2f}, "
          f"successes: {row.successes}/{row.num_trials}, "
          f"mean iterations: {row.mean_iterations:.1f}")
    print(f"modeled CPU time {format_time(row.cpu_time)}, "
          f"GPU time {format_time(row.gpu_time)} (x{row.acceleration:.1f})")
    total_wall = sum(t.wall_time for t in row.trials)
    print(f"wall time (sum over trials): {format_time(total_wall)}")
    if row.h2d_bytes or row.d2h_bytes:
        print(f"PCIe traffic: {format_bytes(row.h2d_bytes)} up, "
              f"{format_bytes(row.d2h_bytes)} down; {row.kernel_launches} kernel "
              f"launches; simulated device elapsed {format_time(row.sim_elapsed_s)} "
              f"(overlap saved {format_time(row.overlap_saved_s)})")
    if row.num_devices > 1:
        print(f"device pool: {row.num_devices} devices, "
              f"peer-to-peer traffic {format_bytes(row.p2p_bytes)}, "
              f"serialized per-device sum {format_time(row.serialized_device_s)} "
              f"(cross-device overlap saved {format_time(row.cross_device_overlap_s)})")
    if row.topology != "dedicated" or row.contention_stall_s > 0:
        if row.sim_elapsed_s > 0:
            print(f"interconnect: {row.topology} topology, uplink busy "
                  f"{format_time(row.uplink_busy_s)} "
                  f"({row.uplink_utilization:.0%} of elapsed), contention stall "
                  f"{format_time(row.contention_stall_s)}")
        else:
            # Parallel trial mode: the engines live in the worker processes,
            # so no pool-level interconnect accounting was collected.
            print(f"interconnect: {row.topology} topology "
                  f"(per-worker accounting not collected in parallel mode)")
    return 0


def _cmd_figure8(args) -> int:
    from .harness import figure_eight, format_figure8_series, get_scale

    scale = get_scale(args.scale)
    points = figure_eight(scale, max_points=args.points)
    print(format_figure8_series(points, title=f"Figure 8 ({scale.name} scale)"))
    return 0


def _cmd_solve(args) -> int:
    from .core import CPUEvaluator, GPUEvaluator, MultiGPUEvaluator, iteration_times
    from .harness import format_time
    from .localsearch import TabuSearch
    from .neighborhoods import KHammingNeighborhood
    from .problems import PermutedPerceptronProblem

    problem = PermutedPerceptronProblem.generate(args.m, args.n, rng=args.seed)
    neighborhood = KHammingNeighborhood(problem.n, args.k)
    if args.platform == "cpu":
        evaluator = CPUEvaluator(problem, neighborhood)
    elif args.platform == "gpu":
        evaluator = GPUEvaluator(
            problem, neighborhood, use_texture_memory=args.texture,
            pinned=args.pinned, topology=args.topology,
        )
    else:
        evaluator = MultiGPUEvaluator(
            problem, neighborhood, devices=args.devices,
            pinned=args.pinned, topology=args.topology,
        )

    print(f"instance: {args.m} x {args.n} PPP, {args.k}-Hamming neighborhood "
          f"({neighborhood.size} neighbors), platform: {args.platform}, "
          f"{args.transfer_mode} transfers")
    search = TabuSearch(
        evaluator, max_iterations=args.iterations, transfer_mode=args.transfer_mode
    )
    result = search.run(rng=args.seed)
    print(result.summary())
    print(f"simulated {evaluator.platform} time: {format_time(result.simulated_time)}")
    times = iteration_times(problem, neighborhood, use_texture=args.texture)
    print(f"modeled acceleration vs single-core CPU: x{times.speedup:.1f}")
    return 0 if result.success else 1


def _cmd_serve(args) -> int:
    from .harness import format_service_table, resolve_evaluator_factory
    from .neighborhoods import KHammingNeighborhood
    from .problems import PermutedPerceptronProblem
    from .service import (
        SolveServer,
        calibrate_step_time,
        load_trace,
        poisson_trace,
        saturating_rate,
        save_trace,
    )

    m, n, k, seed = args.m, args.n, args.k, args.seed
    jobs = None
    if args.trace:
        meta, jobs = load_trace(args.trace)
        m = int(meta.get("m", m))
        n = int(meta.get("n", n))
        k = int(meta.get("k", k))
        seed = int(meta.get("seed", seed))
    problem = PermutedPerceptronProblem.generate(m, n, rng=seed)
    neighborhood = KHammingNeighborhood(problem.n, k)
    factory = resolve_evaluator_factory(
        args.evaluator,
        devices=args.devices if args.evaluator == "multi-gpu" else None,
        topology=args.topology,
    )
    capacity = args.capacity
    if capacity is None:
        devices = args.devices if args.evaluator == "multi-gpu" else 1
        capacity = 16 * devices

    replicas, budget = (1, 8), (10, 150)
    if jobs is None:
        calibrator = factory(problem, neighborhood)
        step_time = calibrate_step_time(
            calibrator, capacity=capacity, transfer_mode=args.transfer_mode
        )
        calibrator.close()
        mean_work = (sum(replicas) / 2) * (sum(budget) / 2)
        rate = saturating_rate(step_time, capacity, mean_work, load=args.load)
        jobs = poisson_trace(
            args.trace_jobs, rate, rng=seed, replicas=replicas, budget=budget
        )
    if args.save_trace:
        save_trace(
            args.save_trace, jobs, problem={"m": m, "n": n, "k": k, "seed": seed}
        )
    policies = ("continuous", "drain") if args.policy == "both" else (args.policy,)
    print(f"instance: {m} x {n} PPP, {k}-Hamming neighborhood, "
          f"{args.evaluator} evaluator ({args.devices} devices, "
          f"{args.transfer_mode} transfers), capacity {capacity} replica slots, "
          f"{len(jobs)} jobs")
    reports = {}
    for policy in policies:
        evaluator = factory(problem, neighborhood)
        server = SolveServer(
            evaluator,
            capacity=capacity,
            policy=policy,
            transfer_mode=args.transfer_mode,
        )
        reports[policy] = server.run_trace(jobs)
        evaluator.close()
    rows = [
        report.summary_row(load=args.load if args.trace is None else None)
        for report in reports.values()
    ]
    print()
    print(format_service_table(rows, title="Solve server: latency/goodput"))
    if len(reports) == 2 and reports["drain"].goodput > 0:
        ratio = reports["continuous"].goodput / reports["drain"].goodput
        print()
        print(f"continuous-batching goodput: x{ratio:.2f} over drain-and-refill")
    return 0


def _cmd_devices(args) -> int:
    from .gpu import DEVICE_PRESETS, GTX_280, XEON_3GHZ, HostMemoryKind, resolve_topology

    for key, dev in sorted(DEVICE_PRESETS.items()):
        print(f"{key:12s} {dev.name:28s} {dev.multiprocessors:3d} SMs x {dev.cores_per_mp} cores @ "
              f"{dev.clock_hz / 1e9:.2f} GHz, {dev.mem_bandwidth / 1e9:.0f} GB/s, "
              f"{dev.global_mem_bytes // 2**20} MiB")
        p2p = (f"p2p {dev.p2p_bandwidth / 1e9:.1f} GB/s"
               if dev.p2p_capable else "no p2p")
        print(f"{'':12s} PCIe {dev.pcie_bandwidth / 1e9:.1f} GB/s pageable / "
              f"{dev.pcie_pinned_bandwidth / 1e9:.1f} GB/s pinned, {p2p}")
    host = XEON_3GHZ
    print(f"{'host':12s} {host.name:28s} {host.cores} cores @ {host.clock_hz / 1e9:.1f} GHz "
          f"(baseline uses a single core)")
    if getattr(args, "topology", None):
        topo = resolve_topology(args.topology, [GTX_280] * args.devices)
        print()
        print(f"topology {topo.name}: {topo.num_devices} x GTX 280")
        for name in sorted(topo.links):
            link = topo.links[name]
            tags = []
            if link.shared:
                tags.append("shared fabric")
            if link.pageable_bandwidth is not None:
                tags.append(f"pageable cap {link.pageable_bandwidth / 1e9:.1f} GB/s")
            extra = f" ({', '.join(tags)})" if tags else ""
            print(f"  link {name:<18} {link.bandwidth / 1e9:>5.1f} GB/s, "
                  f"{link.latency * 1e6:.1f}us{extra}")
        for key in topo.device_keys:
            route = topo.host_route(key, HostMemoryKind.PAGEABLE)
            hops = " -> ".join(link.name for link in route.links)
            print(f"  host->{key:<6} via {hops}")
    return 0


def _cmd_mapping(args) -> int:
    from .mappings import mapping_for

    mapping = mapping_for(args.n, args.k)
    print(f"{args.k}-Hamming neighborhood of a {args.n}-bit solution: {mapping.size} moves")
    limit = min(args.limit, mapping.size)
    moves = mapping.from_flat_batch(np.arange(limit))
    for flat, move in enumerate(moves):
        print(f"  thread {flat:4d} -> flip bits {tuple(int(v) for v in move)}")
    if limit < mapping.size:
        print(f"  ... ({mapping.size - limit} more)")
    return 0


_COMMANDS = {
    "tables": _cmd_tables,
    "experiment": _cmd_experiment,
    "figure8": _cmd_figure8,
    "solve": _cmd_solve,
    "serve": _cmd_serve,
    "devices": _cmd_devices,
    "mapping": _cmd_mapping,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

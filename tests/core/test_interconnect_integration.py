"""Integration tests of the interconnect engine across the search stack.

The contract the contention model must honour end to end:

* **trajectories are a pure function of the seeds** — the topology choice
  changes timing only, never a fitness or an iteration count;
* **contended makespans dominate dedicated ones** — sharing the host root
  complex can only slow the modeled run down;
* **no transfer path bypasses the engine** — every host-facing byte of
  every transfer mode (uploads, delta packets, reduced downloads,
  persistent ring drains and stop flags, migration round trips) shows up on the uplink, so uplink bytes equal the summed
  h2d/d2h counters exactly.
"""

import numpy as np
import pytest

from repro.core import GPUEvaluator, MultiGPUEvaluator
from repro.gpu import GTX_280, GTX_8800
from repro.harness import format_experiment_table, run_ppp_experiment
from repro.localsearch import TabuSearch
from repro.localsearch.multistart import MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import OneMax
from repro.problems.instances import instance_seed, make_table_instance

TOPOLOGIES = ("dedicated", "shared", "switched", "nvlink")
MODES = ("full", "delta", "reduced", "persistent")


def run_experiment(topology, transfer_mode="reduced", devices=4):
    return run_ppp_experiment(
        (21, 21),
        2,
        trials=4,
        max_iterations=6,
        evaluator_factory="multi-gpu",
        transfer_mode=transfer_mode,
        devices=devices,
        topology=topology,
    )


def records(row):
    return [(t.fitness, t.iterations, t.success) for t in row.trials]


class TestTrajectoryInvariance:
    def test_topology_never_changes_trajectories(self):
        rows = {topo: run_experiment(topo) for topo in TOPOLOGIES}
        reference = records(rows["dedicated"])
        for topo, row in rows.items():
            assert records(row) == reference, f"{topo} diverged"
        # ... but the contended fabrics are slower and account their stalls.
        dedicated = rows["dedicated"]
        assert dedicated.uplink_busy_s == 0.0
        assert dedicated.contention_stall_s == 0.0
        assert dedicated.topology == "dedicated"
        for topo in ("shared", "switched", "nvlink"):
            row = rows[topo]
            assert row.uplink_busy_s > 0.0
            assert row.contention_stall_s > 0.0
            assert row.topology == topo
            assert 0.0 < row.uplink_utilization <= 1.0
        # Same peer fabric, contended host uplink: never faster than the
        # dedicated model.  (nvlink is exempt — its faster peer mesh can
        # outweigh the uplink contention.)
        for topo in ("shared", "switched"):
            assert rows[topo].sim_elapsed_s >= dedicated.sim_elapsed_s

    @pytest.mark.parametrize("transfer_mode", MODES)
    def test_every_transfer_mode_is_topology_invariant(self, transfer_mode):
        contended = run_experiment("shared", transfer_mode=transfer_mode)
        dedicated = run_experiment(None, transfer_mode=transfer_mode)
        assert records(contended) == records(dedicated)
        assert contended.sim_elapsed_s >= dedicated.sim_elapsed_s


class TestUploadContention:
    def test_four_concurrent_replica_uploads_see_a_quarter_of_the_uplink(self):
        # The acceptance scenario: a 4-device resident session uploads its
        # replica slices simultaneously.  On the shared root complex the
        # upload phase must take at least 3x the dedicated-link time (each
        # slice crawls at ~1/4 of the uplink), with identical functional
        # state on the devices.
        problem = OneMax(4096)
        neighborhood = KHammingNeighborhood(problem.n, 1)
        rng = np.random.default_rng(5)
        solutions = rng.integers(0, 2, size=(1024, problem.n)).astype(np.int8)
        phases = {}
        blocks = {}
        for topology in ("dedicated", "shared"):
            evaluator = MultiGPUEvaluator(
                problem, neighborhood, devices=4, topology=topology
            )
            evaluator.begin_search(solutions)
            phases[topology] = evaluator.pool.makespan
            blocks[topology] = np.concatenate(
                [slot._resident for _index, slot, _lo, _hi in evaluator._resident_parts()]
            )
            evaluator.close()
        assert phases["shared"] >= 3.0 * phases["dedicated"]
        assert np.array_equal(blocks["shared"], blocks["dedicated"])
        assert np.array_equal(blocks["shared"], solutions)


def uplink_vs_host_counters(evaluator):
    engine = evaluator.pool.engine
    host_bytes = float(
        sum(ctx.stats.h2d_bytes + ctx.stats.d2h_bytes for ctx in evaluator.pool.contexts)
    )
    peer_bytes = float(sum(ctx.stats.p2p_bytes for ctx in evaluator.pool.contexts))
    peer_on_links = sum(
        engine.link_bytes(name)
        for name in engine.topology.links
        if name.startswith(("p2p:", "nvlink:", "switch"))
    )
    return engine.link_bytes(engine.topology.uplink.name), host_bytes, peer_on_links, peer_bytes


class TestNoPathBypassesTheEngine:
    @pytest.mark.parametrize("transfer_mode", MODES)
    def test_uplink_bytes_match_host_counters_exactly(self, transfer_mode):
        # Every host-facing transfer of every mode must cross the uplink:
        # full-mode uploads and fitness downloads, delta packets, reduced
        # result pairs, persistent ring drains and stop flags, robust-tabu
        # fetches.  Peer-routed bytes live on the peer links, never on the
        # uplink.
        problem = make_table_instance((19, 19), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        evaluator = MultiGPUEvaluator(
            problem, neighborhood, devices=3, topology="shared"
        )
        search = TabuSearch(evaluator, max_iterations=5, transfer_mode=transfer_mode)
        search.run(rng=7)
        uplink, host, peer_links, peer_stats = uplink_vs_host_counters(evaluator)
        assert uplink == host
        assert peer_links == peer_stats

    def test_multistart_with_migration_stays_conserved(self):
        problem = make_table_instance((19, 19), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        evaluator = MultiGPUEvaluator(
            problem, neighborhood, devices=3, topology="shared"
        )
        runner = MultiStartRunner(
            evaluator,
            algorithm="tabu",
            max_iterations=6,
            transfer_mode="reduced",
            rebalance_every=2,
        )
        runner.run(seeds=range(9))
        uplink, host, peer_links, peer_stats = uplink_vs_host_counters(evaluator)
        assert uplink == host
        assert peer_links == peer_stats

    def test_host_round_trip_migration_crosses_the_uplink(self):
        # A mixed pool with a peer-incapable G80: migrated rows must take
        # the host round trip, both legs priced on the shared uplink.
        problem = make_table_instance((19, 19), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        evaluator = MultiGPUEvaluator(
            problem,
            neighborhood,
            devices=[GTX_280, GTX_8800],
            topology="shared",
        )
        rng = np.random.default_rng(3)
        solutions = rng.integers(0, 2, size=(12, problem.n)).astype(np.int8)
        evaluator.begin_search(solutions)
        before_uplink = evaluator.pool.engine.link_bytes("uplink")
        # Keep only replicas owned by the first device active: the
        # rebalance must push rows across the host.
        active = np.zeros(12, dtype=bool)
        lo, hi = evaluator._replica_ranges[0]
        active[lo:hi] = True
        migrated = evaluator.rebalance_resident(active=active)
        assert migrated > 0
        assert evaluator.pool.engine.link_bytes("uplink") > before_uplink
        uplink, host, _peer_links, peer_stats = uplink_vs_host_counters(evaluator)
        assert uplink == host
        assert peer_stats == 0.0
        evaluator.close()

    def test_single_gpu_shared_topology_accounts_everything(self):
        problem = make_table_instance((19, 19), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        evaluator = GPUEvaluator(problem, neighborhood, topology="shared")
        search = TabuSearch(evaluator, max_iterations=5, transfer_mode="reduced")
        search.run(rng=7)
        engine = evaluator.context.engine
        ctx = evaluator.context
        assert engine.link_bytes("uplink") == float(ctx.stats.h2d_bytes + ctx.stats.d2h_bytes)


#: (label, transfer_mode, peer_routing): persistent mode scatters its
#: deltas on-device and full mode has no resident session to route, so only
#: reduced mode toggles peer routing.
CONTENTION_CONFIGS = (
    ("full", "full", True),
    ("reduced-no-p2p", "reduced", False),
    ("reduced-p2p", "reduced", True),
    ("persistent", "persistent", True),
)


def contention_run(transfer_mode, peer_routing, topology):
    """The paper protocol at 41x41, 2-Hamming, 12 trials, cap 10, on 4 GPUs."""
    problem = make_table_instance((41, 41), trial=0)
    neighborhood = KHammingNeighborhood(problem.n, 2)
    evaluator = MultiGPUEvaluator(
        problem, neighborhood, devices=4, peer_routing=peer_routing, topology=topology
    )
    runner = MultiStartRunner(
        evaluator, algorithm="tabu", max_iterations=10, transfer_mode=transfer_mode
    )
    results = runner.run(seeds=[instance_seed(41, 41, trial) for trial in range(12)])
    contexts = evaluator.pool.contexts
    engine = evaluator.pool.engine
    run = {
        "records": [(r.best_fitness, r.iterations, r.success) for r in results],
        "makespan": max(ctx.timeline.elapsed for ctx in contexts),
        "host_bytes": sum(ctx.stats.h2d_bytes + ctx.stats.d2h_bytes for ctx in contexts),
        "p2p_bytes": sum(ctx.stats.p2p_bytes for ctx in contexts),
        "uplink_busy": engine.uplink_busy(),
        "uplink_transfers": (
            engine.link_transfers("uplink") if engine.topology.uplink is not None else 0
        ),
    }
    evaluator.close()
    return run


class TestContentionLoss:
    def test_modes_that_keep_bytes_off_the_uplink_lose_least(self):
        runs = {
            (label, topology): contention_run(mode, peer, topology)
            for label, mode, peer in CONTENTION_CONFIGS
            for topology in ("dedicated", "shared")
        }
        reference = runs["full", "dedicated"]["records"]
        loss, host_bytes = {}, {}
        for label, _mode, _peer in CONTENTION_CONFIGS:
            shared, dedicated = runs[label, "shared"], runs[label, "dedicated"]
            assert shared["records"] == dedicated["records"] == reference
            assert shared["makespan"] >= dedicated["makespan"] * (1 - 1e-12)
            assert shared["uplink_busy"] > 0.0
            assert dedicated["uplink_busy"] == 0.0
            loss[label] = shared["makespan"] / dedicated["makespan"]
            host_bytes[label] = shared["host_bytes"]
        assert loss["full"] >= loss["reduced-p2p"]
        assert loss["full"] >= loss["persistent"]
        assert host_bytes["full"] > host_bytes["reduced-no-p2p"] > host_bytes["persistent"]
        # Peer routing swaps per-device slice uploads for one hub packet
        # plus P2P forwards: fewer uplink transactions, bytes on the mesh.
        assert (
            runs["reduced-p2p", "shared"]["uplink_transfers"]
            < runs["reduced-no-p2p", "shared"]["uplink_transfers"]
        )
        assert runs["reduced-p2p", "shared"]["p2p_bytes"] > 0

    def test_protocol_upload_phase_on_the_shared_uplink(self):
        # 65536 replicas of the 41x41 instance uploaded to 4 GPUs at once:
        # each slice sees ~1/4 of the shared root complex.
        problem = make_table_instance((41, 41), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 2)
        rng = np.random.default_rng(0)
        solutions = rng.integers(0, 2, size=(65536, problem.n)).astype(np.int8)
        phases = {}
        for topology in ("dedicated", "shared"):
            evaluator = MultiGPUEvaluator(
                problem, neighborhood, devices=4, topology=topology
            )
            evaluator.begin_search(solutions)
            phases[topology] = evaluator.pool.makespan
            evaluator.close()
        assert phases["shared"] >= 3.0 * phases["dedicated"]


class TestHarnessSurface:
    def test_row_fields_and_table_columns(self):
        row = run_experiment("shared")
        payload = row.as_dict()
        assert payload["topology"] == "shared"
        assert payload["uplink_busy_s"] > 0.0
        assert payload["contention_stall_s"] > 0.0
        assert payload["uplink_utilization"] == pytest.approx(
            row.uplink_busy_s / row.sim_elapsed_s
        )
        table = format_experiment_table([row])
        assert "Topology" in table and "Uplink busy" in table
        assert "Contention stall" in table and "shared" in table
        # Dedicated rows keep the legacy layout unless asked.
        legacy = run_experiment(None)
        legacy_table = format_experiment_table([legacy])
        assert "Uplink busy" not in legacy_table
        forced = format_experiment_table([legacy], include_interconnect=True)
        assert "Uplink busy" in forced

    def test_topology_option_requires_gpu_spec(self):
        with pytest.raises(ValueError, match="topology"):
            run_ppp_experiment(
                (15, 15), 1, trials=1, max_iterations=2,
                evaluator_factory="cpu", topology="shared",
            )

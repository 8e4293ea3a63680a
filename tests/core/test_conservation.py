"""Conservation: the device timelines and the ``DeviceStats`` counters agree.

Every simulated operation is counted once in its context's ``DeviceStats``
and recorded once as an interval on its stream, so, summed over a pool's
contexts, the interval durations of each kind add up to the counter that
prices that kind:

* ``kernel`` and ``reduce`` intervals to ``kernel_time + reduction_time``;
* ``h2d`` and ``d2h`` intervals to ``transfer_time``;
* ``p2p`` intervals to twice ``p2p_time``: a peer copy occupies both
  endpoints' P2P lanes and is counted once, on its sender.

The cells run PPP tabu in every transfer mode on one, two and four devices,
with rebalancing and a device failing and rejoining wherever the mode
allows them.
"""

import math

import pytest

from repro.core.evaluators import MultiGPUEvaluator
from repro.localsearch import MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems.instances import make_table_instance

MODES = ("full", "delta", "reduced", "persistent")


def interval_sums(contexts):
    """Per-kind interval durations, summed over ``contexts``."""
    sums = {}
    for ctx in contexts:
        for interval in ctx.timeline.intervals():
            duration = interval.end - interval.start
            sums[interval.kind] = sums.get(interval.kind, 0.0) + duration
    return sums


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("devices", [1, 2, 4])
@pytest.mark.parametrize("mode", MODES)
def test_interval_durations_add_up_to_the_stats(mode, devices, order):
    problem = make_table_instance((16, 16), trial=0)
    evaluator = MultiGPUEvaluator(
        problem, KHammingNeighborhood(problem.n, order), devices=devices
    )
    # One device can neither fail nor rejoin, and a persistent launch pins
    # its replicas for the whole run (it also skips the rebalances).
    plan = "fail:1@2,join:1@4" if devices > 1 and mode != "persistent" else None
    with evaluator:
        MultiStartRunner(
            evaluator,
            max_iterations=6,
            transfer_mode=mode,
            rebalance_every=2,
            target_fitness=float("-inf"),
        ).run(seeds=[1, 2, 3, 4], fault_plan=plan)
        contexts = evaluator.pool.contexts
        sums = interval_sums(contexts)
        stats = [ctx.stats for ctx in contexts]

    compute = sum(s.kernel_time + s.reduction_time for s in stats)
    assert compute > 0.0
    assert math.isclose(
        sums.get("kernel", 0.0) + sums.get("reduce", 0.0), compute, rel_tol=1e-12
    )
    copies = sum(s.transfer_time for s in stats)
    assert copies > 0.0
    assert math.isclose(sums.get("h2d", 0.0) + sums.get("d2h", 0.0), copies, rel_tol=1e-12)
    peer = sum(s.p2p_time for s in stats)
    assert math.isclose(sums.get("p2p", 0.0), 2.0 * peer, rel_tol=1e-12)
    assert set(sums) <= {"kernel", "reduce", "h2d", "d2h", "p2p"}

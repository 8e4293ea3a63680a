"""Dynamic lockstep core: mid-flight churn never changes any trajectory.

The detached-replica correctness suite: a tenant that joins, runs and
leaves the live batch mid-flight must produce a trajectory bit-identical to
the same seeds/budget run standalone, across all four transfer modes; and
co-resident tenants must never be perturbed by other tenants joining or
leaving.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CPUEvaluator, GPUEvaluator, MultiGPUEvaluator
from repro.localsearch.multistart import MultiStartRunner
from repro.neighborhoods import KHammingNeighborhood
from repro.problems import PermutedPerceptronProblem
from repro.service import CapacityError, ContinuousRunner


@pytest.fixture(scope="module")
def instance():
    problem = PermutedPerceptronProblem.generate(21, 21, rng=7)
    return problem, KHammingNeighborhood(problem.n, 1)


EVALUATORS = {
    "cpu": lambda p, n: CPUEvaluator(p, n),
    "gpu": lambda p, n: GPUEvaluator(p, n),
    "multi-gpu": lambda p, n: MultiGPUEvaluator(p, n, devices=2),
}


def make_runner(instance, evaluator_key, mode, **kwargs):
    problem, neighborhood = instance
    evaluator = EVALUATORS[evaluator_key](problem, neighborhood)
    runner = ContinuousRunner(
        evaluator, transfer_mode=mode, track_history=True, **kwargs
    )
    return evaluator, runner


def standalone(instance, evaluator_key, mode, seeds, budget):
    problem, neighborhood = instance
    evaluator = EVALUATORS[evaluator_key](problem, neighborhood)
    try:
        return MultiStartRunner(
            evaluator,
            max_iterations=budget,
            track_history=True,
            transfer_mode=mode,
        ).run(seeds=seeds)
    finally:
        evaluator.close()


def drain(runner):
    """Step until every slot retired; returns retired slots in order."""
    retired = []
    while runner.num_active:
        retired.extend(runner.step().retired)
    return retired


def assert_result_equal(actual, expected, label=""):
    assert actual.best_fitness == expected.best_fitness, label
    assert actual.iterations == expected.iterations, label
    assert actual.evaluations == expected.evaluations, label
    assert actual.stopping_reason == expected.stopping_reason, label
    assert actual.initial_fitness == expected.initial_fitness, label
    assert actual.history == expected.history, label
    assert np.array_equal(actual.best_solution, expected.best_solution), label


@pytest.mark.parametrize(
    "evaluator_key,mode",
    [
        ("cpu", "full"),
        ("gpu", "full"),
        ("gpu", "delta"),
        ("gpu", "reduced"),
        ("gpu", "persistent"),
        ("multi-gpu", "reduced"),
    ],
)
class TestMidFlightIdentity:
    def test_late_joiner_matches_standalone(self, instance, evaluator_key, mode):
        """A tenant attached into a busy batch follows its standalone path."""
        evaluator, runner = make_runner(instance, evaluator_key, mode, capacity=6)
        with runner:
            first = runner.attach(seeds=[1, 2], budgets=40)
            for _ in range(7):
                runner.step()
            late = runner.attach(seeds=[9], budgets=25)
            drain(runner)
            late_results = runner.detach(late)
            first_results = runner.detach(first)
        evaluator.close()

        solo_late = standalone(instance, evaluator_key, mode, [9], 25)
        assert_result_equal(late_results[0], solo_late[0], f"{mode} late joiner")
        solo_first = standalone(instance, evaluator_key, mode, [1, 2], 40)
        for actual, expected in zip(first_results, solo_first):
            assert_result_equal(actual, expected, f"{mode} first group")

    def test_coresident_tenants_never_perturbed(self, instance, evaluator_key, mode):
        """Tenant A's trajectory is the same with and without B's churn."""
        evaluator, runner = make_runner(instance, evaluator_key, mode, capacity=5)
        with runner:
            alone = runner.attach(seeds=[3, 4], budgets=30)
            drain(runner)
            alone_results = runner.detach(alone)
        evaluator.close()

        evaluator, runner = make_runner(instance, evaluator_key, mode, capacity=5)
        with runner:
            group_a = runner.attach(seeds=[3, 4], budgets=30)
            for _ in range(4):
                runner.step()
            # B joins, finishes early and leaves while A is still running.
            group_b = runner.attach(seeds=[77], budgets=6)
            retired = drain(runner)
            assert retired.index(group_b[0]) < len(retired) - 1
            churned_results = runner.detach(group_a)
            runner.detach(group_b)
        evaluator.close()

        for with_churn, without in zip(churned_results, alone_results):
            assert_result_equal(with_churn, without, f"{mode} co-resident")


@pytest.mark.parametrize(
    "evaluator_key,mode",
    [("gpu", "delta"), ("gpu", "persistent"), ("multi-gpu", "reduced")],
)
def test_suspend_resume_is_bit_identical(instance, evaluator_key, mode):
    """A preempted tenant resumes exactly where it left off."""
    evaluator, runner = make_runner(instance, evaluator_key, mode, capacity=4)
    with runner:
        slots = runner.attach(seeds=[5, 6], budgets=35)
        for _ in range(6):
            runner.step()
        saved = runner.suspend(slots)
        assert runner.num_leased == 0
        # Another tenant churns through the same physical slots meanwhile.
        other = runner.attach(seeds=[50, 51, 52], budgets=8)
        drain(runner)
        runner.detach(other)
        runner.resume(saved)
        drain(runner)
        resumed = runner.detach(np.nonzero(runner.leased)[0])
    evaluator.close()

    solo = standalone(instance, evaluator_key, mode, [5, 6], 35)
    for actual, expected in zip(resumed, solo):
        assert_result_equal(actual, expected, f"{mode} suspend/resume")


def test_rebalance_keeps_identity(instance):
    """Periodic replica migration in the live batch is timing-only."""
    evaluator, runner = make_runner(
        instance, "multi-gpu", "reduced", capacity=6, rebalance_every=3
    )
    with runner:
        slots = runner.attach(seeds=[11, 12, 13, 14], budgets=25)
        for _ in range(5):
            runner.step()
        late = runner.attach(seeds=[15], budgets=15)
        drain(runner)
        late_results = runner.detach(late)
        first_results = runner.detach(slots)
    evaluator.close()
    solo = standalone(instance, "multi-gpu", "reduced", [11, 12, 13, 14], 25)
    for actual, expected in zip(first_results, solo):
        assert_result_equal(actual, expected, "rebalanced group")
    solo_late = standalone(instance, "multi-gpu", "reduced", [15], 15)
    assert_result_equal(late_results[0], solo_late[0], "rebalanced late joiner")


class TestSlotMechanics:
    def test_capacity_error_when_group_does_not_fit(self, instance):
        evaluator, runner = make_runner(instance, "cpu", "full", capacity=3)
        with runner:
            runner.attach(seeds=[1, 2], budgets=5)
            with pytest.raises(CapacityError, match="2 slots"):
                runner.attach(seeds=[3, 4], budgets=5)
            assert runner.free_slots == 1
        evaluator.close()

    def test_slots_are_recycled_after_detach(self, instance):
        evaluator, runner = make_runner(instance, "gpu", "reduced", capacity=2)
        with runner:
            for round_seed in (10, 20, 30):
                slots = runner.attach(seeds=[round_seed, round_seed + 1], budgets=4)
                drain(runner)
                results = runner.detach(slots)
                assert all(r.stopping_reason == "max_iterations" for r in results)
                assert runner.free_slots == 2
        evaluator.close()

    def test_detach_errors(self, instance):
        evaluator, runner = make_runner(instance, "cpu", "full", capacity=2)
        with runner:
            slots = runner.attach(seeds=[1], budgets=50)
            with pytest.raises(RuntimeError, match="still searching"):
                runner.detach(slots)
            with pytest.raises(ValueError, match="not leased"):
                runner.detach([1])
            cancelled = runner.detach(slots, cancel=True)
            assert cancelled[0].stopping_reason == "cancelled"
        evaluator.close()

    def test_zero_budget_job_retires_immediately(self, instance):
        evaluator, runner = make_runner(instance, "cpu", "full", capacity=2)
        with runner:
            slots = runner.attach(seeds=[1], budgets=0)
            report = runner.step()
            assert report.retired == slots.tolist()
            assert not report.evaluated
            result = runner.detach(slots)[0]
            assert result.iterations == 0
            assert result.stopping_reason == "max_iterations"
        evaluator.close()

    def test_target_reached_takes_precedence(self, instance):
        problem, _ = instance
        evaluator, runner = make_runner(instance, "cpu", "full", capacity=2)
        with runner:
            # An unreachable target keeps the budget cap in charge; a trivial
            # target (any fitness) retires at the next boundary as
            # "target_reached" even when the budget is also exhausted.
            slots = runner.attach(seeds=[1], budgets=2, targets=float("inf"))
            drain(runner)
            assert runner.detach(slots)[0].stopping_reason == "target_reached"
        evaluator.close()

    def test_local_optimum_reported(self, instance):
        evaluator, runner = make_runner(
            instance, "cpu", "full", capacity=2, algorithm="hill-climbing"
        )
        with runner:
            slots = runner.attach(seeds=[1, 2], budgets=10_000)
            drain(runner)
            results = runner.detach(slots)
            assert {r.stopping_reason for r in results} == {"local_optimum"}
        evaluator.close()

    def test_open_close_guards(self, instance):
        evaluator, runner = make_runner(instance, "cpu", "full", capacity=2)
        with pytest.raises(RuntimeError, match="not open"):
            runner.step()
        runner.open()
        with pytest.raises(RuntimeError, match="already open"):
            runner.open()
        runner.close()
        runner.close()  # idempotent
        with pytest.raises(RuntimeError, match="not open"):
            runner.attach(seeds=[1], budgets=1)
        evaluator.close()

    def test_capacity_must_be_positive(self, instance):
        problem, neighborhood = instance
        evaluator = CPUEvaluator(problem, neighborhood)
        with pytest.raises(ValueError, match="capacity"):
            ContinuousRunner(evaluator, capacity=0)
        evaluator.close()

    def test_suspend_requires_live_slots(self, instance):
        evaluator, runner = make_runner(instance, "cpu", "full", capacity=2)
        with runner:
            slots = runner.attach(seeds=[1], budgets=0)
            runner.step()
            with pytest.raises(ValueError, match="not actively searching"):
                runner.suspend(slots)
            runner.detach(slots)
        evaluator.close()

    def test_detach_rejects_negative_slot(self, instance):
        evaluator, runner = make_runner(instance, "cpu", "full", capacity=2)
        with runner:
            runner.attach(seeds=[1, 2], budgets=0)
            runner.step()
            with pytest.raises(ValueError, match="slot indices"):
                runner.detach([-1])
            assert runner.num_leased == 2
        evaluator.close()

    def test_detach_rejects_out_of_range_slot(self, instance):
        evaluator, runner = make_runner(instance, "cpu", "full", capacity=2)
        with runner:
            runner.attach(seeds=[1, 2], budgets=0)
            runner.step()
            with pytest.raises(ValueError, match="slot indices"):
                runner.detach([2])
            assert runner.num_leased == 2
        evaluator.close()

    def test_suspend_rejects_repeated_slot(self, instance):
        evaluator, runner = make_runner(instance, "cpu", "full", capacity=2)
        with runner:
            slots = runner.attach(seeds=[1], budgets=10)
            with pytest.raises(ValueError, match="repeated"):
                runner.suspend([slots[0], slots[0]])
            assert runner.num_active == 1
        evaluator.close()

    def test_empty_replica_group_rejected(self, instance):
        problem, _ = instance
        evaluator, runner = make_runner(instance, "cpu", "full", capacity=2)
        with runner:
            with pytest.raises(ValueError, match="at least one replica"):
                runner.attach(seeds=[], budgets=5)
            with pytest.raises(ValueError, match="at least one replica"):
                runner.attach(
                    initial_solutions=np.zeros((0, problem.n), dtype=np.int8),
                    budgets=5,
                )
            assert runner.free_slots == 2
        evaluator.close()

    def test_resume_validates_the_row_state(self, instance):
        evaluator, runner = make_runner(instance, "gpu", "reduced", capacity=2)
        with runner:
            slots = runner.attach(seeds=[1], budgets=10)
            runner.step()
            saved = runner.suspend(slots)
            broken = {
                "current": saved["current"][:, :-1],
                "best": saved["best"] * 2,
                "iterations": saved["iterations"].astype(np.int32),
                "budgets": -saved["budgets"],
                "reasons": ["exploded"],
                "histories": [[1]],
                "tabu_stamps": None,
                "last_applied": saved["tabu_stamps"],
            }
            for key, value in broken.items():
                with pytest.raises(ValueError, match=key):
                    runner.resume(dict(saved, **{key: value}))
            for key in ("current", "wall_share"):
                with pytest.raises(ValueError, match=key):
                    runner.resume({k: v for k, v in saved.items() if k != key})
            assert runner.free_slots == 2
            runner.resume(saved)
            assert runner.num_active == 1
        evaluator.close()

    def test_occupancy_accounting(self, instance):
        evaluator, runner = make_runner(instance, "gpu", "delta", capacity=4)
        with runner:
            runner.attach(seeds=[1, 2], budgets=5)
            report = runner.step()
            assert report.occupancy == pytest.approx(0.5)
            assert runner.mean_occupancy == pytest.approx(0.5)
            assert runner.busy_time > 0.0
        evaluator.close()


# ----------------------------------------------------------------------
# Random interleavings of tenant churn
# ----------------------------------------------------------------------
INTERLEAVINGS = st.lists(
    st.one_of(
        # (attach, replicas, budget, target): -inf never retires on target.
        st.tuples(
            st.just("attach"),
            st.integers(1, 2),
            st.integers(0, 30),
            st.sampled_from([float("-inf"), 0.0]),
        ),
        st.tuples(st.just("step"), st.integers(1, 10)),
        st.tuples(st.sampled_from(["suspend", "resume"]), st.integers(0, 7)),
        st.tuples(st.just("detach"), st.integers(0, 7)),
    ),
    max_size=16,
)

_SOLO_CACHE = {}


def resident_block(evaluator):
    """The device-resident solution block, in global replica order."""
    if isinstance(evaluator, MultiGPUEvaluator):
        return np.concatenate(
            [sub._resident for _index, sub, _lo, _hi in evaluator._resident_parts()]
        )
    return evaluator._resident


@pytest.mark.parametrize(
    "evaluator_key,mode", [("cpu", "full"), ("gpu", "reduced"), ("multi-gpu", "reduced")]
)
@settings(max_examples=25, deadline=None)
@given(ops=INTERLEAVINGS)
def test_random_interleavings_match_standalone(instance, evaluator_key, mode, ops):
    """Any attach/step/suspend/resume/detach schedule leaves every tenant's
    results equal to its standalone run, with ``0 <= occupancy <= 1`` and
    every active slot leased after each operation.  The live rows are
    checked too: a device-resident session mirrors ``runner.current`` on
    every leased slot, and a resumed group gets its device tabu stamps
    back verbatim."""
    evaluator, runner = make_runner(instance, evaluator_key, mode, capacity=4)
    tenants = []
    seeds = iter(range(100, 1000))

    def check(report=None):
        if report is not None:
            assert 0.0 <= report.occupancy <= 1.0
        assert 0.0 <= runner.mean_occupancy <= 1.0
        assert not (runner.active & ~runner.leased).any()
        if mode != "full":
            leased = runner.leased
            assert np.array_equal(resident_block(evaluator)[leased], runner.current[leased])

    def pick(candidates, index):
        return candidates[index % len(candidates)] if candidates else None

    def resume(tenant):
        saved = tenant["saved"]
        tenant["slots"] = runner.resume(saved)
        tenant["saved"] = None
        if saved["tabu_stamps"] is not None:
            assert np.array_equal(
                evaluator.read_tabu_rows(tenant["slots"]), saved["tabu_stamps"]
            )
        check()

    with runner:
        for op, *args in ops:
            if op == "attach":
                count, budget, target = args
                group = [next(seeds) for _ in range(count)]
                if count > runner.free_slots:
                    with pytest.raises(CapacityError):
                        runner.attach(seeds=group, budgets=budget, targets=target)
                    continue
                slots = runner.attach(seeds=group, budgets=budget, targets=target)
                tenants.append({"seeds": group, "budget": budget, "target": target,
                                "slots": slots, "saved": None})
            elif op == "step":
                for _ in range(args[0]):
                    check(runner.step())
            elif op == "suspend":
                tenant = pick(
                    [t for t in tenants
                     if t["slots"] is not None and runner.active[t["slots"]].all()],
                    args[0],
                )
                if tenant is not None:
                    tenant["saved"] = runner.suspend(tenant["slots"])
                    tenant["slots"] = None
            elif op == "resume":
                tenant = pick(
                    [t for t in tenants
                     if t["saved"] is not None and len(t["seeds"]) <= runner.free_slots],
                    args[0],
                )
                if tenant is not None:
                    resume(tenant)
            else:  # detach a tenant whose replicas all retired
                tenant = pick(
                    [t for t in tenants
                     if t["slots"] is not None and not runner.active[t["slots"]].any()],
                    args[0],
                )
                if tenant is not None:
                    tenant["results"] = runner.detach(tenant["slots"])
                    tenant["slots"] = None
            check()
        # Wind down: resume whoever is suspended, drain, harvest everyone.
        while any("results" not in t for t in tenants):
            for tenant in tenants:
                if tenant["saved"] is not None and len(tenant["seeds"]) <= runner.free_slots:
                    resume(tenant)
            while runner.num_active:
                check(runner.step())
            for tenant in tenants:
                if tenant["slots"] is not None:
                    tenant["results"] = runner.detach(tenant["slots"])
                    tenant["slots"] = None
        assert runner.num_leased == 0
    evaluator.close()

    for tenant in tenants:
        key = (evaluator_key, mode, tuple(tenant["seeds"]), tenant["budget"],
               tenant["target"])
        if key not in _SOLO_CACHE:
            solo_evaluator = EVALUATORS[evaluator_key](*instance)
            _SOLO_CACHE[key] = MultiStartRunner(
                solo_evaluator,
                max_iterations=tenant["budget"],
                target_fitness=tenant["target"],
                track_history=True,
                transfer_mode=mode,
            ).run(seeds=tenant["seeds"])
            solo_evaluator.close()
        for actual, expected in zip(tenant["results"], _SOLO_CACHE[key], strict=True):
            assert_result_equal(actual, expected, f"{mode} tenant {tenant['seeds']}")

"""Streams, events and the overlap-aware timeline."""

import numpy as np
import pytest

from repro.core import GPUEvaluator
from repro.gpu import (
    COMPUTE_STREAM,
    COPY_STREAM,
    Event,
    GPUContext,
    Stream,
    Timeline,
    format_timeline,
    timeline_report,
)
from repro.neighborhoods import KHammingNeighborhood
from repro.problems.instances import make_table_instance


class TestStream:
    def test_intervals_are_monotone_and_non_overlapping(self):
        stream = Stream("s")
        for duration in (0.5, 0.25, 1.0, 0.0, 0.125):
            stream.schedule("kernel", "k", duration)
        intervals = stream.intervals
        assert all(iv.end >= iv.start for iv in intervals)
        for earlier, later in zip(intervals, intervals[1:]):
            assert later.start >= earlier.end

    def test_not_before_delays_start(self):
        stream = Stream("s")
        stream.schedule("h2d", "a", 1.0)
        interval = stream.schedule("h2d", "b", 1.0, not_before=5.0)
        assert interval.start == 5.0
        assert stream.cursor == 6.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Stream("s").schedule("kernel", "k", -1.0)

    def test_busy_time_sums_durations(self):
        stream = Stream("s")
        stream.schedule("kernel", "a", 2.0)
        stream.schedule("kernel", "b", 3.0, not_before=10.0)
        assert stream.busy_time == pytest.approx(5.0)


class TestTimeline:
    def test_elapsed_is_makespan_over_streams(self):
        timeline = Timeline()
        timeline.schedule("kernel", "k", 4.0, stream=COMPUTE_STREAM)
        timeline.schedule("h2d", "c", 1.0, stream=COPY_STREAM)
        assert timeline.elapsed == pytest.approx(4.0)
        assert timeline.busy_time == pytest.approx(5.0)
        assert timeline.overlap_saved == pytest.approx(1.0)

    def test_event_orders_across_streams(self):
        timeline = Timeline()
        upload = timeline.schedule("h2d", "upload", 2.0, stream=COPY_STREAM)
        event = Event(stream=COPY_STREAM, time=upload.end)
        interval = timeline.schedule(
            "kernel", "k", 1.0, stream=COMPUTE_STREAM, wait_for=event
        )
        assert interval.start == pytest.approx(2.0)

    def test_transfer_hides_under_kernel(self):
        # The motivating overlap: a copy issued on its own stream while a
        # kernel runs does not extend the makespan.
        timeline = Timeline()
        timeline.schedule("kernel", "k", 10.0, stream=COMPUTE_STREAM)
        timeline.schedule("h2d", "mask", 3.0, stream=COPY_STREAM)
        assert timeline.elapsed == pytest.approx(10.0)
        assert timeline.overlap_saved == pytest.approx(3.0)

    def test_sync_serializes_against_all_streams(self):
        timeline = Timeline()
        timeline.schedule("kernel", "k", 4.0, stream=COMPUTE_STREAM)
        interval = timeline.schedule_sync("h2d", "solution", 1.0)
        assert interval.start == pytest.approx(4.0)

    def test_intervals_sorted_by_start(self):
        timeline = Timeline()
        timeline.schedule("kernel", "k", 2.0, stream=COMPUTE_STREAM)
        timeline.schedule("h2d", "c", 0.5, stream=COPY_STREAM)
        starts = [iv.start for iv in timeline.intervals()]
        assert starts == sorted(starts)


class TestContextTimeline:
    def test_sync_api_matches_serial_stats(self):
        # Null-stream semantics: a purely synchronous workload's timeline
        # makespan equals the serial sum the DeviceStats accumulate.
        problem = make_table_instance((15, 15), trial=0)
        neighborhood = KHammingNeighborhood(problem.n, 1)
        evaluator = GPUEvaluator(problem, neighborhood)
        solution = problem.random_solution(np.random.default_rng(0))
        for _ in range(3):
            evaluator.evaluate(solution)
        context = evaluator.context
        assert context.timeline.elapsed == pytest.approx(context.stats.total_time)
        assert context.timeline.overlap_saved == pytest.approx(0.0)

    def test_async_copy_overlaps_sync_epoch(self):
        context = GPUContext()
        context.to_device("a", np.zeros(1 << 20, dtype=np.float64))
        sync_elapsed = context.timeline.elapsed
        # A copy issued on the copy stream starts at that stream's cursor
        # (zero), so it hides entirely under the already-elapsed epoch.
        context.copy_async("b", np.zeros(16, dtype=np.int32))
        assert context.timeline.elapsed == pytest.approx(sync_elapsed)

    def test_reduce_async_accounted_separately(self):
        context = GPUContext()
        context.reduce_async("argmin", 10_000)
        assert context.stats.reductions == 1
        assert context.stats.reduction_time > 0
        assert context.stats.total_time == pytest.approx(context.stats.reduction_time)

    def test_timeline_report_renders(self):
        context = GPUContext()
        context.to_device("a", np.zeros(8, dtype=np.float64))
        context.copy_async("b", np.zeros(8, dtype=np.int32))
        report = timeline_report(context)
        assert "makespan" in report
        assert COPY_STREAM in report
        assert timeline_report(context.timeline) == format_timeline(
            context.timeline, limit=40
        )

    def test_free_evaluator_buffers_matches_owner_segments(self):
        context = GPUContext()
        context.alloc("fitnesses:123", (4,))
        context.alloc("solutions:123:0", (4,))
        context.alloc("fitnesses:456", (4,))
        context.alloc("prefix123:junk", (4,))
        freed = context.free_evaluator_buffers(123)
        assert freed == 2
        assert set(context.memory.allocations) == {"fitnesses:456", "prefix123:junk"}

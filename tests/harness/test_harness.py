"""Tests for the experiment harness (scales, experiment runner, tables, figures, reporting)."""

import numpy as np
import pytest

from repro.core import CPUEvaluator, GPUEvaluator
from repro.harness import (
    EVALUATOR_SPECS,
    PAPER,
    PAPER_REFERENCE,
    REDUCED,
    SMOKE,
    ExperimentRow,
    figure_eight,
    format_experiment_table,
    format_figure8_series,
    format_time,
    get_scale,
    render_markdown_table,
    resolve_evaluator_factory,
    run_ppp_experiment,
    table_one,
)
from repro.neighborhoods import OneHammingNeighborhood
from repro.problems import OneMax
from repro.problems.instances import PPPInstanceSpec, instance_seed, make_table_instance


class TestScales:
    def test_get_scale_by_name_and_passthrough(self):
        assert get_scale("paper") is PAPER
        assert get_scale("SMOKE") is SMOKE
        assert get_scale(REDUCED) is REDUCED
        with pytest.raises(KeyError):
            get_scale("gigantic")

    def test_paper_scale_matches_protocol(self):
        assert PAPER.trials == 50
        assert [(s.m, s.n) for s in PAPER.table_instances] == [
            (73, 73), (81, 81), (101, 101), (101, 117)]
        # The paper's iteration cap is n(n-1)(n-2)/6 for every neighborhood.
        spec = PPPInstanceSpec(101, 117)
        assert PAPER.iteration_cap(spec, 1) == 260130
        assert PAPER.iteration_cap(spec, 3) == 260130
        assert PAPER.figure8_nominal_iterations == 10_000

    def test_smoke_scale_is_small(self):
        spec = SMOKE.table_instances[0]
        assert SMOKE.trials <= 5
        assert SMOKE.iteration_cap(spec, 3) <= 100


class TestRunExperiment:
    def test_row_aggregates(self):
        row = run_ppp_experiment((25, 25), 1, trials=3, max_iterations=50)
        assert row.num_trials == 3
        assert row.mean_iterations <= 50
        assert 0 <= row.successes <= 3
        assert row.cpu_time > 0 and row.gpu_time > 0
        assert row.acceleration == pytest.approx(row.cpu_time / row.gpu_time)
        d = row.as_dict()
        assert d["instance"] == "25 x 25" and d["order"] == 1

    def test_results_are_deterministic(self):
        a = run_ppp_experiment((25, 25), 2, trials=2, max_iterations=30)
        b = run_ppp_experiment((25, 25), 2, trials=2, max_iterations=30)
        assert a.mean_fitness == b.mean_fitness
        assert a.mean_iterations == b.mean_iterations

    def test_custom_evaluator_factory(self):
        row = run_ppp_experiment(
            (25, 25), 1, trials=1, max_iterations=20,
            evaluator_factory=lambda p, nb: GPUEvaluator(p, nb),
        )
        assert row.num_trials == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            run_ppp_experiment((25, 25), 0, trials=1, max_iterations=10)
        with pytest.raises(ValueError):
            run_ppp_experiment((25, 25), 1, trials=0, max_iterations=10)

    @pytest.mark.parametrize("base_seed", [None, 42])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("spec", ["cpu", "sequential", "gpu", "multi-gpu"])
    def test_records_match_independent_tabu_runs(
        self, spec, order, base_seed, reference_search
    ):
        """The lockstep batch reproduces one plain reference search per seed."""
        trials, max_iterations = 3, 12
        row = run_ppp_experiment(
            (15, 15), order, trials=trials, max_iterations=max_iterations,
            evaluator_factory=spec, base_seed=base_seed,
        )
        expected = []
        for trial in range(trials):
            seed = instance_seed(15, 15, trial) if base_seed is None else base_seed + trial
            result = reference_search(
                lambda: make_table_instance(PPPInstanceSpec(15, 15), trial=0),
                order, "tabu", seed, max_iterations=max_iterations,
            )
            expected.append((trial, result.best_fitness, result.iterations, result.success))
        assert [(t.trial, t.fitness, t.iterations, t.success) for t in row.trials] == expected

    def test_empty_row_statistics_are_nan(self):
        row = ExperimentRow(instance=PPPInstanceSpec(5, 5), order=1)
        assert np.isnan(row.mean_fitness)
        assert np.isnan(row.std_fitness)


class TestEvaluatorSpecs:
    def test_registry_names(self):
        assert set(EVALUATOR_SPECS) == {"cpu", "sequential", "gpu", "multi-gpu"}

    def test_resolve_factory(self):
        problem, neighborhood = OneMax(8), OneHammingNeighborhood(8)
        assert isinstance(resolve_evaluator_factory(None)(problem, neighborhood),
                          CPUEvaluator)
        assert isinstance(resolve_evaluator_factory("gpu")(problem, neighborhood),
                          GPUEvaluator)
        custom = lambda p, nb: CPUEvaluator(p, nb)
        assert resolve_evaluator_factory(custom) is custom
        with pytest.raises(ValueError):
            resolve_evaluator_factory("quantum")
        with pytest.raises(TypeError):
            resolve_evaluator_factory(42)


class TestTables:
    @pytest.fixture(scope="class")
    def smoke_tables(self):
        return {
            "I": table_one("smoke"),
            "III": __import__("repro.harness", fromlist=["table_three"]).table_three("smoke"),
        }

    def test_table_one_has_one_row_per_instance(self, smoke_tables):
        rows = smoke_tables["I"]
        assert len(rows) == len(SMOKE.table_instances)
        assert [r.order for r in rows] == [1] * len(rows)

    def test_larger_neighborhood_finds_more_solutions(self, smoke_tables):
        # The headline qualitative claim of the paper, at smoke scale.
        successes_1 = sum(r.successes for r in smoke_tables["I"])
        successes_3 = sum(r.successes for r in smoke_tables["III"])
        assert successes_3 >= successes_1

    def test_3hamming_accelerations_exceed_1hamming(self, smoke_tables):
        acc1 = np.mean([r.acceleration for r in smoke_tables["I"]])
        acc3 = np.mean([r.acceleration for r in smoke_tables["III"]])
        assert acc3 > acc1

    def test_paper_reference_is_complete(self):
        # 3 tables x 4 instances
        assert len(PAPER_REFERENCE) == 12
        assert PAPER_REFERENCE[("II", "73 x 73")]["acceleration"] == 9.9

    def test_formatting(self, smoke_tables):
        text = format_experiment_table(smoke_tables["I"], title="Table I", include_acceleration=False)
        assert "Table I" in text and "25 x 25" in text and "Acceleration" not in text
        text3 = format_experiment_table(smoke_tables["III"], title="Table III")
        assert "Acceleration" in text3


class TestFigure8:
    @pytest.fixture(scope="class")
    def points(self):
        return figure_eight("smoke", max_points=4)

    @pytest.mark.parametrize("max_points", [0, -1])
    def test_rejects_a_non_positive_point_count(self, max_points):
        with pytest.raises(ValueError, match="max_points must be positive"):
            figure_eight("smoke", max_points=max_points)

    def test_point_metadata(self, points):
        assert len(points) == 4
        assert points[0].label == "101 x 117"
        assert points[0].nominal_iterations == 10_000
        assert all(p.cpu_time > 0 and p.gpu_time > 0 for p in points)
        d = points[0].as_dict()
        assert d["instance"] == "101 x 117"

    def test_acceleration_grows_with_instance_size(self, points):
        accelerations = [p.acceleration for p in points]
        assert accelerations == sorted(accelerations)

    def test_crossover_location_matches_paper(self, points):
        # GPU slower (or about even) on the smallest instance, clearly faster
        # by the third/fourth point — the crossover the paper locates around
        # 201 x 217.
        assert points[0].acceleration < 1.2
        assert points[-1].acceleration > 2.0

    def test_formatting(self, points):
        text = format_figure8_series(points, title="Figure 8")
        assert "Figure 8" in text and "101 x 117" in text


class TestReportingHelpers:
    def test_format_time_ranges(self):
        assert format_time(float("nan")) == "-"
        assert format_time(5e-4).endswith("us")
        assert format_time(0.25).endswith("ms")
        assert format_time(12.0).endswith("s")
        assert format_time(600).endswith("min")
        assert format_time(100_000).endswith("h")

    def test_render_markdown_table(self):
        text = render_markdown_table(["a", "b"], [["1", "2"], ["3", "4"]])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert len(lines) == 4

"""Tests for the LSResult record."""

import numpy as np

from repro.localsearch import LSResult


class TestLSResult:
    def test_summary(self):
        result = LSResult(
            best_solution=np.array([1, 0, 1]),
            best_fitness=2.0,
            iterations=7,
            evaluations=21,
            success=False,
            stopping_reason="max_iterations",
            simulated_time=0.5,
            wall_time=0.01,
            initial_fitness=9.0,
        )
        assert "max_iterations" in result.summary()
        assert result.best_solution.dtype == np.int8

    def test_success_summary(self):
        result = LSResult(
            best_solution=np.zeros(4),
            best_fitness=0.0,
            iterations=3,
            evaluations=12,
            success=True,
            stopping_reason="target_reached",
            simulated_time=0.0,
            wall_time=0.0,
            initial_fitness=4.0,
        )
        assert result.summary().startswith("SUCCESS")

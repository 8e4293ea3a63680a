"""Regeneration of Tables I, II and III of the paper.

Each table reports, for the four literature PPP instances and one
neighborhood order, the mean/std fitness over 50 tabu-search runs, the
average number of iterations, the number of successful tries and the CPU /
GPU execution times (plus, for the 2- and 3-Hamming tables, the acceleration
factor).
"""

from __future__ import annotations

from typing import Sequence

from .config import ExperimentScale, get_scale
from .experiment import ExperimentRow, scale_experiment_rows
from .reporting import format_time, render_markdown_table

__all__ = [
    "table_one",
    "table_two",
    "table_three",
    "format_service_table",
    "PAPER_REFERENCE",
]

#: The paper's published rows, kept for side-by-side comparison in
#: EXPERIMENTS.md and for sanity checks of the reproduced *shape*
#: (who wins, by roughly which factor).  Keys: (table, instance label).
PAPER_REFERENCE = {
    # Table I: 1-Hamming — fitness (mean, std), iterations, successes, cpu s, gpu s
    ("I", "73 x 73"): {"fitness": (10.3, 5.1), "iterations": 59184.1, "successes": 10,
                       "cpu_time_s": 4.0, "gpu_time_s": 9.0},
    ("I", "81 x 81"): {"fitness": (10.8, 5.6), "iterations": 77321.3, "successes": 6,
                       "cpu_time_s": 6.0, "gpu_time_s": 13.0},
    ("I", "101 x 101"): {"fitness": (20.2, 14.1), "iterations": 166650.0, "successes": 0,
                         "cpu_time_s": 16.0, "gpu_time_s": 33.0},
    ("I", "101 x 117"): {"fitness": (16.4, 5.4), "iterations": 260130.0, "successes": 0,
                         "cpu_time_s": 29.0, "gpu_time_s": 57.0},
    # Table II: 2-Hamming — plus acceleration
    ("II", "73 x 73"): {"fitness": (16.4, 17.9), "iterations": 43031.7, "successes": 19,
                        "cpu_time_s": 81.0, "gpu_time_s": 8.0, "acceleration": 9.9},
    ("II", "81 x 81"): {"fitness": (15.5, 16.6), "iterations": 67462.5, "successes": 13,
                        "cpu_time_s": 174.0, "gpu_time_s": 16.0, "acceleration": 11.0},
    ("II", "101 x 101"): {"fitness": (14.2, 14.3), "iterations": 138349.0, "successes": 12,
                          "cpu_time_s": 748.0, "gpu_time_s": 44.0, "acceleration": 17.0},
    ("II", "101 x 117"): {"fitness": (13.8, 10.8), "iterations": 260130.0, "successes": 0,
                          "cpu_time_s": 1947.0, "gpu_time_s": 105.0, "acceleration": 18.5},
    # Table III: 3-Hamming — CPU time is the *expected* (extrapolated) time
    ("III", "73 x 73"): {"fitness": (2.4, 4.3), "iterations": 21360.2, "successes": 35,
                         "cpu_time_s": 1202.0, "gpu_time_s": 50.0, "acceleration": 24.2},
    ("III", "81 x 81"): {"fitness": (3.5, 4.4), "iterations": 43230.7, "successes": 28,
                         "cpu_time_s": 3730.0, "gpu_time_s": 146.0, "acceleration": 25.5},
    ("III", "101 x 101"): {"fitness": (6.2, 5.4), "iterations": 117422.0, "successes": 18,
                           "cpu_time_s": 24657.0, "gpu_time_s": 955.0, "acceleration": 25.8},
    ("III", "101 x 117"): {"fitness": (7.7, 2.7), "iterations": 255337.0, "successes": 1,
                           "cpu_time_s": 88151.0, "gpu_time_s": 3551.0, "acceleration": 24.8},
}


def table_one(scale: str | ExperimentScale = "smoke", **kwargs) -> list[ExperimentRow]:
    """Table I: tabu search with the 1-Hamming-distance neighborhood."""
    return scale_experiment_rows(get_scale(scale), order=1, **kwargs)


def table_two(scale: str | ExperimentScale = "smoke", **kwargs) -> list[ExperimentRow]:
    """Table II: tabu search with the 2-Hamming-distance neighborhood."""
    return scale_experiment_rows(get_scale(scale), order=2, **kwargs)


def table_three(scale: str | ExperimentScale = "smoke", **kwargs) -> list[ExperimentRow]:
    """Table III: tabu search with the 3-Hamming-distance neighborhood."""
    return scale_experiment_rows(get_scale(scale), order=3, **kwargs)


def format_service_table(rows: Sequence[dict], *, title: str | None = None) -> str:
    """Latency/goodput table of the solve server's trace replays.

    Each row is a :meth:`repro.service.ServiceReport.summary_row` dict —
    one per (policy, offered load) replay — rendered as the same markdown
    the other harness tables use.  Goodput is deadline-met completions per
    simulated second; occupancy is the busy-time-weighted mean fraction of
    replica slots evaluating.
    """
    headers = [
        "Policy",
        "Load",
        "Jobs",
        "Done",
        "Rej",
        "Exp",
        "Pre",
        "p50 latency",
        "p99 latency",
        "Goodput",
        "Occupancy",
        "Makespan",
    ]
    body = []
    for row in rows:
        load = row.get("load")
        body.append(
            [
                str(row.get("label", row.get("policy", "?"))),
                "-" if load is None else f"{load:.2f}x",
                str(row["jobs"]),
                str(row["completed"]),
                str(row["rejected"]),
                str(row["expired"]),
                str(row["preempted"]),
                format_time(row["p50"]),
                format_time(row["p99"]),
                f"{row['goodput']:.1f}/s",
                f"{row['occupancy']:.0%}",
                format_time(row["makespan"]),
            ]
        )
    table = render_markdown_table(headers, body)
    if title:
        return f"**{title}**\n\n{table}"
    return table

"""Experiment harness: regenerates every table and figure of the paper's evaluation."""

from .ablations import (
    AblationPoint,
    block_size_ablation,
    cpu_cores_ablation,
    device_ablation,
    multi_gpu_ablation,
    texture_ablation,
)
from .config import PAPER, REDUCED, SMOKE, ExperimentScale, get_scale
from .experiment import (
    EVALUATOR_SPECS,
    TRANSFER_MODES,
    ExperimentRow,
    TrialRecord,
    resolve_evaluator_factory,
    run_ppp_experiment,
    scale_experiment_rows,
)
from .figures import PAPER_FIGURE8_REFERENCE, Figure8Point, figure_eight
from .reporting import (
    format_bytes,
    format_experiment_table,
    format_figure8_series,
    format_time,
    render_markdown_table,
)
from .tables import (
    PAPER_REFERENCE,
    format_service_table,
    table_one,
    table_three,
    table_two,
)

__all__ = [
    "AblationPoint",
    "block_size_ablation",
    "cpu_cores_ablation",
    "device_ablation",
    "multi_gpu_ablation",
    "texture_ablation",
    "ExperimentScale",
    "PAPER",
    "REDUCED",
    "SMOKE",
    "get_scale",
    "ExperimentRow",
    "TrialRecord",
    "run_ppp_experiment",
    "scale_experiment_rows",
    "EVALUATOR_SPECS",
    "TRANSFER_MODES",
    "resolve_evaluator_factory",
    "table_one",
    "table_two",
    "table_three",
    "PAPER_REFERENCE",
    "Figure8Point",
    "figure_eight",
    "PAPER_FIGURE8_REFERENCE",
    "format_bytes",
    "format_experiment_table",
    "format_service_table",
    "format_figure8_series",
    "format_time",
    "render_markdown_table",
]

"""Text reporting of reproduced tables and figures.

The formatting mirrors the layout of the paper's tables so that a
side-by-side comparison with the published numbers is straightforward; the
same renderer feeds EXPERIMENTS.md and the command-line examples.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .experiment import ExperimentRow
from .figures import Figure8Point

__all__ = [
    "format_bytes",
    "format_experiment_table",
    "format_figure8_series",
    "format_time",
    "render_markdown_table",
]


def format_time(seconds: float) -> str:
    """Human-readable duration (the paper prints whole seconds)."""
    if seconds != seconds:  # NaN
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.0f}ms"
    if seconds < 120:
        return f"{seconds:.1f}s"
    if seconds < 7200:
        return f"{seconds / 60:.1f}min"
    return f"{seconds / 3600:.1f}h"


def format_bytes(count: int) -> str:
    """Human-readable byte count (PCIe traffic columns)."""
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - loop always returns


def render_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Render a GitHub-flavoured markdown table."""
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def format_experiment_table(
    rows: Sequence[ExperimentRow],
    *,
    title: str | None = None,
    include_acceleration: bool = True,
    include_transfers: bool | None = None,
    include_devices: bool | None = None,
    include_interconnect: bool | None = None,
) -> str:
    """Format one reproduced table in the paper's column layout.

    ``include_transfers`` appends the device-pipeline columns (transfer
    mode, PCIe traffic, pinned staging, stream-overlap savings);
    ``include_devices`` appends the multi-GPU scheduler columns (pool size,
    peer-routed traffic, cross-device overlap); ``include_interconnect``
    appends the contention columns of the interconnect engine (topology,
    shared-uplink busy time, arbitration stalls).  All default to appearing
    automatically when any row carries the corresponding accounting.
    """
    if include_transfers is None:
        include_transfers = any(row.h2d_bytes or row.d2h_bytes for row in rows)
    if include_devices is None:
        include_devices = any(
            row.num_devices > 1 or row.p2p_bytes for row in rows
        )
    if include_interconnect is None:
        include_interconnect = any(
            row.topology != "dedicated" or row.contention_stall_s > 0.0 for row in rows
        )
    headers = [
        "Problem",
        "Fitness",
        "# iterations",
        "# solutions",
        "CPU time",
        "GPU time",
    ]
    if include_acceleration:
        headers.append("Acceleration")
    if include_transfers:
        headers.extend(["Mode", "Pinned", "H2D", "D2H", "Launches", "Overlap saved"])
    if include_devices:
        headers.extend(["Devices", "P2P", "Device overlap"])
    if include_interconnect:
        headers.extend(["Topology", "Uplink busy", "Contention stall"])
    body = []
    for row in rows:
        cells = [
            row.label,
            f"{row.mean_fitness:.1f} (+/-{row.std_fitness:.1f})",
            f"{row.mean_iterations:.1f}",
            f"{row.successes}/{row.num_trials}",
            format_time(row.cpu_time),
            format_time(row.gpu_time),
        ]
        if include_acceleration:
            cells.append(f"x{row.acceleration:.1f}")
        if include_transfers:
            cells.extend([
                row.transfer_mode,
                "yes" if row.pinned else "no",
                format_bytes(row.h2d_bytes),
                format_bytes(row.d2h_bytes),
                str(row.kernel_launches),
                format_time(row.overlap_saved_s),
            ])
        if include_devices:
            cells.extend([
                str(row.num_devices),
                format_bytes(row.p2p_bytes),
                format_time(row.cross_device_overlap_s),
            ])
        if include_interconnect:
            cells.extend([
                row.topology,
                f"{format_time(row.uplink_busy_s)} ({row.uplink_utilization:.0%})",
                format_time(row.contention_stall_s),
            ])
        body.append(cells)
    table = render_markdown_table(headers, body)
    if title:
        return f"**{title}**\n\n{table}"
    return table


def format_figure8_series(points: Sequence[Figure8Point], *, title: str | None = None) -> str:
    """Format the Figure 8 series (CPU curve, GPU curve, acceleration)."""
    headers = ["Problem size", "CPU time", "GPU time", "Acceleration"]
    body = [
        [p.label, format_time(p.cpu_time), format_time(p.gpu_time), f"x{p.acceleration:.1f}"]
        for p in points
    ]
    table = render_markdown_table(headers, body)
    if title:
        return f"**{title}**\n\n{table}"
    return table

"""Serialization of harness results (JSON round-tripping of rows and figure points).

Long experiment campaigns (the ``paper`` scale in particular) should be able
to checkpoint their results and have EXPERIMENTS.md regenerated without
rerunning anything; these helpers provide the stable on-disk representation.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from ..problems.instances import PPPInstanceSpec
from .experiment import ExperimentRow, TrialRecord
from .figures import Figure8Point

__all__ = [
    "rows_to_json",
    "rows_from_json",
    "save_rows",
    "load_rows",
    "points_to_json",
    "save_figure8",
    "save_checkpoint",
    "load_checkpoint",
]


def rows_to_json(rows: Sequence[ExperimentRow]) -> list[dict]:
    """Convert experiment rows (including per-trial records) to plain dictionaries."""
    out = []
    for row in rows:
        out.append(
            {
                "instance": {"m": row.instance.m, "n": row.instance.n},
                "order": row.order,
                "cpu_time_per_iteration": row.cpu_time_per_iteration,
                "gpu_time_per_iteration": row.gpu_time_per_iteration,
                "trials": [
                    {
                        "trial": t.trial,
                        "fitness": t.fitness,
                        "iterations": t.iterations,
                        "success": bool(t.success),
                        "wall_time": t.wall_time,
                    }
                    for t in row.trials
                ],
            }
        )
    return out


def rows_from_json(payload: Sequence[dict]) -> list[ExperimentRow]:
    """Inverse of :func:`rows_to_json`."""
    rows = []
    for entry in payload:
        row = ExperimentRow(
            instance=PPPInstanceSpec(entry["instance"]["m"], entry["instance"]["n"]),
            order=int(entry["order"]),
            cpu_time_per_iteration=float(entry["cpu_time_per_iteration"]),
            gpu_time_per_iteration=float(entry["gpu_time_per_iteration"]),
        )
        for t in entry["trials"]:
            row.trials.append(
                TrialRecord(
                    trial=int(t["trial"]),
                    fitness=float(t["fitness"]),
                    iterations=int(t["iterations"]),
                    success=bool(t["success"]),
                    wall_time=float(t["wall_time"]),
                )
            )
        rows.append(row)
    return rows


def save_rows(rows: Sequence[ExperimentRow], path: str | Path) -> Path:
    """Write experiment rows to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(rows_to_json(rows), indent=2))
    return path


def load_rows(path: str | Path) -> list[ExperimentRow]:
    """Read experiment rows previously written by :func:`save_rows`."""
    return rows_from_json(json.loads(Path(path).read_text()))


def points_to_json(points: Sequence[Figure8Point]) -> list[dict]:
    """Convert Figure 8 points to plain dictionaries (one-way: for reports)."""
    return [p.as_dict() for p in points]


def save_figure8(points: Sequence[Figure8Point], path: str | Path) -> Path:
    """Write the Figure 8 series to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(points_to_json(points), indent=2))
    return path


# ---------------------------------------------------------------------------
# Runner checkpoints (see repro.localsearch.multistart.CHECKPOINT_VERSION)
# ---------------------------------------------------------------------------
#
# Checkpoints are nested dicts of scalars and numpy arrays.  The codec below
# is lossless: arrays are stored as raw little-ordered bytes (base64) with
# their dtype and shape, so tabu stamps, int8 solution blocks and float64
# accounting all round-trip bit-for-bit; Python floats survive exactly
# because ``json`` emits ``repr``-roundtrippable literals.  Tuples come back
# as lists; the rows are validated field by field (exact dtypes and shapes)
# by ``MultiStartRunner.import_rows`` when the checkpoint is resumed.

_NDARRAY_TAG = "__ndarray__"


def _encode(value):
    if isinstance(value, np.ndarray):
        return {
            _NDARRAY_TAG: {
                "dtype": str(value.dtype),
                "shape": list(value.shape),
                "data": base64.b64encode(np.ascontiguousarray(value).tobytes()).decode(
                    "ascii"
                ),
            }
        }
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


def _decode(value):
    if isinstance(value, dict):
        tagged = value.get(_NDARRAY_TAG)
        if tagged is not None and len(value) == 1:
            raw = base64.b64decode(tagged["data"])
            array = np.frombuffer(raw, dtype=np.dtype(tagged["dtype"]))
            return array.reshape(tuple(tagged["shape"])).copy()
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value


def save_checkpoint(path: str | Path, checkpoint: dict) -> Path:
    """Write a runner checkpoint to ``path`` as self-describing JSON."""
    path = Path(path)
    path.write_text(json.dumps(_encode(checkpoint)))
    return path


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Purely structural: version, config and row validation happen in
    :meth:`repro.localsearch.multistart.MultiStartRunner.run` when the
    checkpoint is fed back through ``resume=``.
    """
    return _decode(json.loads(Path(path).read_text()))

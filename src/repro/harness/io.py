"""Serialization of runner checkpoints to self-describing JSON files."""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint"]


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

"""Tests for the checkpoint codec of ``repro.harness.io``."""

import json

import numpy as np

from repro.harness.io import load_checkpoint, save_checkpoint


def roundtrip(tmp_path, checkpoint):
    path = save_checkpoint(tmp_path / "checkpoint.json", checkpoint)
    return path, load_checkpoint(path)


class TestCheckpointCodec:
    def test_arrays_roundtrip_bit_for_bit(self, tmp_path):
        arrays = {
            "block": np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8),
            "times": np.array([0.1 + 0.2, -0.0, np.inf, np.nan, 5e-324]),
            "stamps": np.array([0, np.iinfo(np.uint64).max], dtype=np.uint64),
            "mask": np.array([True, False, True]),
            "scalar": np.array(7, dtype=np.int32),
            "empty": np.zeros((0, 3), dtype=np.int64),
            "strided": np.arange(12, dtype=np.int16).reshape(3, 4)[:, ::2],
        }
        _, restored = roundtrip(tmp_path, arrays)
        assert restored.keys() == arrays.keys()
        for name, array in arrays.items():
            back = restored[name]
            assert back.dtype == array.dtype and back.shape == array.shape, name
            assert back.tobytes() == np.ascontiguousarray(array).tobytes(), name
            assert back.flags.writeable, name

    def test_scalars_and_sequences_come_back_as_json_values(self, tmp_path):
        checkpoint = {
            "count": np.int64(3),
            "time": np.float64(0.1 + 0.2),
            "done": np.bool_(True),
            "pair": (1, 2.5),
            "rows": [{"fitness": 4}, None],
            "by_index": {0: "a", 1: "b"},
        }
        _, restored = roundtrip(tmp_path, checkpoint)
        assert restored == {
            "count": 3,
            "time": 0.1 + 0.2,
            "done": True,
            "pair": [1, 2.5],
            "rows": [{"fitness": 4}, None],
            "by_index": {"0": "a", "1": "b"},
        }
        assert type(restored["count"]) is int and type(restored["done"]) is bool

    def test_tag_beside_other_keys_stays_a_dict(self, tmp_path):
        checkpoint = {"__ndarray__": {"dtype": "int8"}, "other": 1}
        _, restored = roundtrip(tmp_path, checkpoint)
        assert restored == checkpoint

    def test_file_is_plain_json(self, tmp_path):
        path, _ = roundtrip(tmp_path, {"version": 2, "state": {"x": np.ones(2)}})
        assert path == tmp_path / "checkpoint.json"
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        assert payload["state"]["x"]["__ndarray__"]["shape"] == [2]

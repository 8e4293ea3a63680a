"""Tests for the ablation sweeps."""

from repro.harness import (
    block_size_ablation,
    cpu_cores_ablation,
    device_ablation,
    multi_gpu_ablation,
    texture_ablation,
)


class TestAblations:
    def test_block_size_ablation_covers_requested_sizes(self):
        points = block_size_ablation(order=2, block_sizes=(64, 256))
        assert [p.label for p in points] == ["block=64", "block=256"]
        assert all(p.gpu_time > 0 and p.speedup > 0 for p in points)

    def test_texture_ablation_never_slower(self):
        points = texture_ablation(orders=(1, 2))
        by_label = {p.label: p for p in points}
        assert by_label["1-Hamming/texture"].gpu_time <= by_label["1-Hamming/global"].gpu_time
        assert by_label["2-Hamming/texture"].gpu_time <= by_label["2-Hamming/global"].gpu_time * 1.0001

    def test_device_ablation_orders_generations(self):
        points = device_ablation(order=2)
        by_label = {p.label: p.gpu_time for p in points}
        # The G80-generation card is slower than the GTX 280 for the same kernel.
        assert by_label["NVIDIA 8800 GTX (G80)"] > by_label["NVIDIA GTX 280"]

    def test_multi_gpu_ablation_is_monotone(self):
        points = multi_gpu_ablation(order=3, device_counts=(1, 2, 4))
        times = [p.gpu_time for p in points]
        assert times[0] > times[1] > times[2]

    def test_cpu_cores_ablation_narrows_the_gap(self):
        points = cpu_cores_ablation(order=3, core_counts=(1, 8))
        assert points[0].speedup > points[1].speedup
        # Even an 8-core CPU does not close the 3-Hamming gap in the model.
        assert points[1].speedup > 1.0

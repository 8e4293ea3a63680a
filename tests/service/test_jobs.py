"""Job specs, Poisson traces and the JSON trace round-trip."""

import json

import numpy as np
import pytest

from repro.service import JobSpec, load_trace, poisson_trace, save_trace


class TestJobSpec:
    def test_resolved_seeds_derive_from_base_seed(self):
        spec = JobSpec(job_id="j", arrival=0.0, replicas=3, budget=10, seed=100)
        assert spec.resolved_seeds() == (100, 101, 102)

    def test_explicit_seeds_override_derivation(self):
        spec = JobSpec(
            job_id="j", arrival=0.0, replicas=2, budget=10, seeds=(7, 9)
        )
        assert spec.resolved_seeds() == (7, 9)

    def test_seed_count_must_match_replicas(self):
        with pytest.raises(ValueError, match="seeds"):
            JobSpec(job_id="j", arrival=0.0, replicas=3, budget=10, seeds=(1, 2))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replicas": 0},
            {"budget": -1},
            {"arrival": -0.5},
            {"deadline": 0.0},
            {"arrival": float("nan")},
            {"arrival": float("inf")},
            {"deadline": float("nan")},
            {"deadline": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(job_id="j", arrival=0.0, replicas=1, budget=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            JobSpec(**base)

    def test_dict_round_trip(self):
        spec = JobSpec(
            job_id="j-1",
            arrival=1.5,
            replicas=4,
            budget=30,
            seed=5,
            deadline=2.0,
            priority=2,
            tenant="acme",
            target_fitness=1.0,
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestPoissonTrace:
    def test_deterministic_for_a_seed(self):
        first = poisson_trace(10, 4.0, rng=3)
        second = poisson_trace(10, 4.0, rng=3)
        assert first == second

    def test_arrivals_increase_and_fields_in_range(self):
        jobs = poisson_trace(
            25,
            2.0,
            rng=1,
            replicas=(2, 5),
            budget=(10, 20),
            deadline=(1.0, 3.0),
            priorities=(0, 1, 5),
            tenants=3,
        )
        arrivals = [job.arrival for job in jobs]
        assert arrivals == sorted(arrivals)
        assert all(2 <= job.replicas <= 5 for job in jobs)
        assert all(10 <= job.budget <= 20 for job in jobs)
        assert all(1.0 <= job.deadline <= 3.0 for job in jobs)
        assert {job.priority for job in jobs} <= {0, 1, 5}
        assert {job.tenant for job in jobs} <= {"tenant-0", "tenant-1", "tenant-2"}
        assert len({job.job_id for job in jobs}) == len(jobs)

    def test_mean_interarrival_tracks_rate(self):
        jobs = poisson_trace(4000, 8.0, rng=0)
        gaps = np.diff([0.0] + [job.arrival for job in jobs])
        assert np.mean(gaps) == pytest.approx(1 / 8.0, rel=0.1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="num_jobs"):
            poisson_trace(0, 1.0)
        with pytest.raises(ValueError, match="rate"):
            poisson_trace(5, 0.0)


class TestTraceRoundTrip:
    def test_save_load(self, tmp_path):
        jobs = poisson_trace(8, 3.0, rng=2, deadline=2.5, tenants=2)
        path = tmp_path / "trace.json"
        save_trace(path, jobs, problem={"m": 25, "n": 25, "k": 1, "seed": 0})
        meta, loaded = load_trace(path)
        assert meta == {"m": 25, "n": 25, "k": 1, "seed": 0}
        assert loaded == jobs

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text('{"version": 999, "jobs": []}')
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[]", "JSON object"),
            ('{"version": 1, "jobs": {}}', "'jobs' must be a list"),
            ('{"version": 1}', "'jobs' must be a list"),
            ('{"version": 1, "jobs": [3]}', "job 0 must be an object"),
        ],
    )
    def test_rejects_malformed_payload(self, tmp_path, text, match):
        path = tmp_path / "trace.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_trace(path)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("arrival", None, "job 1 is missing arrival"),
            ("arrival", "NaN", "job 1: arrival"),
            ("arrival", "Infinity", "job 1: arrival"),
            ("deadline", "NaN", "job 1: deadline"),
            ("budget", "ten", "job 1:"),
        ],
    )
    def test_rejects_bad_job_with_its_index(self, tmp_path, field, value, match):
        jobs = [job.to_dict() for job in poisson_trace(3, 2.0, rng=0)]
        if value is None:
            del jobs[1][field]
        else:
            jobs[1][field] = value
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"version": 1, "jobs": jobs}))
        with pytest.raises(ValueError, match=match):
            load_trace(path)

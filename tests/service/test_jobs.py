import pytest

from repro.service.jobs import FactorizationJob, JobStatus


class TestFactorizationJob:
    def test_defaults(self):
        job = FactorizationJob(circuit="example")
        assert job.status is JobStatus.PENDING
        assert job.attempts == 0 and not job.degraded
        for gone in ("deadline", "max_retries", "history", "transition"):
            assert not hasattr(job, gone)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            FactorizationJob(circuit="example", algorithm="quantum")

    def test_resolve_network_by_name(self):
        job = FactorizationJob(circuit="example")
        net = job.resolve_network()
        assert net.literal_count() == 33
        assert job.resolve_network() is net  # memoized

    def test_resolve_unknown_circuit(self):
        from repro.circuits import UnknownCircuitError

        with pytest.raises(UnknownCircuitError):
            FactorizationJob(circuit="nope").resolve_network()

    def test_describe(self):
        job = FactorizationJob(circuit="dalu", algorithm="lshaped", procs=4)
        assert job.describe() == "dalu/lshaped@4p"
        assert FactorizationJob(circuit="dalu").describe() == "dalu/sequential"


import pytest

from repro.network.simulate import random_equivalence_check
from repro.parallel.common import sequential_baseline
from repro.parallel.independent import independent_kernel_extract


class TestIndependent:
    def test_function_preserved(self, small_circuit):
        for p in (2, 4):
            r = independent_kernel_extract(small_circuit, p)
            assert random_equivalence_check(
                small_circuit, r.network, vectors=128, outputs=small_circuit.outputs
            )

    def test_quality_below_sequential(self, small_circuit):
        base = sequential_baseline(small_circuit)
        r = independent_kernel_extract(small_circuit, 4)
        assert r.final_lc >= base.result.final_lc

    def test_quality_degrades_with_partitions(self, small_circuit):
        """Paper Table 3: LC grows (quality drops) as partitions increase."""
        lcs = [
            independent_kernel_extract(small_circuit, p).final_lc
            for p in (1, 2, 6)
        ]
        assert lcs[0] <= lcs[-1]

    def test_speedup_exceeds_replicated_shape(self, small_circuit):
        """Speedup grows with p even on a ~200-literal circuit; the big
        super-linear numbers only appear at benchmark sizes (Table 3)."""
        base = sequential_baseline(small_circuit)
        r2 = independent_kernel_extract(small_circuit, 2)
        r4 = independent_kernel_extract(small_circuit, 4)
        assert base.time / r2.parallel_time > 1.0
        assert base.time / r4.parallel_time > base.time / r2.parallel_time

    def test_parallel_time_decreases_with_procs(self, small_circuit):
        times = [
            independent_kernel_extract(small_circuit, p).parallel_time
            for p in (1, 2, 4)
        ]
        assert times[2] < times[0]

    def test_duplicate_kernel_diagnostic(self, shared_kernel_network):
        r = independent_kernel_extract(shared_kernel_network, 2, seed=0)
        # {P} / {Q} is the only balanced 2-way split; a+b duplicates.
        assert r.details["duplicate_kernels"] >= 1

    def test_random_partitioner(self, small_circuit):
        r = independent_kernel_extract(small_circuit, 3, partitioner="random")
        assert random_equivalence_check(
            small_circuit, r.network, vectors=64, outputs=small_circuit.outputs
        )

    def test_unknown_partitioner(self, small_circuit):
        with pytest.raises(ValueError):
            independent_kernel_extract(small_circuit, 2, partitioner="psychic")

    def test_deterministic(self, small_circuit):
        a = independent_kernel_extract(small_circuit, 3)
        b = independent_kernel_extract(small_circuit, 3)
        assert (a.final_lc, a.parallel_time) == (b.final_lc, b.parallel_time)

    def test_more_procs_than_nodes(self, eq1_network):
        r = independent_kernel_extract(eq1_network, 6)
        assert r.final_lc <= r.initial_lc

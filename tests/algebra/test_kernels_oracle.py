"""The bucketed kernel recursion against the literal scan it replaced.

``kernels()`` buckets each cube under the literals it holds at or above
the recursion's literal index and converts each distinct mask to a cube
once per call.  :mod:`tests.algebra.kernels_reference` keeps the scan
that visited every literal index over every cube.  Both must return the
same kernels in the same order, with the same co-kernels, and charge the
same ``kernel_cube_visit`` amounts in the same sequence; the inputs are
Hypothesis-generated SOPs and every node of the MCNC stand-ins at scale
0.1.

The mutant tests show the comparison catches, on its own, a bucket that
admits literals below the recursion's index and kernels whose cubes are
left in mask order.
"""

from __future__ import annotations

import inspect
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.kernels import kernels
from repro.circuits.mcnc import MCNC_SUITE, make_circuit
from tests.algebra.kernels_reference import reference_kernels


class RecordingMeter:
    """A cost meter that keeps every charge in order."""

    def __init__(self) -> None:
        self.charges = []

    def charge(self, kind: str, amount: float = 1.0) -> None:
        self.charges.append((kind, amount))


def kernel_fields(kernel_fn, f):
    """Each kernel's (expression, co-kernel) in order, and the charges."""
    meter = RecordingMeter()
    ks = kernel_fn(f, meter=meter)
    return [(k.expression, k.cokernel) for k in ks], meter.charges


def assert_same_kernels(f, kernel_fn=kernels) -> None:
    got, got_charges = kernel_fields(kernel_fn, f)
    want, want_charges = kernel_fields(reference_kernels, f)
    assert [e for e, _ in got] == [e for e, _ in want], "kernel expressions differ"
    assert [c for _, c in got] == [c for _, c in want], "co-kernels differ"
    assert got_charges == want_charges, "kernel_cube_visit charges differ"


lits = st.integers(min_value=0, max_value=11)
cubes = st.frozensets(lits, min_size=1, max_size=5).map(lambda s: tuple(sorted(s)))
sops = st.frozensets(cubes, min_size=0, max_size=12).map(lambda s: tuple(sorted(s)))


@settings(max_examples=300, deadline=None)
@given(sops)
def test_random_sops_match_the_scan(f):
    assert_same_kernels(f)


@settings(max_examples=100, deadline=None)
@given(sops, st.frozensets(lits, min_size=1, max_size=3))
def test_sops_with_a_common_cube_match_the_scan(f, common):
    # Every cube carries the common literals: the recursion starts from
    # the cube-free part with a non-empty co-kernel.
    assert_same_kernels(tuple(sorted({tuple(sorted(common.union(c))) for c in f})))


MCNC_NODES = [
    (name, node, f)
    for name in MCNC_SUITE
    for node, f in sorted(make_circuit(name, scale=0.1).nodes.items())
]


def test_every_mcnc_node_at_scale_0_1_matches_the_scan():
    assert len(MCNC_NODES) > 100
    for name, node, f in MCNC_NODES:
        try:
            assert_same_kernels(f)
        except AssertionError as exc:
            raise AssertionError(f"{name}@0.1 node {node}: {exc}") from None


# ----------------------------------------------------------------------
# Mutants the comparison must catch
# ----------------------------------------------------------------------

MUTANTS = {
    # A bucket admits every literal of a cube, below the index too.
    "bucket-below-index": ("        above = -low\n", "        above = -1\n"),
    # A kernel's cubes keep mask order instead of cube order.
    "mask-order-cubes": (
        "Kernel(expression=tuple(sorted(map(to_cube, cube_masks)))",
        "Kernel(expression=tuple(map(to_cube, cube_masks))",
    ),
}


def _mutant(name):
    old, new = MUTANTS[name]
    src = textwrap.dedent(inspect.getsource(kernels))
    assert src.count(old) == 1, f"mutation site for {name!r} not found"
    namespace = dict(vars(inspect.getmodule(kernels)))
    exec(compile(src.replace(old, new), "<mutant>", "exec"), namespace)
    return namespace["kernels"]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_are_caught(name):
    mutant = _mutant(name)
    caught = 0
    for _, _, f in MCNC_NODES:
        try:
            assert_same_kernels(f, kernel_fn=mutant)
        except AssertionError:
            caught += 1
    assert caught, f"mutant {name!r} survived every MCNC node"

"""Property-based tests of the extraction loop's invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.circuits.generators import GeneratorSpec, generate_circuit
from repro.network.simulate import random_equivalence_check
from repro.rectangles.cover import kernel_extract
from repro.rectangles.kcmatrix import build_kc_matrix
from repro.rectangles.rectangle import rectangle_gain
from tests.rectangles.set_walk import set_walk


def tiny_circuit(seed: int, two_level: bool):
    spec = GeneratorSpec(
        name=f"h{seed}",
        seed=seed,
        n_inputs=8,
        target_lc=80,
        two_level=two_level,
        pool_size=4,
        products_per_node=(1, 3),
    )
    return generate_circuit(spec)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), two_level=st.booleans())
def test_extraction_preserves_function(seed, two_level):
    ref = tiny_circuit(seed, two_level)
    net = ref.copy()
    kernel_extract(net)
    assert random_equivalence_check(ref, net, vectors=128, outputs=ref.outputs)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_lc_monotone_and_gain_exact(seed):
    net = tiny_circuit(seed, False)
    res = kernel_extract(net)
    assert res.final_lc <= res.initial_lc
    assert all(s.actual_delta == s.gain > 0 for s in res.steps)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_every_enumerated_rectangle_is_applicable(seed):
    """Applying ANY enumerated rectangle preserves function and its gain."""
    from repro.rectangles.cover import apply_rectangle

    ref = tiny_circuit(seed, False)
    mat = build_kc_matrix(ref)
    rects = list(set_walk(mat))[:5]
    for rect, gain in rects:
        net = ref.copy()
        before = net.literal_count()
        apply_rectangle(net, mat, rect)
        assert before - net.literal_count() == gain
        assert random_equivalence_check(ref, net, vectors=64, outputs=ref.outputs)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_extraction_deterministic(seed):
    a = tiny_circuit(seed, True)
    b = tiny_circuit(seed, True)
    ra = kernel_extract(a)
    rb = kernel_extract(b)
    assert ra.final_lc == rb.final_lc
    assert a.nodes == b.nodes

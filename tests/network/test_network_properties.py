"""Property-based tests for network-level operations."""

from hypothesis import given, settings, strategies as st

from repro.circuits.generators import GeneratorSpec, generate_circuit
from repro.network.eqn import read_eqn, write_eqn
from repro.network.blif import read_blif, write_blif
from repro.network.simulate import random_equivalence_check
from repro.network.transforms import eliminate


def tiny(seed: int, two_level: bool = False):
    return generate_circuit(
        GeneratorSpec(
            name=f"hp{seed}",
            seed=seed,
            n_inputs=8,
            target_lc=90,
            two_level=two_level,
            pool_size=4,
            products_per_node=(1, 3),
        )
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), two_level=st.booleans())
def test_eqn_roundtrip_preserves_everything(seed, two_level):
    net = tiny(seed, two_level)
    back = read_eqn(write_eqn(net))
    assert back.literal_count() == net.literal_count()
    assert sorted(back.nodes) == sorted(net.nodes)
    assert random_equivalence_check(net, back, vectors=64, outputs=net.outputs)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_blif_roundtrip_preserves_function(seed):
    net = tiny(seed, two_level=True)
    back = read_blif(write_blif(net))
    assert random_equivalence_check(net, back, vectors=64, outputs=net.outputs)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), threshold=st.integers(-2, 4))
def test_eliminate_preserves_function(seed, threshold):
    ref = tiny(seed)
    net = ref.copy()
    # only original outputs are protected; internal structure may collapse
    eliminate(net, threshold=threshold)
    net.validate()
    assert random_equivalence_check(ref, net, vectors=64, outputs=ref.outputs)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sweep_only_removes_dead(seed):
    net = tiny(seed)
    ref = net.copy()
    removed = net.sweep()
    # all nodes are outputs in generated circuits -> nothing is dead
    assert removed == 0
    assert net.nodes == ref.nodes


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_collapse_aliases_preserves_function(seed):
    ref = tiny(seed)
    net = ref.copy()
    # plant an alias chain reading an existing signal
    target = sorted(net.nodes)[0]
    net.add_node("[alias0]", [[net.table.id_of(target)]])
    net.add_node("[alias1]", [[net.table.id_of("[alias0]")]])
    net.add_node("[user]", [[net.table.id_of("[alias1]"), net.table.id_of(net.inputs[0])]])
    net.add_output("[user]")
    removed = net.collapse_aliases()
    assert removed == 2
    assert "[alias0]" not in net.nodes and "[alias1]" not in net.nodes
    ref2 = ref.copy()
    ref2.add_node("[user]", [[ref2.table.id_of(target), ref2.table.id_of(ref.inputs[0])]])
    ref2.add_output("[user]")
    assert random_equivalence_check(
        ref2, net, vectors=64, outputs=list(ref.outputs) + ["[user]"]
    )

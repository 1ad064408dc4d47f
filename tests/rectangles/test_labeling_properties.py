"""Property tests for the offset labeling and matrix splicing —
the invariants the replicated and L-shaped algorithms depend on."""

from hypothesis import given, settings, strategies as st

from repro.circuits.generators import GeneratorSpec, generate_circuit
from repro.rectangles.kcmatrix import LABEL_OFFSET, build_kc_matrix


def tiny(seed: int):
    return generate_circuit(
        GeneratorSpec(
            name=f"lbl{seed}", seed=seed, n_inputs=8, target_lc=100,
            pool_size=4, products_per_node=(1, 3),
        )
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000), pid=st.integers(0, 7))
def test_labels_land_in_pid_space(seed, pid):
    net = tiny(seed)
    mat = build_kc_matrix(net, pid=pid)
    lo, hi = pid * LABEL_OFFSET, (pid + 1) * LABEL_OFFSET
    assert all(lo < r < hi for r in mat.rows)
    assert all(lo < c < hi for c in mat.cols)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_partitioned_build_matches_whole_build(seed):
    """Building per-partition with disjoint label spaces covers exactly
    the rows/entries of the single global build."""
    net = tiny(seed)
    whole = build_kc_matrix(net)
    names = sorted(net.nodes)
    half = len(names) // 2 or 1
    m0 = build_kc_matrix(net, nodes=names[:half], pid=0)
    m1 = build_kc_matrix(net, nodes=names[half:], pid=1)
    assert m0.num_rows + m1.num_rows == whole.num_rows
    assert m0.num_entries + m1.num_entries == whole.num_entries
    # same (node, cokernel) row identities overall
    whole_rows = {(i.node, i.cokernel) for i in whole.rows.values()}
    part_rows = {(i.node, i.cokernel) for m in (m0, m1) for i in m.rows.values()}
    assert whole_rows == part_rows


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_adjacency_indexes_consistent(seed):
    net = tiny(seed)
    mat = build_kc_matrix(net)
    for (r, c) in mat.cells():
        assert c in mat.cols_of_row(r)
        assert r in mat.rows_of_col(c)
    for r in mat.rows:
        for c in mat.cols_of_row(r):
            assert mat.has_entry(r, c)
    assert len(set(mat.cols.values())) == mat.num_cols


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000))
def test_entry_identity(seed):
    """entry(i,j) = cokernel_i ∪ kernelcube_j and is an original cube."""
    net = tiny(seed)
    mat = build_kc_matrix(net)
    for (r, c), cube in mat.cells().items():
        info = mat.rows[r]
        assert set(cube) == set(info.cokernel) | set(mat.cols[c])
        assert cube in net.nodes[info.node]

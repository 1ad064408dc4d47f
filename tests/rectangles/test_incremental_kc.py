"""The patched KC matrix of ``kernel_extract`` against rebuild-every-time.

``kernel_extract`` builds its KC matrix once and then patches only the
rows of the nodes each extraction rewrites (plus the new node).  Its
contract is that nothing observable changes: the extraction stream, the
final network, the search budget spent and every cost-meter count must
equal those of the original loop, which rebuilt the matrix from scratch
on every iteration.  That loop survives here as the reference.

Every searcher call is also checked to receive a matrix that is
order-isomorphic to a fresh ``build_kc_matrix(sorted(active))``: the
same rows, column cubes and cells in the same sorted-label order.  The
labels themselves may differ.
"""

from __future__ import annotations

import pytest

from repro.algebra.sop import parse_sop
from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.network.boolean_network import BooleanNetwork
from repro.network.eqn import write_eqn
from repro.parallel.common import partition_network_nodes
from repro.rectangles.cover import apply_rectangle, kernel_extract, make_searcher
from repro.rectangles.kcmatrix import IncrementalKCMatrix, build_kc_matrix
from repro.rectangles.search import SearchBudget
from repro.verify import audit
from repro.verify.generator import FAMILIES, random_network

SEEDS = range(20)


@pytest.fixture(autouse=True)
def _no_rect_memo(monkeypatch):
    # The second of two identical runs would otherwise be answered from
    # the process-wide rectangle memo instead of searched.
    monkeypatch.setenv("REPRO_RECT_MEMO", "0")


def reference_extract(
    network, nodes=None, searcher="pingpong", budget=None, meter=None,
    name_prefix="[k", max_seeds=64,
):
    """The rebuild-every-iteration greedy loop (the original algorithm)."""
    search = make_searcher(searcher, budget=budget, meter=meter, max_seeds=max_seeds)
    active = set(nodes) if nodes is not None else set(network.nodes)
    kernel_cache = {}
    steps = []
    counter = 0
    while True:
        matrix = build_kc_matrix(
            network, nodes=sorted(active), kernel_cache=kernel_cache, meter=meter
        )
        best = search(matrix)
        if best is None or best[1] < 1:
            break
        rect, gain = best
        new_name = f"{name_prefix}{counter}]"
        while new_name in network.nodes or network.is_input(new_name):
            counter += 1
            new_name = f"{name_prefix}{counter}]"
        applied = apply_rectangle(network, matrix, rect, new_name=new_name, gain=gain)
        if meter is not None:
            meter.charge("divide_node", len(applied.modified_nodes))
        counter += 1
        for n in applied.modified_nodes:
            kernel_cache.pop(n, None)
        active.add(applied.new_node)
        steps.append(applied)
    return steps


def order_checked(search, network, nodes, checks):
    """Wrap *search* to assert each matrix it gets matches a fresh build."""
    original = set(network.nodes)
    start = set(nodes) if nodes is not None else original

    def run(matrix):
        active = start | (set(network.nodes) - original)
        fresh = build_kc_matrix(network, sorted(active))
        assert audit.kc_order_form(matrix) == audit.kc_order_form(fresh)
        checks.append(matrix.num_entries)
        return search(matrix)

    return run


def stream(steps):
    return [
        (s.new_node, s.kernel, s.modified_nodes, s.gain, s.actual_delta)
        for s in steps
    ]


def assert_same_as_reference(
    network, searcher="pingpong", blocks=None, node_budget=None,
    name_prefix="[k",
):
    """Run both loops (per block when *blocks* is given) and compare."""
    runs = {}
    for kind in ("reference", "incremental"):
        net = network.copy()
        meter = CostMeter()
        budget = SearchBudget(node_budget) if node_budget is not None else None
        steps = []
        checks = []
        for i, block in enumerate(blocks if blocks is not None else [None]):
            prefix = name_prefix if blocks is None else f"[p{i}_"
            if kind == "reference":
                steps += reference_extract(
                    net, nodes=block, searcher=searcher, budget=budget,
                    meter=meter, name_prefix=prefix,
                )
            else:
                search = make_searcher(
                    searcher, budget=budget, meter=meter, max_seeds=64
                )
                res = kernel_extract(
                    net, nodes=block,
                    searcher=order_checked(search, net, block, checks),
                    meter=meter, name_prefix=prefix,
                )
                steps += res.steps
        runs[kind] = (net, steps, meter, budget, checks)
    ref_net, ref_steps, ref_meter, ref_budget, _ = runs["reference"]
    net, steps, meter, budget, checks = runs["incremental"]
    assert stream(steps) == stream(ref_steps)
    assert write_eqn(net) == write_eqn(ref_net)
    assert net.nodes == ref_net.nodes
    assert meter.counts == ref_meter.counts
    if budget is not None:
        assert budget.used == ref_budget.used
    # One order check per search: every extraction plus the final search.
    assert len(checks) == len(steps) + (1 if blocks is None else len(blocks))
    return steps


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("searcher", ["pingpong", "exhaustive"])
def test_fuzz_families_match_rebuild(family, searcher):
    extracted = 0
    for seed in SEEDS:
        steps = assert_same_as_reference(
            random_network(seed, family), searcher=searcher
        )
        extracted += len(steps)
    # Families such as "degenerate" may extract nothing; the rest must
    # exercise the patch path.
    if family != "degenerate":
        assert extracted > 0


@pytest.mark.parametrize("name,scale", [
    ("misex3", 0.15), ("dalu", 0.1), ("des", 0.06), ("spla", 0.03),
])
def test_mcnc_recipes_match_rebuild(name, scale):
    steps = assert_same_as_reference(make_circuit(name, scale=scale))
    assert len(steps) >= 3


def test_exhaustive_budget_spend_matches_rebuild():
    net = make_circuit("misex3", scale=0.1)
    assert_same_as_reference(net, searcher="exhaustive", node_budget=10**7)


@pytest.mark.parametrize("seed", range(4))
def test_partition_blocks_match_rebuild(seed):
    # The independent algorithm runs the loop once per block, in place
    # on one shared network, under a per-block name prefix.
    net = make_circuit("dalu", scale=0.1)
    blocks = partition_network_nodes(net, 2, seed=seed)
    assert_same_as_reference(net, blocks=blocks)


# ----------------------------------------------------------------------
# Label-order edge cases
# ----------------------------------------------------------------------

SHARED = ["v1 v3 + v1 v4 + v2 v3 + v2 v4 + v5",
          "v1 v3 + v1 v4 + v2 v3 + v2 v4 + v6 v7",
          "v3 v1 v7 + v4 v1 v7 + v6",
          "v1 v3 + v2 v3 + v5 v6 + v5 v7"]


def _named_network(names, exprs=SHARED):
    net = BooleanNetwork("labels")
    net.add_inputs([f"v{i}" for i in range(1, 8)])
    for i, name in enumerate(names):
        net.add_node(name, parse_sop(exprs[i % len(exprs)], net.table))
        net.add_output(name)
    return net


@pytest.mark.parametrize("names", [
    ["n1", "n10", "n2", "n1x"],                          # prefixes
    ["a", "a\x00", "a\x00\x00", "b"],                    # trailing NULs
    ["net_" + "x" * 60 + str(i) for i in range(4)],      # long BLIF names
    ["é", "e", "ß", "日本", "\U0001F600", "z"],          # non-ASCII
    ["A", "Z", "a", "z"],                                # "[k" sorts between
])
def test_label_order_edge_cases(names):
    steps = assert_same_as_reference(_named_network(names))
    assert steps


def test_new_node_names_outgrow_the_label_width():
    # A prefix longer than every existing name forces a re-encode.
    steps = assert_same_as_reference(
        _named_network(["n0", "n1", "n2", "n3"]),
        name_prefix="[" + "extracted_kernel_" * 3,
    )
    assert steps


def test_replace_nodes_matches_fresh_build_directly():
    # The patcher alone, with a node that sorts between existing ones.
    net = _named_network(["m", "q", "a"])
    from repro.algebra.kernels import kernels

    inc = IncrementalKCMatrix({n: kernels(net.nodes[n]) for n in net.nodes})
    net.add_node("n", parse_sop("v1 v3 + v1 v4 + v7", net.table))
    net.set_expression("q", parse_sop("v1 v3 + v2 v4", net.table))
    inc.replace_nodes({n: kernels(net.nodes[n]) for n in ("n", "q")})
    fresh = build_kc_matrix(net, sorted(net.nodes))
    assert audit.kc_order_form(inc.matrix) == audit.kc_order_form(fresh)
    audit.audit_kcmatrix(inc.matrix)


def test_audited_run_checks_every_patch():
    # Under REPRO_CHECK=1 kernel_extract compares each patched matrix
    # with a fresh build itself.
    audit.set_audits(True)
    try:
        net = make_circuit("misex3", scale=0.1)
        ref = net.copy()
        kernel_extract(net)
        reference_extract(ref)
        assert write_eqn(net) == write_eqn(ref)
    finally:
        audit.set_audits(None)


def test_relabel_col_moves_every_index():
    net = _named_network(["p", "q"])
    mat = build_kc_matrix(net)
    old = max(mat.cols)
    cube = mat.cols[old]
    rows = set(mat.by_col[old])
    mat.relabel_col(old, old + 1000)
    assert mat.col_of_cube[cube] == old + 1000
    assert mat.by_col[old + 1000] == rows
    assert all((r, old + 1000) in mat.entries for r in rows)
    assert all(old not in mat.by_row[r] for r in rows)
    audit.audit_kcmatrix(mat)
    with pytest.raises(ValueError):
        mat.relabel_col(old + 1000, min(mat.cols))

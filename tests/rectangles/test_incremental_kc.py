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

The kernel diff inside ``replace_nodes`` is also driven directly, by
hand-built and fuzzed kernel lists, each patch compared with fresh
builds; a mutant that defers the column rechecks of row moves must
fail.
"""

from __future__ import annotations

import inspect
import random
from types import SimpleNamespace

import pytest

from repro.algebra.kernels import Kernel
from repro.algebra.sop import parse_sop
from repro.circuits.mcnc import make_circuit
from repro.machine.costmodel import CostMeter
from repro.network.boolean_network import BooleanNetwork
from repro.network.eqn import write_eqn
from repro.obs.tracer import Tracer, use_tracer
from repro.parallel.common import partition_network_nodes
from repro.rectangles import kcmatrix
from repro.rectangles.cover import apply_rectangle, kernel_extract, make_searcher
from repro.rectangles.kcmatrix import IncrementalKCMatrix, build_kc_matrix
from repro.rectangles.search import SearchBudget
from repro.verify import audit
from repro.verify.generator import FAMILIES, random_network
from tests.rectangles.compiled_walk import BitKCView
from tests.rectangles.test_live_bitview import label_form, recomputed_potentials

SEEDS = range(20)


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
    rows = set(mat.rows_of_col(old))
    mat.relabel_col(old, old + 1000)
    assert mat.col_of_cube[cube] == old + 1000
    assert mat.rows_of_col(old + 1000) == rows
    assert all(mat.has_entry(r, old + 1000) for r in rows)
    assert all(old not in mat.cols_of_row(r) for r in rows)
    audit.audit_kcmatrix(mat)
    with pytest.raises(ValueError):
        mat.relabel_col(old + 1000, min(mat.cols))


# ----------------------------------------------------------------------
# Kernel diffs: replace_nodes against fresh builds
# ----------------------------------------------------------------------
#
# replace_nodes keeps the rows of kernels a node still has, moving a row
# to a new label when its kernel index shifts, and only adds or removes
# the rows of new or dropped kernels.  Each patch is checked against
# three things: a fresh build_kc_matrix (the order contract), a fresh
# IncrementalKCMatrix of the same kernels (the exact labels), and a
# fresh compile of the live bitset index with its seed potentials.


def _kernel(cokernel, *cubes):
    return Kernel(expression=tuple(sorted(cubes)), cokernel=tuple(cokernel))


def _sorted(ks):
    """A kernel list in the order kernels() returns it."""
    return sorted(ks, key=lambda k: (k.cokernel, k.expression))


def _fresh_build(node_kernels, owner=None):
    network = SimpleNamespace(nodes=dict.fromkeys(node_kernels))
    return build_kc_matrix(
        network, sorted(node_kernels), kernel_cache=dict(node_kernels), owner=owner
    )


def _check_patch(inc, state, owner=None):
    """*inc* must equal a fresh build of *state* (node → kernels)."""
    mat = inc.matrix
    audit.audit_kcmatrix(mat)
    assert audit.kc_order_form(mat) == audit.kc_order_form(_fresh_build(state, owner))
    fresh = IncrementalKCMatrix(dict(state), owner=owner).matrix
    assert mat.rows == fresh.rows
    assert mat.cols == fresh.cols
    assert mat.cells() == fresh.cells()
    assert label_form(mat) == label_form(BitKCView(mat))
    assert mat.potentials() == recomputed_potentials(mat)


def _patch(inc, state, changes, owner=None):
    """Apply *changes* (node → new kernels) to *inc* and *state*, check
    the result and return the churn."""
    state.update(changes)
    inc.replace_nodes({n: list(ks) for n, ks in changes.items()})
    _check_patch(inc, state, owner)
    return inc.churn


# Kernels with distinct co-kernels sort by co-kernel: K[i] sits before
# K[i + 1] in any list.  Each one's first cube is its own, so each row
# holds the first occurrence of a column; the other two are shared.
K = [_kernel((20 + i,), (i,), (40,), (41 + i % 3,)) for i in range(10)]


def _start(lists, owner=None, cls=IncrementalKCMatrix):
    state = {n: _sorted(ks) for n, ks in lists.items()}
    inc = cls(dict(state), owner=owner)
    inc.matrix.potentials()
    _check_patch(inc, state, owner)
    return inc, state


def _moves(inc, node, new):
    """The (old index, new index) pairs replace_nodes would move, in
    order, and the indices it would add (*inc* is left mid-patch)."""
    moves, added = inc._diff(node, new, set())
    return [(o, n) for _, o, n in moves], added


def test_kept_kernels_shift_up():
    inc, state = _start({"f": [K[2], K[4], K[6]], "g": [K[3]]})
    churn = _patch(inc, state, {"f": [K[1], K[2], K[3], K[4], K[6]]})
    assert churn == {"kc_rows_kept": 3, "kc_rows_added": 2, "kc_rows_removed": 0}


def test_kept_kernels_shift_down():
    inc, state = _start({"f": [K[1], K[2], K[3], K[4], K[6]], "g": [K[3]]})
    churn = _patch(inc, state, {"f": [K[2], K[4], K[6]]})
    assert churn == {"kc_rows_kept": 3, "kc_rows_added": 0, "kc_rows_removed": 2}


def test_moves_are_ordered_so_targets_are_free():
    # Up-shifters highest first, then down-shifters lowest first; a row
    # whose index stays put does not move.
    inc, _ = _start({"f": [K[2], K[3], K[4], K[7], K[8]]})
    moves, added = _moves(inc, "f", [K[0], K[1], K[2], K[3], K[8]])
    assert moves == [(1, 3), (0, 2)]
    assert added == [0, 1]
    inc, _ = _start({"f": [K[0], K[1], K[2], K[5], K[6]]})
    moves, added = _moves(inc, "f", [K[0], K[2], K[3], K[4], K[5], K[6]])
    assert moves == [(4, 5), (3, 4), (2, 1)]
    assert added == [2, 3]


def test_mixed_shifts_within_one_node():
    inc, state = _start({"f": [K[1], K[2], K[5], K[6]], "g": [K[0], K[9]]})
    _patch(inc, state, {"f": [K[2], K[3], K[4], K[5]]})


def _chain_patches(cls=IncrementalKCMatrix):
    # Every kept row holds a column's first occurrence at position 0 and
    # moves into the label the row before it vacates; the shared cubes
    # hand their first occurrence from a dropped row to a moving one.
    chain = [_kernel((30 + i,), (i,), (50 + i,), (60,)) for i in range(6)]
    inc, state = _start({"f": chain, "g": [K[1], K[2]]}, cls=cls)
    _patch(inc, state, {"f": chain[2:]})
    _patch(inc, state, {"f": chain[:1] + chain[2:] + [_kernel((40,), (50,), (51,))]})
    _patch(inc, state, {"f": chain})


def test_chained_moves_pass_first_occurrences_along():
    _chain_patches()


def test_node_with_every_kernel_kept():
    inc, state = _start({"f": [K[1], K[2], K[3]], "g": [K[4]]})
    rows = dict(inc.matrix.rows)
    # Fresh, equal kernel objects: nothing changes.
    churn = _patch(inc, state, {"f": [_kernel(k.cokernel, *k.expression) for k in state["f"]]})
    assert churn == {"kc_rows_kept": 3, "kc_rows_added": 0, "kc_rows_removed": 0}
    assert inc.matrix.rows == rows


def test_node_with_no_kernel_kept():
    inc, state = _start({"f": [K[1], K[2], K[3]], "g": [K[4]]})
    churn = _patch(inc, state, {"f": [K[5], K[6]]})
    assert churn == {"kc_rows_kept": 0, "kc_rows_added": 2, "kc_rows_removed": 3}
    churn = _patch(inc, state, {"f": []})
    assert churn == {"kc_rows_kept": 0, "kc_rows_added": 0, "kc_rows_removed": 2}
    _patch(inc, state, {"f": [K[1]], "h": [K[2], K[3]]})


def test_replicated_node_whose_owner_changes():
    owner = {"a": 0, "b": 1, "c": 0}
    inc, state = _start(
        {"a": [K[1], K[3]], "b": [K[2], K[3], K[4]], "c": [K[0], K[5]]}, owner=owner
    )
    owner["b"] = 0
    churn = _patch(inc, state, {"b": [K[1], K[2], K[3], K[4]]}, owner)
    # The owner prefix moves every label of "b": remove and re-add.
    assert churn == {"kc_rows_kept": 0, "kc_rows_added": 4, "kc_rows_removed": 3}
    owner["b"] = 2
    owner["c"] = 2
    _patch(inc, state, {"b": [K[2], K[4]], "c": [K[0], K[5], K[6]]}, owner)
    # An unchanged owner patches by the diff again.
    churn = _patch(inc, state, {"b": [K[1], K[2], K[4]]}, owner)
    assert churn["kc_rows_kept"] == 2


# Random kernel pools: small literal ranges so cubes repeat across
# kernels, rows and nodes, and first occurrences move often.

def _random_kernel(rng):
    cokernel = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 2))))
    cubes = set()
    while len(cubes) < rng.randint(2, 4):
        cubes.add(tuple(sorted(rng.sample(range(7, 15), rng.randint(1, 2)))))
    return _kernel(cokernel, *cubes)


def _random_list(rng, pool):
    chosen = {}
    for k in rng.sample(pool, rng.randint(0, min(len(pool), 7))):
        chosen[(k.cokernel, k.expression)] = k
    return _sorted(chosen.values())


def _fuzz_patches(seed, cls=IncrementalKCMatrix, with_owner=False):
    rng = random.Random(seed)
    pool = [_random_kernel(rng) for _ in range(14)]
    names = ["a", "b", "ba", "c", "d\x00"]
    owner = {n: rng.randint(0, 2) for n in names} if with_owner else None
    state = {n: _random_list(rng, pool) for n in names[:3]}
    inc = cls(dict(state), owner=owner)
    if rng.random() < 0.8:
        inc.matrix.potentials()
    kept = 0
    for _ in range(12):
        changes = {n: _random_list(rng, pool) for n in rng.sample(names, rng.randint(1, 3))}
        if with_owner and rng.random() < 0.3:
            # Owners are read when a node's rows are patched.
            owner[rng.choice(sorted(changes))] = rng.randint(0, 2)
        kept += _patch(inc, state, changes, owner)["kc_rows_kept"]
    return kept


@pytest.mark.parametrize("seed", range(40))
def test_fuzzed_kernel_diffs_match_fresh_builds(seed):
    assert _fuzz_patches(seed) > 0


@pytest.mark.parametrize("seed", range(20))
def test_fuzzed_kernel_diffs_with_owners_match_fresh_builds(seed):
    _fuzz_patches(seed, with_owner=True)


def test_emptied_columns_survive_the_patch():
    # Dropping f's only kernel empties every column it has; the new
    # kernel brings the same cubes back, so they keep their slots.
    old = _kernel((20,), (0,), (40,), (41,))
    new = _kernel((30,), (0,), (40,), (41,))
    inc, state = _start({"f": [old], "g": [K[1]]})
    mat = inc.matrix
    slots = {kc: mat.col_pos[mat.col_of_cube[kc]] for kc in old.expression}
    churn = _patch(inc, state, {"f": [new]})
    assert churn["kc_rows_removed"] == churn["kc_rows_added"] == 1
    assert {kc: mat.col_pos[mat.col_of_cube[kc]] for kc in new.expression} == slots
    assert not inc._parked
    # A cube no kernel brings back loses its column at the end.
    _patch(inc, state, {"f": [K[2]]})
    assert (0,) not in mat.col_of_cube and not inc._parked


def test_traced_kc_build_spans_count_the_churn():
    # Every kc-build span counts the rows its patch kept, added and
    # removed; a real run keeps rows, which is what the diff saves.
    net = make_circuit("misex3", scale=0.15)
    tracer = Tracer()
    with use_tracer(tracer):
        res = kernel_extract(net)
    spans = [sp for sp in tracer.finished() if sp.name == "kc-build"]
    assert len(spans) == res.iterations + 1
    first = spans[0].counters
    assert first["kc_rows_added"] > 0
    assert first["kc_rows_kept"] == first["kc_rows_removed"] == 0
    assert sum(sp.counters["kc_rows_kept"] for sp in spans[1:]) > 0
    assert all(sp.counters["kc_rows_added"] > 0 for sp in spans[1:])


# ----------------------------------------------------------------------
# Mutant the diff tests must catch
# ----------------------------------------------------------------------

#: Recheck the moved rows' columns once after all row moves instead of
#: right after each move.
DEFERRED_RECHECK = [
    ("self._settle(self._move_row(", "deferred.update(self._move_row("),
    ("        self._settle(touched)\n",
     "        self._settle(touched)\n        deferred = set()\n"),
    ("        after_removal = mat.num_rows\n",
     "        self._settle(deferred)\n        after_removal = mat.num_rows\n"),
]


def _mutant_class(substitutions):
    src = inspect.getsource(kcmatrix.IncrementalKCMatrix)
    for old, new in substitutions:
        assert src.count(old) == 1, f"mutation site {old!r} not found"
        src = src.replace(old, new)
    namespace = dict(vars(kcmatrix))
    exec(compile(src, "<mutant>", "exec"), namespace)
    return namespace["IncrementalKCMatrix"]


#: Leave a parked column on its stale label when a live occurrence
#: takes that label.
NO_EVICTION = [
    ("        self.matrix.relabel_col(label, ~label)\n"
     "        self._parked[~label] = self._parked.pop(label)\n",
     "        pass\n"),
]


def test_stale_label_eviction_mutant_is_caught():
    mutant = _mutant_class(NO_EVICTION)
    caught = 0
    for seed in range(40):
        try:
            _fuzz_patches(seed, cls=mutant)
        except ValueError as exc:
            assert "duplicate column label" in str(exc)
            caught += 1
    assert caught, "keeping a parked column's stale label survived every fuzzed diff"


def test_deferred_column_recheck_mutant_is_caught():
    mutant = _mutant_class(DEFERRED_RECHECK)
    # A column relabelled onto a label a moved row's column still holds.
    with pytest.raises(ValueError, match="duplicate column label"):
        _chain_patches(mutant)
    caught = 0
    for seed in range(40):
        try:
            _fuzz_patches(seed, cls=mutant)
        except (ValueError, AssertionError, audit.InvariantViolation):
            caught += 1
    assert caught, "deferring the column recheck survived every fuzzed diff"

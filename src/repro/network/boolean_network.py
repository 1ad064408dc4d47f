"""The Boolean network container.

Signals are strings.  A signal is either a primary input or the output of
exactly one internal node.  Node expressions are canonical SOPs
(:data:`repro.algebra.sop.Sop`) whose literal ids come from the network's
:class:`~repro.algebra.LiteralTable`; a literal name ending in ``'`` refers
to the complement of the signal named by the rest (only the simulator
interprets this — the algebra treats it as an independent variable, per
the algebraic model).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.algebra.literals import LiteralTable
from repro.algebra.sop import Sop, parse_sop, format_sop, sop, sop_literal_count, sop_support


def base_signal(name: str) -> str:
    """Strip the complement marker: ``"a'" → "a"``."""
    return name.rstrip("'")


def cube_is_null(table: LiteralTable, cube: Sequence[int]) -> bool:
    """True iff *cube* contains a literal and its complement (``x·x' = 0``).

    The algebraic model treats ``x`` and ``x'`` as independent variables,
    so such cubes survive factorization untouched; but as a Boolean
    product they are identically 0, and the netlist writers must not
    render them as satisfiable rows.
    """
    polarity: Dict[str, bool] = {}
    for lit in cube:
        name = table.name_of(lit)
        comp = name.endswith("'")
        base = base_signal(name)
        if base in polarity and polarity[base] != comp:
            return True
        polarity[base] = comp
    return False


class BooleanNetwork:
    """A multi-level logic network of SOP nodes.

    Invariants maintained by the mutating API:

    - every literal used by a node names a defined signal (primary input
      or another node), modulo a trailing complement marker;
    - the node dependency graph is acyclic;
    - every primary output names a defined signal.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self.table = LiteralTable()
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.nodes: Dict[str, Sop] = {}
        self._input_set: Set[str] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        """Declare a primary input signal."""
        if name in self._input_set:
            return
        if name in self.nodes:
            raise ValueError(f"signal {name!r} already defined as a node")
        self._input_set.add(name)
        self.inputs.append(name)
        self.table.id_of(name)

    def add_inputs(self, names: Iterable[str]) -> None:
        """Declare several primary inputs (idempotent per name)."""
        for n in names:
            self.add_input(n)

    def add_node(self, name: str, expression) -> None:
        """Define node *name* with an SOP expression.

        *expression* is either an :data:`Sop` over this network's literal
        table or a string parsed with :func:`repro.algebra.sop.parse_sop`.
        """
        if name in self._input_set:
            raise ValueError(f"signal {name!r} already defined as an input")
        if name in self.nodes:
            raise ValueError(f"node {name!r} already defined")
        if isinstance(expression, str):
            expression = parse_sop(expression, self.table)
        else:
            expression = sop(expression)
        self.table.id_of(name)
        self.nodes[name] = expression

    def set_expression(self, name: str, expression: Sop) -> None:
        """Replace the SOP of an existing node (used by extraction)."""
        if name not in self.nodes:
            raise KeyError(name)
        self.nodes[name] = sop(expression)

    def add_output(self, name: str) -> None:
        """Mark a signal as a primary output (idempotent)."""
        if name not in self.outputs:
            self.outputs.append(name)

    def new_node_name(self, prefix: str = "[k") -> str:
        """Fresh signal name for an extraction-created node."""
        i = len(self.nodes)
        while True:
            candidate = f"{prefix}{i}]"
            if candidate not in self.nodes and candidate not in self._input_set:
                return candidate
            i += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_input(self, name: str) -> bool:
        """True iff *name* is a declared primary input."""
        return name in self._input_set

    def literal_count(self, node: Optional[str] = None) -> int:
        """SOP literal count — the paper's quality metric.

        With *node* given, counts only that node; otherwise sums over all
        internal nodes.
        """
        if node is not None:
            return sop_literal_count(self.nodes[node])
        return sum(sop_literal_count(f) for f in self.nodes.values())

    def fanin_signals(self, name: str) -> Set[str]:
        """Base signals (complement stripped) read by node *name*."""
        f = self.nodes[name]
        return {base_signal(self.table.name_of(l)) for l in sop_support(f)}

    def fanout_map(self) -> Dict[str, Set[str]]:
        """Map each signal to the set of nodes that read it."""
        out: Dict[str, Set[str]] = {s: set() for s in self.signals()}
        for n in self.nodes:
            for s in self.fanin_signals(n):
                out.setdefault(s, set()).add(n)
        return out

    def signals(self) -> Iterator[str]:
        """All defined signals: primary inputs, then internal nodes."""
        yield from self.inputs
        yield from self.nodes.keys()

    def topological_order(self) -> List[str]:
        """Internal nodes sorted so fanins precede fanouts.

        Raises ``ValueError`` on a combinational cycle.
        """
        state: Dict[str, int] = {}
        order: List[str] = []

        def visit(n: str) -> None:
            st = state.get(n, 0)
            if st == 1:
                raise ValueError(f"combinational cycle through node {n!r}")
            if st == 2:
                return
            state[n] = 1
            for s in sorted(self.fanin_signals(n)):
                if s in self.nodes:
                    visit(s)
            state[n] = 2
            order.append(n)

        for n in sorted(self.nodes):
            visit(n)
        return order

    def validate(self) -> None:
        """Check the structural invariants; raise ``ValueError`` on breach."""
        defined = set(self.inputs) | set(self.nodes)
        for n, f in self.nodes.items():
            for l in sop_support(f):
                s = base_signal(self.table.name_of(l))
                if s not in defined:
                    raise ValueError(f"node {n!r} reads undefined signal {s!r}")
                if s == n:
                    raise ValueError(f"node {n!r} reads itself")
        for o in self.outputs:
            if o not in defined:
                raise ValueError(f"undefined primary output {o!r}")
        self.topological_order()  # raises on cycles

    # ------------------------------------------------------------------
    # Structural transformations
    # ------------------------------------------------------------------
    def sweep(self) -> int:
        """Remove dead internal nodes (no path to a primary output).

        Returns the number of nodes removed.  Mirrors SIS ``sweep`` minus
        constant propagation, which the algebraic flow never needs.
        """
        live: Set[str] = set()
        stack = [o for o in self.outputs if o in self.nodes]
        while stack:
            n = stack.pop()
            if n in live:
                continue
            live.add(n)
            for s in self.fanin_signals(n):
                if s in self.nodes and s not in live:
                    stack.append(s)
        dead = [n for n in self.nodes if n not in live]
        for n in dead:
            del self.nodes[n]
        return len(dead)

    def collapse_aliases(self) -> int:
        """Remove alias nodes (SOP = one single-literal cube).

        An alias ``n = s`` (or ``n = s'``) is substituted into every
        reader — ``n`` becomes ``s``, ``n'`` becomes ``s`` with flipped
        complement — and deleted, unless ``n`` is a primary output.
        Parallel extraction can create such nodes when two processors
        extract the same kernel; SIS's ``eliminate`` cleans them the same
        way.  Returns the number of aliases removed.
        """
        removed = 0
        while True:
            alias = None
            for n, f in self.nodes.items():
                if n in self.outputs:
                    continue
                if len(f) == 1 and len(f[0]) == 1:
                    alias = n
                    break
            if alias is None:
                return removed
            target = self.table.name_of(self.nodes[alias][0][0])

            def flipped(name: str) -> str:
                return name[:-1] if name.endswith("'") else name + "'"

            subst = {alias: target, alias + "'": flipped(target)}
            for n in list(self.nodes):
                if n == alias:
                    continue
                f = self.nodes[n]
                hit = False
                new_cubes = []
                for cube in f:
                    lits = []
                    for l in cube:
                        nm = self.table.name_of(l)
                        if nm in subst:
                            lits.append(self.table.id_of(subst[nm]))
                            hit = True
                        else:
                            lits.append(l)
                    new_cubes.append(lits)
                if hit:
                    self.set_expression(n, sop(new_cubes))
            del self.nodes[alias]
            removed += 1

    def copy(self) -> "BooleanNetwork":
        """Deep-enough copy: mutating the copy never affects the original."""
        dup = BooleanNetwork(self.name)
        dup.table = self.table.copy()
        dup.inputs = list(self.inputs)
        dup.outputs = list(self.outputs)
        dup.nodes = dict(self.nodes)
        dup._input_set = set(self._input_set)
        return dup

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format_node(self, name: str) -> str:
        """Render one node as ``name = SOP`` with human-readable literals."""
        names = [self.table.name_of(i) for i in range(len(self.table))]
        return f"{name} = {format_sop(self.nodes[name], names)}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BooleanNetwork({self.name!r}, {len(self.inputs)} inputs, "
            f"{len(self.nodes)} nodes, LC={self.literal_count()})"
        )

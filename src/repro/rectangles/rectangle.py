"""Rectangles of the KC matrix and the literal-savings gain model.

The gain of extracting rectangle (R, C) — create node ``X = Σ_{j∈C} kc_j``
and rewrite each row's node — is the net literal-count change:

    gain = Σ_{distinct covered cubes} |cube|          (literals removed)
         − Σ_{i∈R} (|cokernel_i| + 1)                 (replacement cubes ck_i·X)
         − Σ_{j∈C} |kc_j|                             (the new node's SOP)

Distinctness matters: two (row, col) cells of the same node can name the
same original cube; it is removed once, so it is counted once.  The
L-shaped protocol supplies a ``value_fn`` that returns 0 for cubes
speculatively covered by another processor (the paper's value/trueval
mechanism); the default values a cube at its literal count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional, Set, Tuple

from repro.algebra.cube import Cube

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rectangles.kcmatrix import CubeRef, KCMatrix

ValueFn = Callable[[str, Cube], int]


def default_value(node: str, cube: Cube) -> int:
    """A cube is worth the literals its removal saves."""
    return len(cube)


@dataclass(frozen=True)
class Rectangle:
    """A rectangle: row labels × column labels, all cells occupied."""

    rows: Tuple[int, ...]
    cols: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(sorted(self.rows)))
        object.__setattr__(self, "cols", tuple(sorted(self.cols)))

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def is_valid(self, matrix: KCMatrix) -> bool:
        """Every (row, col) cell must hold an entry."""
        return all(
            matrix.has_entry(r, c) for r in self.rows for c in self.cols
        )


def covered_cube_refs(matrix: KCMatrix, rect: Rectangle) -> Set[CubeRef]:
    """The distinct original cubes the rectangle covers."""
    return {matrix.cube_ref(r, c) for r in rect.rows for c in rect.cols}


def rectangle_gain(
    matrix: KCMatrix,
    rect: Rectangle,
    value_fn: ValueFn = default_value,
) -> int:
    """Net literal savings of extracting *rect* (see module docstring)."""
    saved = sum(value_fn(node, cube) for node, cube in covered_cube_refs(matrix, rect))
    row_cost = sum(len(matrix.rows[r].cokernel) + 1 for r in rect.rows)
    col_cost = sum(len(matrix.cols[c]) for c in rect.cols)
    return saved - row_cost - col_cost


def rectangle_kernel(matrix: KCMatrix, rect: Rectangle):
    """The SOP the extracted node will hold (the column cubes)."""
    return tuple(sorted(matrix.cols[c] for c in rect.cols))

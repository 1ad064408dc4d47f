"""The label-keyed dict model of a KC matrix, kept as a differential oracle.

``KCMatrix`` used to keep its cells twice: in ``entries`` /
``by_row`` / ``by_col`` dicts keyed by labels, and in a bitset index.
The bitset slots are now its one store.  This module keeps the dict
bookkeeping as a plain reference model with the same mutators, so a
random mutation sequence can be replayed on both and the store's
label-keyed views compared with the model's dicts after every step
(``tests/rectangles/test_kc_store_oracle.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, NamedTuple, Set, Tuple

from repro.algebra.cube import Cube, cube_union


class RefRow(NamedTuple):
    node: str
    cokernel: Cube


class ReferenceKC:
    """Rows, columns and cells in label-keyed dicts, O(degree) per edit."""

    def __init__(self) -> None:
        self.rows: Dict[int, RefRow] = {}
        self.cols: Dict[int, Cube] = {}
        self.col_of_cube: Dict[Cube, int] = {}
        self.entries: Dict[Tuple[int, int], Cube] = {}
        self.by_row: Dict[int, Set[int]] = {}
        self.by_col: Dict[int, Set[int]] = {}
        self.overlap_rows: Dict[int, int] = {}

    def add_row(self, label: int, node: str, cokernel: Cube) -> None:
        if label in self.rows:
            raise ValueError(f"duplicate row label {label}")
        self.rows[label] = RefRow(node, cokernel)
        self.by_row[label] = set()

    def ensure_col(self, cube: Cube, label_factory: Callable[[], int]) -> int:
        got = self.col_of_cube.get(cube)
        if got is not None:
            return got
        label = label_factory()
        if label in self.cols:
            raise ValueError(f"duplicate column label {label}")
        self.cols[label] = cube
        self.col_of_cube[cube] = label
        self.by_col[label] = set()
        return label

    def add_entry(self, row: int, col: int) -> None:
        if (row, col) in self.entries:
            return
        cokernel = self.rows[row].cokernel
        kc = self.cols[col]
        cube = self.entries[(row, col)] = cube_union(cokernel, kc)
        self.by_row[row].add(col)
        self.by_col[col].add(row)
        if len(cube) != len(cokernel) + len(kc):
            self.overlap_rows[row] = self.overlap_rows.get(row, 0) + 1

    def remove_row(self, label: int) -> None:
        for col in self.by_row.pop(label, set()):
            self.by_col[col].discard(label)
            del self.entries[(label, col)]
        self.overlap_rows.pop(label, None)
        self.rows.pop(label, None)

    def remove_col(self, label: int) -> None:
        cube = self.cols.pop(label, None)
        if cube is None:
            return
        for row in self.by_col.pop(label):
            self.by_row[row].discard(label)
            got = self.entries.pop((row, label))
            if len(got) != len(self.rows[row].cokernel) + len(cube):
                self.overlap_rows[row] -= 1
                if not self.overlap_rows[row]:
                    del self.overlap_rows[row]
        del self.col_of_cube[cube]

    def relabel_col(self, old: int, new: int) -> None:
        if new in self.cols:
            raise ValueError(f"duplicate column label {new}")
        cube = self.cols.pop(old)
        self.cols[new] = cube
        self.col_of_cube[cube] = new
        rows = self.by_col[new] = self.by_col.pop(old)
        for row in rows:
            self.entries[(row, new)] = self.entries.pop((row, old))
            self.by_row[row].discard(old)
            self.by_row[row].add(new)

    def relabel_row(self, old: int, new: int) -> None:
        if new in self.rows:
            raise ValueError(f"duplicate row label {new}")
        self.rows[new] = self.rows.pop(old)
        cols = self.by_row[new] = self.by_row.pop(old)
        for col in cols:
            self.entries[(new, col)] = self.entries.pop((old, col))
            self.by_col[col].discard(old)
            self.by_col[col].add(new)
        if old in self.overlap_rows:
            self.overlap_rows[new] = self.overlap_rows.pop(old)

    def submatrix_columns(self, col_labels: Iterable[int]) -> "ReferenceKC":
        out = ReferenceKC()
        for c in sorted(set(col_labels)):
            cube = self.cols.get(c)
            if cube is None:
                continue
            out.ensure_col(cube, lambda: c)
            for r in sorted(self.by_col[c]):
                if r not in out.rows:
                    out.add_row(r, self.rows[r].node, self.rows[r].cokernel)
                out.add_entry(r, c)
        return out

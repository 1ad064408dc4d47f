"""The literal-scan Brayton–Rudell recursion, kept as a differential oracle.

``repro.algebra.kernels.kernels`` used to find each recursion step's
selections by scanning every literal index ``j..nlits`` over every cube,
and to turn each kernel's masks back into literal tuples through a
``_MaskSpace`` helper, one conversion per cube.  It now buckets each cube
under the literals it holds at index ``j`` or above and converts each
distinct mask once per call.  This module keeps the scan verbatim, so
``tests/algebra/test_kernels_oracle.py`` can hold the bucketed recursion
to the same kernel lists, order, co-kernels and ``kernel_cube_visit``
charges.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.algebra.cube import Cube
from repro.algebra.kernels import Kernel
from repro.algebra.sop import Sop, sop_support


class _MaskSpace:
    """Bidirectional mapping between global literal ids and local bits."""

    __slots__ = ("lits", "bit")

    def __init__(self, f: Sop) -> None:
        self.lits: List[int] = sorted(sop_support(f))
        self.bit: Dict[int, int] = {l: i for i, l in enumerate(self.lits)}

    def to_mask(self, c: Cube) -> int:
        m = 0
        for l in c:
            m |= 1 << self.bit[l]
        return m

    def to_cube(self, mask: int) -> Cube:
        out = []
        i = 0
        while mask:
            if mask & 1:
                out.append(self.lits[i])
            mask >>= 1
            i += 1
        return tuple(out)

    def to_sop(self, masks: Sequence[int]) -> Sop:
        return tuple(sorted(self.to_cube(m) for m in masks))


def reference_kernels(f: Sop, meter=None) -> List[Kernel]:
    """Every (kernel, co-kernel) pair of *f*, by the literal scan."""
    if len(f) < 2:
        return []
    space = _MaskSpace(f)
    masks = [space.to_mask(c) for c in f]
    common = masks[0]
    for m in masks[1:]:
        common &= m
    base = sorted(m & ~common for m in masks)
    nlits = len(space.lits)
    found: Dict[Tuple[Tuple[int, ...], int], None] = {}

    def rec(cubes: List[int], cok: int, j: int) -> None:
        if meter is not None:
            meter.charge("kernel_cube_visit", len(cubes))
        found.setdefault((tuple(cubes), cok), None)
        for i in range(j, nlits):
            b = 1 << i
            sel = [m for m in cubes if m & b]
            if len(sel) < 2:
                continue
            co = sel[0]
            for m in sel[1:]:
                co &= m
            if co & (b - 1):
                # The common cube contains a literal with smaller index:
                # this kernel was already generated from that literal.
                continue
            sub = sorted(m & ~co for m in sel)
            rec(sub, cok | co, i + 1)

    rec(base, common, 0)
    out = []
    for (cube_masks, cok_mask) in found.keys():
        out.append(
            Kernel(expression=space.to_sop(cube_masks), cokernel=space.to_cube(cok_mask))
        )
    out.sort(key=lambda k: (k.cokernel, k.expression))
    return out

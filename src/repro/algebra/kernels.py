"""Kernel and co-kernel enumeration (Brayton–Rudell recursion).

The kernels of an expression *f* are its cube-free primary divisors:
``K(f) = { g ∈ D(f) : g cube-free }`` with ``D(f) = { f/C : C a cube }``.
The cube *C* used to reach kernel ``k = f/C`` is its *co-kernel*.

The enumeration is the classic recursion from Brayton & Rudell (MIS,
1987), run over per-expression bitmask encodings for speed: literals of
*f* are mapped to bit positions in ascending global-id order, cubes become
integers, and the "already generated" prune is a mask test against the
current literal index.  Each recursion step buckets its cubes, in order,
under the literals they hold at or above that index and visits the
buckets in ascending literal order, which selects exactly what a scan of
every literal index over every cube would; each distinct mask of the
result becomes a literal tuple once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.algebra.cube import Cube
from repro.algebra.sop import Sop, sop_support


@dataclass(frozen=True)
class Kernel:
    """A kernel with the co-kernel cube that produces it.

    Both are expressed over global literal ids so kernels from different
    network nodes are directly comparable (KC-matrix columns dedupe
    kernel-cubes globally).
    """

    expression: Sop
    cokernel: Cube

    def __post_init__(self) -> None:
        if len(self.expression) < 2:
            raise ValueError("a kernel must have at least two cubes")

    @property
    def num_cubes(self) -> int:
        return len(self.expression)


def kernels(f: Sop, meter=None) -> List[Kernel]:
    """Enumerate all (kernel, co-kernel) pairs of *f*.

    Expressions with fewer than two cubes have no kernels.  The cube-free
    part of *f* itself is always the first kernel returned (with the
    largest common cube as its co-kernel).  Distinct co-kernels producing
    the same kernel expression yield distinct entries — each becomes its
    own KC-matrix row.

    ``meter``, if given, is charged ``("kernel_cube_visit", n)`` for the
    cube traffic of the recursion; the simulated machine uses this to cost
    kernel generation.
    """
    if len(f) < 2:
        return []
    bit_of = {l: 1 << i for i, l in enumerate(sorted(sop_support(f)))}
    masks = []
    for c in f:
        m = 0
        for l in c:
            m |= bit_of[l]
        masks.append(m)
    common = masks[0]
    for m in masks[1:]:
        common &= m
    found: Dict[Tuple[Tuple[int, ...], int], None] = {}

    def rec(cubes: Tuple[int, ...], cok: int, low: int) -> None:
        # *low* is the bit of the lowest literal index this call may
        # select; ``-low`` masks a cube down to its literals from there.
        if meter is not None:
            meter.charge("kernel_cube_visit", len(cubes))
        found.setdefault((cubes, cok), None)
        buckets: Dict[int, List[int]] = {}
        above = -low
        for m in cubes:
            rest = m & above
            while rest:
                b = rest & -rest
                rest ^= b
                sel = buckets.get(b)
                if sel is None:
                    buckets[b] = [m]
                else:
                    sel.append(m)
        for b in sorted(buckets):
            sel = buckets[b]
            if len(sel) < 2:
                continue
            co = sel[0]
            for m in sel[1:]:
                co &= m
            if co & (b - 1):
                # The common cube contains a literal with smaller index:
                # this kernel was already generated from that literal.
                continue
            rec(tuple(sorted(m & ~co for m in sel)), cok | co, b << 1)

    rec(tuple(sorted(m & ~common for m in masks)), common, 1)
    # Each distinct mask becomes a literal tuple once: ascending bits are
    # ascending literal ids, read off lowest set bit first.
    lit_of = {b: l for l, b in bit_of.items()}
    distinct = {cok for _, cok in found}
    for cube_masks, _ in found:
        distinct.update(cube_masks)
    cube_of: Dict[int, Cube] = {}
    for mask in distinct:
        lits_of_mask = []
        rest = mask
        while rest:
            b = rest & -rest
            rest ^= b
            lits_of_mask.append(lit_of[b])
        cube_of[mask] = tuple(lits_of_mask)
    to_cube = cube_of.__getitem__
    out = [
        Kernel(expression=tuple(sorted(map(to_cube, cube_masks))), cokernel=to_cube(cok_mask))
        for cube_masks, cok_mask in found
    ]
    out.sort(key=lambda k: (k.cokernel, k.expression))
    return out


def kernel_level(f: Sop) -> int:
    """The level of expression *f* in the kernel hierarchy.

    A kernel is *level 0* if it has no kernels other than itself; a kernel
    is level *n* if it contains at least one level *n−1* kernel and no
    kernel of level *n* or higher (Brayton–Rudell).  Expressions with no
    kernels at all conventionally get level 0.
    """
    ks = kernels(f)
    proper = [k for k in ks if k.expression != f or k.cokernel != ()]
    # When f is not cube-free, its cube-free part is a proper divisor too;
    # only the exact self-kernel (co-kernel 1) is "itself".
    if not proper:
        return 0
    return 1 + max(kernel_level(k.expression) for k in proper)


def level0_kernels(f: Sop, meter=None) -> List[Kernel]:
    """The subset of kernels that are level 0 (no proper sub-kernels)."""
    out = []
    for k in kernels(f, meter=meter):
        sub = kernels(k.expression)
        if all(s.expression == k.expression and s.cokernel == () for s in sub):
            out.append(k)
    return out

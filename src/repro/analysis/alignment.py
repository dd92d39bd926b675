"""Alignment and contiguity analysis for array references.

Part of the paper's pre-processing (Figure 3): the code generator only
emits a single wide vector load/store for a pack of references when the
pack is *contiguous* (consecutive elements in pack order) and *aligned*
(the first element's address is a multiple of the superword width for
every value of the loop indices). Everything else is packed lane by lane.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import IRError
from ..ir import Affine, ArrayDecl, ArrayRef


def flat_affine(ref: ArrayRef, decl: ArrayDecl) -> Affine:
    """Row-major flattened element index of a reference, as one Affine."""
    if len(ref.subscripts) != len(decl.shape):
        raise IRError(
            f"{ref.array} has {len(decl.shape)} dims, reference uses "
            f"{len(ref.subscripts)}"
        )
    flat = Affine((), 0)
    for subscript, dim in zip(ref.subscripts, decl.shape):
        flat = flat * dim + subscript
    return flat


def pack_contiguity(
    refs: Sequence[ArrayRef], decl_of, lanes: int
) -> Optional[Affine]:
    """If the refs cover consecutive flat addresses in order, return the
    flat affine address of lane 0; otherwise ``None``.

    ``decl_of`` maps an array name to its :class:`ArrayDecl`.
    """
    if len(refs) != lanes:
        return None
    first = refs[0]
    if any(r.array != first.array for r in refs):
        return None
    base = flat_affine(first, decl_of(first.array))
    for lane, ref in enumerate(refs[1:], start=1):
        delta = flat_affine(ref, decl_of(ref.array)) - base
        if not (delta.is_constant and delta.const == lane):
            return None
    return base


def is_aligned(base: Affine, lanes: int) -> bool:
    """Whether a flat element address is a multiple of ``lanes`` for all
    index values: every coefficient and the constant must divide evenly.

    This matches SSE-era alignment rules where a 16-byte-aligned array
    base plus an element offset that is a multiple of the lane count
    yields an aligned superword access.
    """
    if base.const % lanes:
        return False
    return all(coeff % lanes == 0 for _, coeff in base.coeffs)


def alignment_of(base: Affine, lanes: int) -> Optional[int]:
    """The constant residue ``address mod lanes`` when it is the same for
    all iterations, else ``None`` (unknown alignment)."""
    if any(coeff % lanes for _, coeff in base.coeffs):
        return None
    return base.const % lanes


def alignment_with_induction(
    base: Affine,
    lanes: int,
    index: str,
    start: int,
    step: int,
) -> Optional[int]:
    """Alignment residue using induction-variable knowledge.

    Inside ``for (index = start; ...; index += step)`` the index is
    always ``start (mod step)``, so a subscript coefficient that is not
    itself a multiple of ``lanes`` can still yield a fixed residue when
    ``coeff * step`` is. This is the alignment analysis of the paper's
    pre-processing (Figure 3): e.g. ``X[i]`` with ``i`` stepping by the
    lane count from 0 is aligned even though ``coeff = 1``.
    """
    residue = base.const
    for name, coeff in base.coeffs:
        if name == index:
            if (coeff * step) % lanes:
                return None
            residue += coeff * start
        elif coeff % lanes:
            return None
    return residue % lanes

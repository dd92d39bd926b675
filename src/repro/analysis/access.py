"""Memory access vectors — Equation (1) of the paper.

For an array reference inside an affine loop nest, the access pattern is
``r = Q·i + O`` where ``i`` is the iteration vector, ``Q`` the m×n memory
access matrix and ``O`` the offset vector. The array-reference data
layout optimization (Section 5.2) manipulates exactly these objects.
Both are small integer tuples, and every product here is exact integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import IRError
from ..ir import ArrayRef, Loop


@dataclass(frozen=True)
class AccessVector:
    """``r = Q·i + O`` for one reference under a fixed index ordering."""

    array: str
    indices: Tuple[str, ...]      # iteration vector ordering (outer→inner)
    matrix: Tuple[Tuple[int, ...], ...]  # Q, one row per array dimension
    offset: Tuple[int, ...]       # O

    @property
    def Q(self) -> Tuple[Tuple[int, ...], ...]:
        return self.matrix

    @property
    def O(self) -> Tuple[int, ...]:  # noqa: E743 - matches the paper's symbol
        return self.offset

    @property
    def dims(self) -> int:
        return len(self.matrix)

    def evaluate(self, iteration: Sequence[int]) -> Tuple[int, ...]:
        point = [int(v) for v in iteration]
        if len(point) != len(self.indices):
            raise IRError(
                f"iteration {tuple(point)} does not match the iteration "
                f"vector {self.indices}"
            )
        return tuple(
            sum(q * i for q, i in zip(row, point)) + o
            for row, o in zip(self.matrix, self.offset)
        )

    def innermost_column(self) -> Tuple[int, ...]:
        """The column of Q for the innermost loop — what determines the
        access pattern across successive innermost iterations."""
        return tuple(row[-1] for row in self.matrix)

    def innermost_stride_rowmajor(self, shape: Sequence[int]) -> int:
        """Flat (row-major) address delta per innermost iteration."""
        stride = 0
        scale = 1
        for row, dim in zip(reversed(self.matrix), reversed(list(shape))):
            stride += row[-1] * scale
            scale *= dim
        return stride


def access_vector(ref: ArrayRef, indices: Sequence[str]) -> AccessVector:
    """Build the access vector of ``ref`` w.r.t. an index ordering."""
    rows: List[Tuple[int, ...]] = []
    offsets: List[int] = []
    names = tuple(indices)
    for subscript in ref.subscripts:
        extra = set(subscript.variables()) - set(names)
        if extra:
            raise IRError(
                f"subscript {subscript} references indices {sorted(extra)} "
                f"outside the iteration vector {names}"
            )
        rows.append(tuple(subscript.coeff(name) for name in names))
        offsets.append(subscript.const)
    return AccessVector(ref.array, names, tuple(rows), tuple(offsets))


def loop_access_vectors(loop: Loop) -> List[Tuple[ArrayRef, AccessVector]]:
    """Access vectors for every reference in the innermost body of a nest."""
    indices = loop.indices()
    innermost = loop.innermost()
    out: List[Tuple[ArrayRef, AccessVector]] = []
    for stmt in innermost.body:
        for ref in stmt.array_refs():
            out.append((ref, access_vector(ref, indices)))
    return out

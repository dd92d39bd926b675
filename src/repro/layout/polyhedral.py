"""Polyhedral machinery for the array-reference layout optimization
(Section 5.2, Equations 1–8).

The paper expresses a reference's access pattern as ``r = Q·i + O``
(Equation 1), derives a layout transformation matrix ``M`` from
``L_default · M = L_opt`` (Equation 2), and then maps the data touched by
the transformed reference into a fresh array ``B`` so the reference
becomes a stride-``L`` access at offset ``p`` (its lane position inside
the superword). Equations 4, 5 and 8 give the mapping function for 1-D,
2-D and N-D arrays.

This module implements those functions verbatim; the production path in
:mod:`repro.layout.array` uses the (equivalent) flattened 1-D form, and
the tests cross-check both against brute-force enumeration. Matrices are
nested sequences of integers (tuples, lists or integer arrays), solved
exactly over the rationals: an answer that is almost integral is still
rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from ..errors import LayoutError

IntMatrix = Tuple[Tuple[int, ...], ...]


def _int_matrix(rows) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def _solve(A: IntMatrix, B: IntMatrix, singular: str) -> List[List[Fraction]]:
    """The exact solution ``X`` of ``A·X = B`` by Gauss-Jordan
    elimination over the rationals; raises ``singular`` when ``A`` is
    singular."""
    n = len(A)
    if any(len(row) != n for row in A) or len(B) != n:
        raise LayoutError(f"{singular}: the system is not square")
    rows = [
        [Fraction(x) for x in a_row] + [Fraction(x) for x in b_row]
        for a_row, b_row in zip(A, B)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise LayoutError(singular)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _integral(values: Sequence[Fraction], message: str) -> Tuple[int, ...]:
    if any(v.denominator != 1 for v in values):
        raise LayoutError(message)
    return tuple(int(v) for v in values)


def transformation_matrix(l_default, l_opt) -> IntMatrix:
    """Solve ``L_default · M = L_opt`` (Equation 2) over the rationals.

    Both layouts are given as integer matrices; raises when ``L_default``
    is singular or the solution is not integral.
    """
    solution = _solve(
        _int_matrix(l_default), _int_matrix(l_opt),
        "default layout matrix is singular",
    )
    return tuple(
        _integral(row, "layout transformation is not integral")
        for row in solution
    )


def transform_access(Q, O, M) -> Tuple[IntMatrix, Tuple[int, ...]]:
    """Equation 3: the transformed reference ``r1 = (M·Q)·i + M·O``."""
    M, Q, O = _int_matrix(M), _int_matrix(Q), [int(o) for o in O]
    MQ = tuple(
        tuple(sum(m * q for m, q in zip(row, col)) for col in zip(*Q))
        for row in M
    )
    return MQ, tuple(sum(m * o for m, o in zip(row, O)) for row in M)


def map_index_1d(d: int, a: int, b: int, L: int, p: int) -> int:
    """Equation 4: ``f(d) = ((d - b) / a) · L + p`` for ``R1 = A[a·i + b]``.

    ``d`` must actually be accessed by the reference (``a | d - b``).
    """
    if a == 0:
        raise LayoutError("reference does not move: a = 0")
    quotient, remainder = divmod(d - b, a)
    if remainder:
        raise LayoutError(f"index {d} is not accessed by A[{a}*i + {b}]")
    return quotient * L + p


def map_index_2d(
    d: Sequence[int], Q1, O1, L: int, p: int
) -> Tuple[int, int]:
    """Equation 5 for a 2-D array with lower-triangular
    ``Q1 = [[q11, 0], [q21, q22]]``::

        f(d) = ( (d1 - o1)/q11 ,
                 ((d2 - o2 - q21·(d1 - o1)/q11) / q22) · L + p )
    """
    Q1 = _int_matrix(Q1)
    d1, d2 = int(d[0]), int(d[1])
    q11, q21, q22 = Q1[0][0], Q1[1][0], Q1[1][1]
    if Q1[0][1] != 0:
        raise LayoutError("Equation 5 expects q12 = 0")
    o1, o2 = int(O1[0]), int(O1[1])
    row, rem = divmod(d1 - o1, q11)
    if rem:
        raise LayoutError("d1 not accessed by the reference")
    col_num = d2 - o2 - q21 * row
    col, rem = divmod(col_num, q22)
    if rem:
        raise LayoutError("d2 not accessed by the reference")
    return (row, col * L + p)


def map_index_general(
    d: Sequence[int], Q1, O1, L: int, p: int
) -> Tuple[int, ...]:
    """Equations 7–8 for an N-D array.

    Split the access into the leading N-1 dimensions (Equation 7 —
    invertible ``Q1'``) and the last dimension, which becomes the
    strided coordinate ``f_n(d)·L + p`` (Equation 8).
    """
    Q1 = _int_matrix(Q1)
    O1 = tuple(int(o) for o in O1)
    d = tuple(int(x) for x in d)
    n = len(d)
    if n == 1:
        # Degenerates to Equation 4.
        return (map_index_1d(d[0], Q1[0][0], O1[0], L, p),)

    lead_Q = tuple(row[: n - 1] for row in Q1[: n - 1])
    lead_d = tuple((x - o,) for x, o in zip(d[: n - 1], O1))
    solved = _solve(lead_Q, lead_d, "Q1' must be nonsingular (Equation 6)")
    lead = _integral(
        [row[0] for row in solved],
        "leading dimensions not accessed by the reference",
    )

    # Equation 8: the last coordinate, after subtracting the contribution
    # of the already-recovered leading iteration values.
    q_last_row = Q1[n - 1][: n - 1]
    q_nn = Q1[n - 1][n - 1]
    if q_nn == 0:
        raise LayoutError("innermost coefficient q_nn must be nonzero")
    numerator = d[n - 1] - O1[n - 1] - sum(
        q * x for q, x in zip(q_last_row, lead)
    )
    inner, rem = divmod(numerator, q_nn)
    if rem:
        raise LayoutError("last dimension not accessed by the reference")
    return lead + (inner * L + p,)


@dataclass(frozen=True)
class StridedMapping:
    """The realized mapping for one lane of an array-reference superword:
    iteration ``j`` (0-based) of the target loop reads new-array element
    ``L·j + p`` — the defining property of Section 5.2's optimization."""

    L: int
    p: int

    def destination(self, j: int) -> int:
        return self.L * j + self.p

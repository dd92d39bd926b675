"""Canonical operand identity keys, and one basic block's operand table.

Variable packs, superword reuse detection, and dependence analysis all
need a hashable notion of "the same data": two occurrences of ``a`` are
the same operand; two occurrences of ``A[4*i + 3]`` inside one basic
block denote the same element (the block executes within a single loop
iteration, so the affine function pins the address); constants are equal
by value. ``operand_key`` maps IR leaves to such keys.

:class:`OperandTable` numbers one block's distinct keys, so dependence
tests, grouping rounds, the scheduler's live superword set and the code
generator's live packs compare and index small ints instead of key
tuples (whose ``Affine`` subscripts hash and compare through generated
dataclass methods). :class:`PackIndex` is the live-pack index the last
two share: a write drops the packs holding an id its ``alias`` bitset
has.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..ir import Affine, ArrayRef, Const, Expr, Statement, Var

OperandKey = Tuple

#: Key kinds, exposed for readable pattern matching in client code.
KIND_VAR = "var"
KIND_REF = "ref"
KIND_CONST = "const"


def operand_key(leaf: Expr) -> OperandKey:
    """A hashable identity for a leaf operand within one basic block."""
    if isinstance(leaf, Var):
        return (KIND_VAR, leaf.name)
    if isinstance(leaf, ArrayRef):
        return (KIND_REF, leaf.array, leaf.subscripts)
    if isinstance(leaf, Const):
        return (KIND_CONST, leaf.type.name, leaf.value)
    raise TypeError(f"{leaf!r} is not a leaf operand")


def is_memory_key(key: OperandKey) -> bool:
    return key[0] == KIND_REF


def is_scalar_key(key: OperandKey) -> bool:
    return key[0] == KIND_VAR


def is_const_key(key: OperandKey) -> bool:
    return key[0] == KIND_CONST


def bit_indices(mask: int) -> List[int]:
    """The set bit positions of a non-negative int, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _sort_form(key: OperandKey) -> OperandKey:
    """``key`` with each subscript as its ``(coeffs, const)`` fields:
    ``Affine`` orders by exactly those fields, so this sorts like the
    key, compared by the builtin tuple comparison."""
    if key[0] == KIND_REF:
        return (key[0], key[1], tuple((s.coeffs, s.const) for s in key[2]))
    return key


class OperandTable:
    """The distinct operand keys of one basic block, numbered.

    ``keys[i]`` is operand id ``i``'s key. Ids follow sorted key order,
    so a sorted id tuple orders exactly like the pack (sorted key tuple)
    it stands for, and :meth:`decode` needs no sort. Per id the table
    keeps ``kinds`` (``KIND_*``), ``names`` (the variable or array name;
    None for a constant) and ``alias``, a may-alias bitset over ids: a
    variable aliases itself, a reference every reference to the same
    array that :func:`~repro.analysis.dependence.refs_may_alias` cannot
    separate, a constant nothing. ``rows[sid]`` is a statement's operand
    ids by position, the target first.
    """

    __slots__ = ("keys", "ids", "kinds", "names", "alias", "rows", "_flats")

    def __init__(
        self,
        keys: Iterable[OperandKey],
        rows: Optional[Dict[int, Tuple[OperandKey, ...]]] = None,
    ):
        self.keys: List[OperandKey] = sorted(set(keys), key=_sort_form)
        ids = self.ids = {key: i for i, key in enumerate(self.keys)}
        self.rows: Dict[int, Tuple[int, ...]] = {
            sid: tuple([ids[key] for key in row])
            for sid, row in (rows or {}).items()
        }
        self.kinds: List[str] = [key[0] for key in self.keys]
        self.names: List[Optional[str]] = [
            None if key[0] == KIND_CONST else key[1] for key in self.keys
        ]
        self.alias: List[int] = self._alias_bits()
        self._flats: Optional[tuple] = None

    @classmethod
    def of_block(cls, statements: Iterable[Statement]) -> "OperandTable":
        """The table of a block's statements (flat, after if-conversion)."""
        rows = {
            stmt.sid: tuple(
                [operand_key(leaf) for leaf in stmt.operand_positions()]
            )
            for stmt in statements
        }
        return cls((key for row in rows.values() for key in row), rows)

    def _alias_bits(self) -> List[int]:
        """``alias`` from per-array buckets, with no pairwise loop. Every
        ``Affine`` is normalized (sorted, nonzero coefficients), so two
        subscripts differ by a constant exactly when their coefficients
        are equal; two references of one array and rank are then apart
        when some dimension has equal coefficients and unequal
        constants. References of different ranks always may alias."""
        alias = [0] * len(self.keys)
        arrays: Dict[str, int] = {}
        same_coeffs: Dict[tuple, int] = {}
        same_subscript: Dict[tuple, int] = {}
        refs = []
        for i, key in enumerate(self.keys):
            kind = key[0]
            if kind == KIND_VAR:
                alias[i] = 1 << i
            elif kind == KIND_REF:
                bit = 1 << i
                name, subscripts = key[1], key[2]
                arrays[name] = arrays.get(name, 0) | bit
                rank = len(subscripts)
                dims = []
                for dim, sub in enumerate(subscripts):
                    by_coeffs = (name, rank, dim, sub.coeffs)
                    by_subscript = by_coeffs + (sub.const,)
                    same_coeffs[by_coeffs] = (
                        same_coeffs.get(by_coeffs, 0) | bit
                    )
                    same_subscript[by_subscript] = (
                        same_subscript.get(by_subscript, 0) | bit
                    )
                    dims.append((by_coeffs, by_subscript))
                refs.append((i, name, dims))
        for i, name, dims in refs:
            apart = 0
            for by_coeffs, by_subscript in dims:
                apart |= same_coeffs[by_coeffs] & ~same_subscript[by_subscript]
            alias[i] = arrays[name] & ~apart
        return alias

    # -- packs -----------------------------------------------------------------

    def encode(self, pack: Sequence[OperandKey]) -> Tuple[int, ...]:
        """A sorted pack's id tuple (sorted as well)."""
        ids = self.ids
        return tuple([ids[key] for key in pack])

    def decode(self, ids: Sequence[int]) -> Tuple[OperandKey, ...]:
        """The keys an id tuple stands for: the pack, for sorted ids."""
        keys = self.keys
        return tuple([keys[i] for i in ids])

    def unit_packs(self, sids: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
        """A unit's packs as sorted id tuples, one per operand position:
        the multiset of its statements' operand ids there (see
        ``GroupNode.positions``)."""
        rows = self.rows
        if len(sids) == 1:
            return tuple([(i,) for i in rows[sids[0]]])
        return tuple(
            [tuple(sorted(column)) for column in zip(*[rows[s] for s in sids])]
        )

    def flat_offsets(self, decl_of) -> List[Optional[Tuple[tuple, int]]]:
        """Each id's row-major flattened element offset as ``(coeffs,
        const)``, under ``decl_of``'s shapes (a one-dimensional array of
        unknown shape flattens to its subscript); None for a non-reference
        or an unknown multi-dimensional shape. Kept for the last
        ``decl_of`` asked."""
        cached = self._flats
        if cached is not None and cached[0] is decl_of:
            return cached[1]
        flats: List[Optional[Tuple[tuple, int]]] = []
        for key in self.keys:
            flat = None
            if key[0] == KIND_REF:
                subscripts = key[2]
                decl = decl_of(key[1]) if decl_of is not None else None
                if decl is not None:
                    shape = decl.shape
                elif len(subscripts) == 1:
                    shape = (0,)
                else:
                    shape = None
                if shape is not None:
                    offset = Affine((), 0)
                    for subscript, dim in zip(subscripts, shape):
                        offset = offset * dim + subscript
                    flat = (offset.coeffs, offset.const)
            flats.append(flat)
        self._flats = (decl_of, flats)
        return flats


class PackIndex:
    """Live packs, as id tuples of one :class:`OperandTable`, by the ids
    they hold: ``holders[i]`` is the set of packs holding id ``i`` and
    ``held`` the bitset of the ids some pack holds. A write to id ``w``
    may clobber exactly the packs under the set bits of
    ``alias[w] & held``, so :meth:`stale` tests no pack on its own."""

    __slots__ = ("alias", "holders", "held")

    def __init__(self, alias: Sequence[int]):
        self.alias = alias
        self.holders: Dict[int, Set[Tuple[int, ...]]] = {}
        self.held = 0

    def add(self, pack: Tuple[int, ...]) -> None:
        holders = self.holders
        for i in pack:
            packs = holders.get(i)
            if packs is None:
                holders[i] = {pack}
                self.held |= 1 << i
            else:
                packs.add(pack)

    def discard(self, pack: Tuple[int, ...]) -> None:
        holders = self.holders
        for i in pack:
            packs = holders.get(i)
            if packs is None:
                continue  # a repeated id, already gone
            packs.discard(pack)
            if not packs:
                del holders[i]
                self.held &= ~(1 << i)

    def stale(self, written: Iterable[int]) -> Set[Tuple[int, ...]]:
        """The packs holding an id that one of ``written`` may alias."""
        alias = self.alias
        bits = 0
        for w in written:
            bits |= alias[w]
        found: Set[Tuple[int, ...]] = set()
        holders = self.holders
        for i in bit_indices(bits & self.held):
            found |= holders[i]
        return found

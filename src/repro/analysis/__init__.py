"""Program analyses: operand identity, def-use, dependence, access
vectors, and alignment — the information the SLP stages consume."""

from .access import AccessVector, access_vector, loop_access_vectors
from .alignment import alignment_of, flat_affine, is_aligned, pack_contiguity
from .defuse import DefUseChains, UseSite
from .dependence import (
    DepKind,
    Dependence,
    DependenceGraph,
    refs_may_alias,
    refs_must_alias,
)
from .operands import (
    KIND_CONST,
    KIND_REF,
    KIND_VAR,
    OperandKey,
    OperandTable,
    PackIndex,
    is_const_key,
    is_memory_key,
    is_scalar_key,
    operand_key,
)

__all__ = [
    "AccessVector",
    "DefUseChains",
    "DepKind",
    "Dependence",
    "DependenceGraph",
    "KIND_CONST",
    "KIND_REF",
    "KIND_VAR",
    "OperandKey",
    "OperandTable",
    "PackIndex",
    "UseSite",
    "access_vector",
    "alignment_of",
    "flat_affine",
    "is_aligned",
    "is_const_key",
    "is_memory_key",
    "is_scalar_key",
    "loop_access_vectors",
    "operand_key",
    "pack_contiguity",
    "refs_may_alias",
    "refs_must_alias",
]

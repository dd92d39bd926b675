"""The 16-benchmark workload suite (Table 3).

The paper evaluates on the C/C++ floating-point half of SPEC2006 plus
six NAS benchmarks. We cannot ship those sources; instead each entry
here generates a kernel that reproduces the *dominant inner-loop
data-access and reuse pattern* of the corresponding application — which
is all the SLP stages are sensitive to (statement mix, isomorphism
structure, operand reuse, stride/alignment of the memory references).
DESIGN.md documents this substitution.

Patterns covered across the suite: unit-stride streaming, unaligned
stencils, interleaved (re/im) data, banded/strided accesses, per-point
scalar temporaries with cross-statement reuse, reductions kept scalar,
and heavy-latency ops (sqrt/div) — so the four variants separate the
same way the paper's Figure 16 categories do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..errors import OptionsError
from ..ir import FLOAT64, Program, ProgramBuilder


@dataclass(frozen=True)
class Kernel:
    """One benchmark: a name from Table 3, its suite, the paper's
    description, and a size-parameterized program generator."""

    name: str
    suite: str
    description: str
    builder: Callable[[int], Program]
    default_n: int = 256

    def build(self, n: int = 0) -> Program:
        """The kernel at size ``n``; 0 means ``default_n``."""
        if n < 0:
            raise OptionsError(
                f"kernel {self.name!r}: size n={n} is negative"
            )
        return self.builder(n or self.default_n)


# -- SPEC2006 ---------------------------------------------------------------------


def _cactusadm(n: int) -> Program:
    """Einstein evolution equations: 3-point stencils with shared
    neighbour temporaries (unaligned unit-stride reuse)."""
    b = ProgramBuilder("cactusADM")
    U = b.array("U", (16 * n + 16,), FLOAT64)
    V = b.array("V", (16 * n + 16,), FLOAT64)
    W = b.array("W", (16 * n + 16,), FLOAT64)
    tl, tr, lap = b.scalars("tl tr lap", FLOAT64)
    with b.loop("i", 1, n + 1) as i:
        b.assign(tl, U[i - 1] + U[i])
        b.assign(tr, U[i] + U[i + 1])
        b.assign(lap, tr - tl)
        b.assign(V[i], V[i] + lap * 0.5)
        b.assign(W[i], W[i] + lap * 0.25)
    return b.build()


def _soplex(n: int) -> Program:
    """Simplex pivot row update: pure unit-stride streaming axpy."""
    b = ProgramBuilder("soplex")
    Y = b.array("Y", (16 * n,), FLOAT64)
    M = b.array("M", (16 * n,), FLOAT64)
    p = b.scalar("p", FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(Y[i], Y[i] - p * M[i])
    return b.build()


def _lbm(n: int) -> Program:
    """Lattice Boltzmann stream/collide: nine distribution values per
    cell at stride 9 — the strided gather pattern layout replication
    turns into contiguous loads."""
    b = ProgramBuilder("lbm")
    F = b.array("F", (9 * (4 * n + 4),), FLOAT64)
    G = b.array("G", (9 * (4 * n + 4),), FLOAT64)
    RHO = b.array("RHO", (4 * n + 4,), FLOAT64)
    f0, f1, f2, f3, rho = b.scalars("f0 f1 f2 f3 rho", FLOAT64)
    omega = b.scalar("omega", FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(f0, F[9 * i] + G[9 * i])
        b.assign(f1, F[9 * i + 1] + G[9 * i + 1])
        b.assign(f2, F[9 * i + 2] + G[9 * i + 2])
        b.assign(f3, F[9 * i + 3] + G[9 * i + 3])
        b.assign(rho, (f0 + f1) + (f2 + f3))
        b.assign(RHO[i], rho * omega)
    return b.build()


def _milc(n: int) -> Program:
    """SU(3) lattice QCD: complex multiply reading interleaved re/im
    operands and writing planar outputs. The adjacent re/im loads seed
    the greedy packer into within-point pairs, so its product groups
    must gather their scalar operands; the holistic framework pairs the
    loads across points instead, turning every product operand into a
    direct register reuse. The stride-2 input accesses are also a
    de-interleaving layout candidate (Section 5.2)."""
    b = ProgramBuilder("milc")
    A = b.array("A", (8 * n + 8,), FLOAT64)   # interleaved re/im
    B = b.array("B", (8 * n + 8,), FLOAT64)
    CR = b.array("CR", (4 * n + 4,), FLOAT64)  # planar outputs
    CI = b.array("CI", (4 * n + 4,), FLOAT64)
    ar, ai, br, bi = b.scalars("ar ai br bi", FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(ar, A[2 * i])
        b.assign(ai, A[2 * i + 1])
        b.assign(br, B[2 * i])
        b.assign(bi, B[2 * i + 1])
        b.assign(CR[i], ar * br - ai * bi)
        b.assign(CI[i], ar * bi + ai * br)
    return b.build()


def _povray(n: int) -> Program:
    """Ray/normal dot products: per-ray scalar temporaries reused across
    statements — the scalar-superword layout case (Figure 13)."""
    b = ProgramBuilder("povray")
    DX = b.array("DX", (4 * n,), FLOAT64)
    DY = b.array("DY", (4 * n,), FLOAT64)
    NX = b.array("NX", (4 * n,), FLOAT64)
    NY = b.array("NY", (4 * n,), FLOAT64)
    OUT = b.array("OUT", (4 * n,), FLOAT64)
    dx, dy, px, py = b.scalars("dx dy px py", FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(dx, DX[i] * NX[i])
        b.assign(dy, DY[i] * NY[i])
        b.assign(px, dx + dy)
        b.assign(py, dx - dy)
        b.assign(OUT[i], px * py)
    return b.build()


def _gromacs(n: int) -> Program:
    """Nonbonded force inner loop: distance + reciprocal sqrt per pair
    (latency-heavy ops where SIMD work dominates pack cost)."""
    b = ProgramBuilder("gromacs")
    X = b.array("X", (4 * n,), FLOAT64)
    Y = b.array("Y", (4 * n,), FLOAT64)
    Fbuf = b.array("Fbuf", (4 * n,), FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(Fbuf[i], (X[i] * X[i] + Y[i] * Y[i]).sqrt())
    return b.build()


def _calculix(n: int) -> Program:
    """FE stiffness apply: 4-wide dense blocks at stride 4 with a
    shared per-element coefficient."""
    b = ProgramBuilder("calculix")
    K = b.array("K", (4 * (4 * n + 4),), FLOAT64)
    U = b.array("U", (4 * (4 * n + 4),), FLOAT64)
    R = b.array("R", (4 * (4 * n + 4),), FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(R[4 * i], R[4 * i] + K[4 * i] * U[4 * i])
        b.assign(R[4 * i + 1], R[4 * i + 1] + K[4 * i + 1] * U[4 * i + 1])
        b.assign(R[4 * i + 2], R[4 * i + 2] + K[4 * i + 2] * U[4 * i + 2])
        b.assign(R[4 * i + 3], R[4 * i + 3] + K[4 * i + 3] * U[4 * i + 3])
    return b.build()


def _dealii(n: int) -> Program:
    """Jacobi-style smoothing with neighbour-sum temporaries: the
    adjacent neighbour loads seed the greedy packer within one point,
    while the residual temporary's reuse wants the shifted cross-point
    pairing — a milder instance of the cactusADM/Figure-15 effect."""
    b = ProgramBuilder("dealII")
    A = b.array("A", (4 * n + 8,), FLOAT64)
    Bv = b.array("Bv", (4 * n + 8,), FLOAT64)
    Cv = b.array("Cv", (4 * n + 8,), FLOAT64)
    lo, hi, res = b.scalars("lo hi res", FLOAT64)
    with b.loop("i", 1, n + 1) as i:
        b.assign(lo, A[i - 1] + A[i])
        b.assign(hi, A[i] + A[i + 1])
        b.assign(res, hi - lo)
        b.assign(Cv[i], Bv[i] + res * 0.5)
    return b.build()


def _wrf(n: int) -> Program:
    """Multi-field time-step update: several independent contiguous
    streams advanced by the same dt."""
    b = ProgramBuilder("wrf")
    U = b.array("U", (4 * n,), FLOAT64)
    V = b.array("V", (4 * n,), FLOAT64)
    FU = b.array("FU", (4 * n,), FLOAT64)
    FV = b.array("FV", (4 * n,), FLOAT64)
    dt = b.scalar("dt", FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(U[i], U[i] + dt * FU[i])
        b.assign(V[i], V[i] + dt * FV[i])
    return b.build()


def _namd(n: int) -> Program:
    """Pairwise electrostatics over a padded neighbour structure: *no*
    reference pair in the body is memory-adjacent, so the greedy SLP
    baseline never finds a seed and leaves the loop scalar — while the
    holistic framework's reuse analysis still extracts superword
    statements (the paper's core criticism of seed-driven packing,
    Section 2). Strided accesses also make it a strong layout
    candidate."""
    b = ProgramBuilder("namd")
    Q = b.array("Q", (8 * n + 16,), FLOAT64)   # padded charge records
    EW = b.array("EW", (16 * n + 16,), FLOAT64)  # Ewald table
    F = b.array("F", (8 * n + 16,), FLOAT64)   # stride-4 force slots
    qa, qb, ea, eb, ga, gb = b.scalars("qa qb ea eb ga gb", FLOAT64)
    c1, c2 = b.scalars("c1 c2", FLOAT64)
    with b.loop("i", 1, n + 1) as i:
        b.assign(qa, Q[4 * i])                  # stride-4 record fields
        b.assign(qb, Q[4 * i + 2])
        b.assign(ea, qa * EW[8 * i])
        b.assign(ga, c1 * EW[8 * i - 2])
        b.assign(eb, qb * EW[8 * i + 4])
        b.assign(gb, c2 * EW[8 * i + 2])
        b.assign(F[4 * i], eb + qa * ea)        # reuses <eb,ga>,
        b.assign(F[4 * i + 2], ga + c2 * gb)    # <ea,gb>, <qa,c2>
    return b.build()


# -- NAS --------------------------------------------------------------------------


def _ua(n: int) -> Program:
    """Unstructured adaptive mesh: per-element records are padded to
    four slots, so *no* reference pair is memory-adjacent — the greedy
    baseline finds no seed and stays scalar, while the holistic
    framework still groups through the temporaries' reuse, and the
    layout stage linearizes the strided record fields."""
    b = ProgramBuilder("ua")
    E = b.array("E", (16 * n + 16,), FLOAT64)  # padded element records
    P = b.array("P", (4 * n + 4,), FLOAT64)
    lo, hi = b.scalars("lo hi", FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(lo, E[4 * i] * 0.75)
        b.assign(hi, E[4 * i + 2] * 0.25)
        b.assign(P[i], lo + hi)
    return b.build()


def _ft(n: int) -> Program:
    """Radix-2 butterfly over interleaved complex data. The sum outputs
    consume the input superword <X[2i], X[2i+1]> directly, while the
    difference outputs consume it *reversed* — an indirect superword
    reuse the holistic scheduler serves with one register permutation
    and the greedy baseline re-gathers from memory (Section 4.3)."""
    b = ProgramBuilder("ft")
    X = b.array("X", (4 * n + 8,), FLOAT64)    # interleaved re/im
    WR = b.array("WR", (2 * n + 4,), FLOAT64)
    WI = b.array("WI", (2 * n + 4,), FLOAT64)
    YP = b.array("YP", (4 * n + 8,), FLOAT64)  # x + t
    YM = b.array("YM", (4 * n + 8,), FLOAT64)  # reversed(x) - reversed(t)
    tr, ti = b.scalars("tr ti", FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(tr, X[2 * i] * WR[i] - X[2 * i + 1] * WI[i])
        b.assign(ti, X[2 * i] * WI[i] + X[2 * i + 1] * WR[i])
        b.assign(YP[2 * i], X[2 * i] + tr)
        b.assign(YP[2 * i + 1], X[2 * i + 1] + ti)
        b.assign(YM[2 * i], X[2 * i + 1] - ti)
        b.assign(YM[2 * i + 1], X[2 * i] - tr)
    return b.build()


def _bt(n: int) -> Program:
    """Block-tridiagonal solve: 5-wide bands at stride 5 (strided
    gathers that layout replication linearizes)."""
    b = ProgramBuilder("bt")
    D = b.array("D", (5 * (4 * n + 4),), FLOAT64)
    Xv = b.array("Xv", (4 * n + 4,), FLOAT64)
    Yv = b.array("Yv", (4 * n + 4,), FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(
            Yv[i],
            (D[5 * i] * Xv[i] + D[5 * i + 1] * Xv[i + 1])
            + (D[5 * i + 2] * Xv[i + 2] + D[5 * i + 3] * Xv[i + 3]),
        )
    return b.build()


def _sp(n: int) -> Program:
    """Scalar-pentadiagonal sweep: adjacent diagonal factors mislead the
    greedy packer into a within-point pair, while the elimination
    temporary's cross-point reuse (caught by the global analysis) wants
    the shifted pairing — the cactusADM/Figure-15 effect on a solver
    sweep."""
    b = ProgramBuilder("sp")
    P = b.array("P", (4 * n + 8,), FLOAT64)
    O1 = b.array("O1", (4 * n + 8,), FLOAT64)
    O2 = b.array("O2", (4 * n + 8,), FLOAT64)
    fl, fr, mid = b.scalars("fl fr mid", FLOAT64)
    c1 = b.scalar("c1", FLOAT64)
    with b.loop("i", 1, n + 1) as i:
        b.assign(fl, P[i] * c1)       # adjacent pair: misleading seed
        b.assign(fr, P[i + 1] * c1)
        b.assign(mid, fr - fl)
        b.assign(O1[i], O1[i] + mid * 0.5)
        b.assign(O2[i], O2[i] + mid * 0.25)
    return b.build()


def _mg(n: int) -> Program:
    """Multigrid restriction: fine-to-coarse stride-2 stencil."""
    b = ProgramBuilder("mg")
    U = b.array("U", (8 * n + 8,), FLOAT64)
    R = b.array("R", (4 * n + 4,), FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(
            R[i], (U[2 * i] + U[2 * i + 1] * 2.0 + U[2 * i + 2]) * 0.25
        )
    return b.build()


def _cg(n: int) -> Program:
    """Conjugate gradient vector update: contiguous axpy pair."""
    b = ProgramBuilder("cg")
    P = b.array("P", (4 * n,), FLOAT64)
    Q = b.array("Q", (4 * n,), FLOAT64)
    Z = b.array("Z", (4 * n,), FLOAT64)
    alpha = b.scalar("alpha", FLOAT64)
    with b.loop("i", 0, n) as i:
        b.assign(Z[i], Z[i] + alpha * P[i])
        b.assign(P[i], Q[i] + alpha * P[i])
    return b.build()


# -- branchy (control-flow) -------------------------------------------------------
#
# The predication family: every kernel's inner loop carries an if/else
# region (or a guarded update) that if-conversion must flatten before
# any SLP stage sees it. Conditions split within the simulator's
# uniform(1, 2) initial value range so both branch outcomes actually
# occur at runtime. BENCH_predication.json pins their vectorization
# metrics.


def _clamp_stencil(n: int) -> Program:
    """3-point average clamped to the centre value: the stencil
    statements pack like dealII's, and the clamp if-converts to one
    vselect pack per superword."""
    b = ProgramBuilder("clamp_stencil")
    U = b.array("U", (4 * n + 8,), FLOAT64)
    C = b.array("C", (4 * n + 8,), FLOAT64)
    s = b.scalar("s", FLOAT64)
    with b.loop("i", 1, n + 1) as i:
        b.assign(s, (U[i - 1] + U[i + 1]) * 0.5)
        with b.if_(s > U[i]):
            b.assign(C[i], U[i])
        with b.else_():
            b.assign(C[i], s)
    return b.build()


def _piecewise_poly(n: int) -> Program:
    """Two-piece polynomial evaluation: equal-length branches over the
    same target — the pure select-merge shape."""
    b = ProgramBuilder("piecewise_poly")
    X = b.array("X", (4 * n,), FLOAT64)
    Y = b.array("Y", (4 * n,), FLOAT64)
    with b.loop("i", 0, n) as i:
        with b.if_(X[i] < 1.5):
            b.assign(Y[i], X[i] * 0.5 + 0.25)
        with b.else_():
            b.assign(Y[i], X[i] * 2.0 - 1.5)
    return b.build()


def _masked_sum(n: int) -> Program:
    """Guarded accumulate with no else branch: the masked-update shape,
    where the converted select re-reads the target lane."""
    b = ProgramBuilder("masked_sum")
    A = b.array("A", (4 * n,), FLOAT64)
    Bv = b.array("B", (4 * n,), FLOAT64)
    ACC = b.array("ACC", (4 * n,), FLOAT64)
    with b.loop("i", 0, n) as i:
        with b.if_(A[i] > Bv[i]):
            b.assign(ACC[i], ACC[i] + (A[i] - Bv[i]))
    return b.build()


def _absdiff(n: int) -> Program:
    """|A - B| via a branch (the branchy idiom compilers if-convert in
    SAD loops): select-merge with mirrored subtractions."""
    b = ProgramBuilder("absdiff")
    A = b.array("A", (4 * n,), FLOAT64)
    Bv = b.array("B", (4 * n,), FLOAT64)
    D = b.array("D", (4 * n,), FLOAT64)
    with b.loop("i", 0, n) as i:
        with b.if_(A[i] > Bv[i]):
            b.assign(D[i], A[i] - Bv[i])
        with b.else_():
            b.assign(D[i], Bv[i] - A[i])
    return b.build()


# -- registry -----------------------------------------------------------------------

SPEC_KERNELS: List[Kernel] = [
    Kernel("cactusADM", "SPEC2006", "Solving the Einstein evolution equations", _cactusadm),
    Kernel("soplex", "SPEC2006", "Linear programming solver using simplex algorithm", _soplex),
    Kernel("lbm", "SPEC2006", "Lattice Boltzmann method", _lbm),
    Kernel("milc", "SPEC2006", "Simulations of 3-D SU(3) lattice gauge theory", _milc),
    Kernel("povray", "SPEC2006", "Ray-tracing: a rendering technique", _povray),
    Kernel("gromacs", "SPEC2006", "Performing molecular dynamics", _gromacs),
    Kernel("calculix", "SPEC2006", "Setting up finite element equations and solving them", _calculix),
    Kernel("dealII", "SPEC2006", "Object oriented finite element software library", _dealii),
    Kernel("wrf", "SPEC2006", "Weather research and forecasting", _wrf),
    Kernel("namd", "SPEC2006", "Simulation of large biomolecular systems", _namd),
]

NAS_KERNELS: List[Kernel] = [
    Kernel("ua", "NAS", "Unstructured adaptive 3-D", _ua),
    Kernel("ft", "NAS", "Fast fourier transform (FFT)", _ft),
    Kernel("bt", "NAS", "Block tridiagonal", _bt),
    Kernel("sp", "NAS", "Scalar pentadiagonal", _sp),
    Kernel("mg", "NAS", "Multigrid to solve the 3-D poisson PDE", _mg),
    Kernel("cg", "NAS", "Conjugate gradient", _cg),
]

BRANCHY_KERNELS: List[Kernel] = [
    Kernel("clamp_stencil", "branchy", "3-point stencil clamped to the centre value", _clamp_stencil),
    Kernel("piecewise_poly", "branchy", "Two-piece polynomial selected per element", _piecewise_poly),
    Kernel("masked_sum", "branchy", "Guarded accumulate into an array target", _masked_sum),
    Kernel("absdiff", "branchy", "Branchy absolute difference (SAD idiom)", _absdiff),
]

ALL_KERNELS: List[Kernel] = SPEC_KERNELS + NAS_KERNELS + BRANCHY_KERNELS

KERNELS: Dict[str, Kernel] = {k.name: k for k in ALL_KERNELS}


def build_kernel(name: str, n: int = 0) -> Program:
    """Build one benchmark program by Table 3 name."""
    return KERNELS[name].build(n)

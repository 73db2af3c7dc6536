"""Exact algebra of finitely generated subgroups of (R, +).

Membership and bases are decided by clearing denominators to a common
integer lattice and taking its unique Hermite normal form.  The staged
construction adjoins group elements one at a time and records the
integer change-of-basis matrix between consecutive stage bases; a tower
of stage bases and bonding matrices is checked on the same integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .intlinalg import (hnf_coefficients, hnf_rows, rational_rank,
                        solve_rational)
from .realfield import (RealVector, SymbolBasis, format_rational,
                        parse_rational)

__all__ = [
    "FinGenSubgroup",
    "BSequence",
    "BStage",
    "EquivalenceVerdict",
    "DependentGeneratorsError",
    "OutOfSpanError",
    "VerificationError",
    "bonding_fault",
    "build_b_sequence",
    "decide_equivalence",
]


class DependentGeneratorsError(ValueError):
    """B fails the exact Q-independence rank check."""


class OutOfSpanError(ValueError):
    """An adjoined element lies outside span_Q(B)."""


class VerificationError(AssertionError):
    """A certifying recheck found a result that breaks its specification.

    Raised explicitly, so the check also runs under ``python -O``.
    """


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise VerificationError(what)


def _clear_denominators(vectors: list[RealVector]) -> tuple[int, list[list[int]]]:
    """(d, rows): d is the lcm of the denominators of all coordinates of
    the vectors, and rows[k] the integer coordinates of d * vectors[k]."""
    dense = [v.dense() for v in vectors]
    d = lcm(1, *(q.denominator for row in dense for q in row))
    return d, [[q.numerator * (d // q.denominator) for q in row] for row in dense]


def bonding_fault(stage_bases: list[list[RealVector]],
                  matrices: list[list[list[int]]]) -> str | None:
    """First failure of the tower b^i = M_i b^{i+1}, or None when it holds.

    stage_bases[i - 1] is the stage-i basis b^i and matrices[i - 1] the
    integer bonding matrix M_i, which must be nonsingular.  Each stage is
    cleared once to (d_i, P_i) with b^i = P_i / d_i, so the identity is
    the integer equation d_{i+1} P_i = d_i M_i P_{i+1}.
    """
    if len(stage_bases) != len(matrices) + 1:
        return f"{len(stage_bases)} stage bases for {len(matrices)} bonding matrices"
    kappa = len(stage_bases[0])
    for i, basis in enumerate(stage_bases, start=1):
        if len(basis) != kappa:
            return f"stage {i} basis does not have kappa = {kappa} vectors"
    cleared = [_clear_denominators(basis) for basis in stage_bases]
    for i, m in enumerate(matrices, start=1):
        if [len(row) for row in m or ()] != [kappa] * kappa:
            return f"bonding matrix M_{i} is not {kappa} x {kappa}"
        if len(hnf_rows(m)) != kappa:
            return f"bonding matrix M_{i} is singular"
        (d, coarse), (d_next, fine) = cleared[i - 1], cleared[i]
        for r in range(kappa):
            image = [sum(m[r][s] * fine[s][j] for s in range(kappa))
                     for j in range(len(coarse[r]))]
            if [d_next * c for c in coarse[r]] != [d * c for c in image]:
                return f"stage {i} row {r} identity fails: b^{i} != M_{i} b^{i + 1}"
    return None


class FinGenSubgroup:
    """<generators>_Z inside the Q-span of a symbol basis.

    The lattice basis (unique HNF, denominators cleared) is computed
    eagerly; instances are immutable afterwards.
    """

    def __init__(self, basis_ctx: SymbolBasis, generators: list[RealVector]):
        for g in generators:
            if g.basis != basis_ctx:
                raise ValueError("generator uses a different symbol basis")
        self.basis_ctx = basis_ctx
        self.generators = list(generators)
        self._denom, int_rows = _clear_denominators(self.generators)
        self._hnf = hnf_rows(int_rows)
        self._lattice_basis = [
            RealVector(basis_ctx,
                       {j: Fraction(v, self._denom) for j, v in enumerate(row) if v})
            for row in self._hnf]

    @property
    def rank(self) -> int:
        return len(self._lattice_basis)

    def basis(self) -> list[RealVector]:
        """Deterministic Z-basis of the subgroup (HNF rows over the
        cleared denominator)."""
        return list(self._lattice_basis)

    def coefficients(self, x: RealVector):
        """Integer coefficients of x over the lattice basis, or None."""
        if x.basis != self.basis_ctx:
            raise ValueError("element uses a different symbol basis")
        # the lattice basis is the HNF over _denom, so x is a member
        # exactly when x * _denom is an integer point of the HNF lattice
        target = [q * self._denom for q in x.dense()]
        if any(q.denominator != 1 for q in target):
            return None
        return hnf_coefficients(self._hnf, [q.numerator for q in target])

    def contains(self, x: RealVector) -> bool:
        """Exact membership: x = sum n_i g_i for integers n_i."""
        return self.coefficients(x) is not None

    __contains__ = contains

    def is_trivial(self) -> bool:
        return self.rank == 0

    def same_group(self, other: "FinGenSubgroup") -> bool:
        """Equality as subgroups of (R, +).

        (_denom, _hnf) is a canonical form of the group: every element is
        an integer combination of the generators, so the lcm of the
        generators' denominators is the lcm over the whole group, and the
        HNF of the group scaled by it is unique.
        """
        if self.basis_ctx != other.basis_ctx:
            raise ValueError("the groups use different symbol bases")
        return (self._denom, self._hnf) == (other._denom, other._hnf)

    def to_json(self) -> dict:
        return {"basis": self.basis_ctx.to_json(),
                "generators": [g.to_json() for g in self.generators]}

    @classmethod
    def from_json(cls, data: dict) -> "FinGenSubgroup":
        ctx = SymbolBasis.from_json(data["basis"])
        gens = [RealVector.from_json(ctx, g) for g in data["generators"]]
        return cls(ctx, gens)

    def __repr__(self):
        return f"FinGenSubgroup(rank={self.rank}, generators={self.generators})"


@dataclass
class BStage:
    basis: list[RealVector]
    matrix: list[list[int]] | None  # None for stage 1
    lattice: FinGenSubgroup = field(repr=False)


@dataclass
class BSequence:
    """Staged bases {b_j^i} with integer bonding matrices M_i.

    Stage 1 basis equals B; stage i is a lattice basis of
    <stage(i-1) basis, h_i>, and M_{i-1} expresses each stage-(i-1)
    basis vector in the stage-i basis, exactly.
    """

    basis_ctx: SymbolBasis
    b: list[RealVector]
    elements: list[RealVector]
    stages: list[BStage]

    @property
    def kappa(self) -> int:
        return len(self.b)

    def matrices(self) -> list[list[list[int]]]:
        return [s.matrix for s in self.stages[1:]]

    def group(self) -> FinGenSubgroup:
        """The full (finite-prefix) group <B, h_2, ..., h_n>."""
        return FinGenSubgroup(self.basis_ctx, self.b + self.elements)

    def verify(self) -> None:
        """Recheck every structural invariant; raises VerificationError."""
        _require(self.stages[0].basis == self.b, "stage 1 basis differs from B")
        fault = bonding_fault([s.basis for s in self.stages], self.matrices())
        _require(fault is None, fault)
        for i in range(1, len(self.stages)):
            prev, cur = self.stages[i - 1], self.stages[i]
            _require(cur.lattice.contains(self.elements[i]),
                     f"stage {i + 1} lattice misses its adjoined element")
            _require(all(cur.lattice.contains(v) for v in prev.basis),
                     f"stage {i + 1} lattice misses the stage {i} basis")

    def to_json(self) -> dict:
        return {
            "basis": self.basis_ctx.to_json(),
            "B": [v.to_json() for v in self.b],
            "elements": [v.to_json() for v in self.elements],
            "stages": [{"basis": [v.to_json() for v in s.basis],
                        "matrix": s.matrix} for s in self.stages],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BSequence":
        ctx = SymbolBasis.from_json(data["basis"])
        b = [RealVector.from_json(ctx, v) for v in data["B"]]
        elements = [RealVector.from_json(ctx, v) for v in data["elements"]]
        return build_b_sequence(b, elements, ctx)


def build_b_sequence(b: list[RealVector], elements: list[RealVector],
                     basis_ctx: SymbolBasis | None = None) -> BSequence:
    """Stage the adjunction of `elements` to <B>_Z.

    elements[0] must be the zero vector (the group's identity heads the
    enumeration); each later element must lie in span_Q(B).
    """
    if not b:
        raise ValueError("B must be nonempty")
    ctx = basis_ctx or b[0].basis
    n = len(ctx.symbols)
    b_dense = [v.dense(n) for v in b]
    if rational_rank(b_dense) != len(b):
        raise DependentGeneratorsError("B is not Q-independent")
    if not elements or not elements[0].is_zero():
        raise ValueError("elements[0] must be 0")
    for h in elements:
        if solve_rational(b_dense, h.dense(n)) is None:
            raise OutOfSpanError(f"{h!r} is outside span_Q(B)")

    stage1 = BStage(basis=list(b), matrix=None,
                    lattice=FinGenSubgroup(ctx, list(b)))
    stages = [stage1]
    for h in elements[1:]:
        prev = stages[-1]
        if prev.lattice.contains(h):
            # degenerate adjunction: keep the basis, identity bonding
            ident = [[1 if r == s else 0 for s in range(len(b))]
                     for r in range(len(b))]
            stages.append(BStage(basis=list(prev.basis), matrix=ident,
                                 lattice=prev.lattice))
            continue
        lattice = FinGenSubgroup(ctx, prev.basis + [h])
        # h passed solve_rational above, so the rank stays kappa
        basis = lattice.basis()
        mat = []
        for v in prev.basis:
            coeffs = lattice.coefficients(v)
            _require(coeffs is not None, "stage basis does not contain predecessor")
            mat.append(coeffs)
        stages.append(BStage(basis=basis, matrix=mat, lattice=lattice))
    seq = BSequence(basis_ctx=ctx, b=list(b), elements=list(elements),
                    stages=stages)
    seq.verify()
    return seq


@dataclass
class EquivalenceVerdict:
    status: str  # EQUIVALENT | NOT_EQUIVALENT | UNDECIDED
    scalar: object = None  # Fraction or RealVector when EQUIVALENT
    witness: str | None = None
    notes: str = ""

    def __bool__(self):
        return self.status == "EQUIVALENT"


def _scaled_generators(group: FinGenSubgroup, a):
    if isinstance(a, RealVector):
        return [a.mul(g) for g in group.basis()]
    return [g.scale(a) for g in group.basis()]


def _verify_scalar(m: FinGenSubgroup, n: FinGenSubgroup, a) -> bool:
    """Exact check that M = a*N."""
    return m.same_group(FinGenSubgroup(n.basis_ctx, _scaled_generators(n, a)))


def decide_equivalence(m: FinGenSubgroup, n: FinGenSubgroup,
                       candidate=None) -> EquivalenceVerdict:
    """Decide whether M = a*N for some nonzero scalar a.

    A caller-supplied candidate (rational, or a RealVector with a
    product table) is verified exactly first.  Otherwise the verdict is

    - NOT_EQUIVALENT when the ranks differ, the only obstruction this
      decides for all scalars;
    - EQUIVALENT with the positive rational scalar |a| when one exists.
      Both bases are unique Hermite normal forms with positive pivots,
      and a positive multiple of one is again one, so M = a*N with a
      rational makes M's basis exactly |a| times N's.  The one candidate
      is therefore the ratio of the first pivots, verified two-sided;
    - UNDECIDED otherwise: no rational scalar works, and no irrational
      candidate was verified (`apexp group equiv` exits 2 on it).  Two
      rank-1 groups <m> and <n> are always equivalent over R, with
      a = m/n, so for rank 1 UNDECIDED only means that m/n is irrational.
    """
    if m.is_trivial() or n.is_trivial():
        raise ValueError("both groups must be nontrivial")
    if m.basis_ctx != n.basis_ctx:
        raise ValueError("the groups use different symbol bases")
    if candidate is not None:
        a = candidate if isinstance(candidate, RealVector) else parse_rational(candidate)
        if _verify_scalar(m, n, a):
            return EquivalenceVerdict("EQUIVALENT", scalar=a,
                                      notes="candidate verified two-sided")
    if m.rank != n.rank:
        return EquivalenceVerdict(
            "NOT_EQUIVALENT",
            witness=f"rank {m.rank} != rank {n.rank}",
            notes="torsion-free rank is a scaling invariant")
    m0, n0 = m.basis()[0].coords, n.basis()[0].coords
    a = m0[min(m0)] / n0[min(n0)]
    if _verify_scalar(m, n, a):
        return EquivalenceVerdict("EQUIVALENT", scalar=a,
                                  notes="ratio of the first pivots, verified two-sided")
    return EquivalenceVerdict(
        "UNDECIDED",
        notes=f"the only rational candidate {format_rational(a)} fails; "
              "irrational scalars need a candidate plus a product table")

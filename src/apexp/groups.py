"""Exact algebra of finitely generated subgroups of (R, +).

Membership and bases are decided by clearing denominators to a common
integer lattice and taking its unique Hermite normal form.  The staged
construction adjoins group elements one at a time and records the
integer change-of-basis matrix between consecutive stage bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .intlinalg import hnf_coefficients, hnf_rows, rational_rank, solve_rational
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
        n = len(basis_ctx.symbols)
        dense = [g.dense(n) for g in generators]
        self._denom = lcm(1, *(q.denominator for row in dense for q in row))
        int_rows = [[int(q * self._denom) for q in row] for row in dense]
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
        return (all(self.contains(b) for b in other.basis())
                and all(other.contains(b) for b in self.basis()))

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
        for i, stage in enumerate(self.stages, start=1):
            _require(len(stage.basis) == self.kappa,
                     f"stage {i} basis does not have kappa vectors")
        for i in range(1, len(self.stages)):
            prev, cur = self.stages[i - 1], self.stages[i]
            mat = cur.matrix
            _require(mat is not None and len(mat) == self.kappa,
                     f"stage {i + 1} bonding matrix does not have kappa rows")
            for r in range(self.kappa):
                acc = self.basis_ctx.zero()
                for s in range(self.kappa):
                    acc = acc + cur.basis[s].scale(mat[r][s])
                _require(acc == prev.basis[r],
                         f"stage {i + 1} row {r} identity fails")
            _require(len(hnf_rows(mat)) == self.kappa,
                     f"stage {i + 1} bonding matrix is singular")
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
        basis = lattice.basis()
        if len(basis) != len(b):
            raise OutOfSpanError("stage rank changed; element outside span_Q(B)")
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
    """Exact two-sided check that M = a*N."""
    scaled = _scaled_generators(n, a)
    if not all(m.contains(v) for v in scaled):
        return False
    # m_gen in a*N  <=>  a^{-1} m_gen in N; avoid inverses by membership
    # in the lattice generated by the scaled basis
    a_n = FinGenSubgroup(n.basis_ctx, scaled)
    return all(a_n.contains(g) for g in m.basis())


def decide_equivalence(m: FinGenSubgroup, n: FinGenSubgroup,
                       candidate=None, search_bound: int = 6) -> EquivalenceVerdict:
    """Decide whether M = a*N for some nonzero scalar a.

    Complete for rank mismatches and for rank 1 with a rational
    generator ratio; otherwise a bounded search over rational scalars
    p/q with |p|, q <= search_bound, returning UNDECIDED on exhaustion.
    A caller-supplied candidate (rational or RealVector with a product
    table) is verified exactly before anything else.
    """
    if m.is_trivial() or n.is_trivial():
        raise ValueError("both groups must be nontrivial")
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
    if m.rank == 1:
        mv = m.basis()[0].dense()
        nv = n.basis()[0].dense()
        ratio = None
        for a, bq in zip(mv, nv):
            if (a == 0) != (bq == 0):
                ratio = None
                break
            if bq != 0:
                r = a / bq
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    ratio = None
                    break
        if ratio is not None:
            return EquivalenceVerdict("EQUIVALENT", scalar=ratio,
                                      notes="rank-1 generator ratio")
        return EquivalenceVerdict(
            "NOT_EQUIVALENT",
            witness="rank-1 generator ratio is irrational in this symbol model",
            notes="complete only when the ambient scalars are rational")
    # bounded search over rational scalars, increasing height
    tried = set()
    for height in range(1, search_bound + 1):
        # positive scalars first; -a works whenever a does
        for p in list(range(1, height + 1)) + list(range(-height, 0)):
            for q in range(1, height + 1):
                if p == 0 or max(abs(p), q) != height:
                    continue
                a = Fraction(p, q)
                if a in tried:
                    continue
                tried.add(a)
                if _verify_scalar(m, n, a):
                    return EquivalenceVerdict("EQUIVALENT", scalar=a,
                                              notes="found by bounded search")
    return EquivalenceVerdict(
        "UNDECIDED",
        notes=f"no rational scalar of height <= {search_bound} works; "
              "irrational scalars need a candidate plus a product table")

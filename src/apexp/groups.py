"""Exact algebra of finitely generated subgroups of (R, +).

Everything runs on cleared integer rows: a set of vectors is cleared
once, from its sparse coordinates, to (d, rows) with d the lcm of all
coordinate denominators, and a group is kept as the canonical pair
(d, H), H the unique Hermite normal form of the rows.  Membership tests
an element's coordinates against d as integers and back-substitutes in
H, so no Fraction is built on that path.

The staged construction adjoins group elements one at a time.  Whether
B is Q-independent and whether every element lies in span_Q(B) are HNF
ranks of one cleared matrix (Z-rank equals Q-rank).  Each stage is
kept as (d_i, H_i): adjoining h rescales the stage basis rows to the
new common denominator, inserts h's row and takes the HNF, and the
bonding matrix is read off by back-substitution.  Fractions appear only
in the stored stage bases.

BSequence.verify certifies a tower from its stored data alone: stage 1
is B, every b^i = M_i b^{i+1} holds with M_i nonsingular
(bonding_fault), and the stage-(i+1) basis spans exactly
<b^i, h_{i+1}>_Z, compared as canonical pairs.  build_b_sequence ends
with it, and SolenoidSystem.from_bsequence relies on it instead of
checking the tower a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .intlinalg import hnf_coefficients, hnf_rows
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
    d = lcm(1, *(q.denominator for v in vectors for q in v.coords.values()))
    rows = []
    for v in vectors:
        row = [0] * len(v.basis.symbols)
        for j, q in v.coords.items():
            row[j] = q.numerator * (d // q.denominator)
        rows.append(row)
    return d, rows


def _adjoin(d: int, rows: list[list[int]], h: RealVector):
    """(d', rows', h_row): the integer rows of rows / d and of h over
    their common denominator d' = lcm(d, denominators of h)."""
    d_h, (h_row,) = _clear_denominators([h])
    d_next = lcm(d, d_h)
    return (d_next, [[c * (d_next // d) for c in row] for row in rows],
            [c * (d_next // d_h) for c in h_row])


def _vectors(ctx: SymbolBasis, d: int, rows: list[list[int]]) -> list[RealVector]:
    """The vectors rows[k] / d."""
    return [RealVector(ctx, {j: Fraction(v, d) for j, v in enumerate(row) if v})
            for row in rows]


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
            image = [0] * len(coarse[r])
            for s, c in enumerate(m[r]):
                if c:
                    image = [a + c * x for a, x in zip(image, fine[s])]
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
        self._lattice_basis = _vectors(basis_ctx, self._denom, self._hnf)

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
        d = self._denom
        target = [0] * len(self.basis_ctx.symbols)
        for j, q in x.coords.items():
            if d % q.denominator:
                return None
            target[j] = q.numerator * (d // q.denominator)
        return hnf_coefficients(self._hnf, target)

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

    @property
    def lattice(self) -> FinGenSubgroup:
        """The stage lattice <basis>_Z."""
        return FinGenSubgroup(self.basis[0].basis, self.basis)


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
        """Recheck the stored tower; raises VerificationError.

        Certifies that stage 1 is B, that b^i = M_i b^{i+1} with M_i
        nonsingular (bonding_fault, the first check), and that each
        stage-(i+1) basis spans exactly <b^i, h_{i+1}>_Z.
        """
        _require(self.stages[0].basis == self.b, "stage 1 basis differs from B")
        fault = bonding_fault([s.basis for s in self.stages], self.matrices())
        _require(fault is None, fault)
        _require(len(self.elements) == len(self.stages),
                 f"{len(self.elements)} elements for {len(self.stages)} stages")
        # (lcm of denominators, HNF) is a canonical form of a group
        # (FinGenSubgroup.same_group)
        cleared = [_clear_denominators(s.basis) for s in self.stages]
        for i in range(1, len(self.stages)):
            (d, prev), (d_next, cur) = cleared[i - 1], cleared[i]
            d_join, prev_rows, h_row = _adjoin(d, prev, self.elements[i])
            _require((d_join, hnf_rows(prev_rows + [h_row])) == (d_next, hnf_rows(cur)),
                     f"stage {i + 1} basis does not span <b^{i}, h_{i + 1}>")

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
    kappa = len(b)
    # Z-rank equals Q-rank, so HNF ranks of one cleared matrix decide
    # both the independence of B and the span of every element
    _, rows = _clear_denominators(b + elements)
    if len(hnf_rows(rows[:kappa])) != kappa:
        raise DependentGeneratorsError("B is not Q-independent")
    if not elements or not elements[0].is_zero():
        raise ValueError("elements[0] must be 0")
    if len(hnf_rows(rows)) != kappa:
        h = next(h for h, row in zip(elements, rows[kappa:])
                 if len(hnf_rows(rows[:kappa] + [row])) != kappa)
        raise OutOfSpanError(f"{h!r} is outside span_Q(B)")

    # the current stage as integers: basis rows over d, and the HNF of
    # its lattice
    d, basis_rows = _clear_denominators(b)
    lattice = hnf_rows(basis_rows)
    stages = [BStage(basis=list(b), matrix=None)]
    for h in elements[1:]:
        d_next, prev_rows, h_row = _adjoin(d, basis_rows, h)
        if d_next == d and hnf_coefficients(lattice, h_row) is not None:
            # degenerate adjunction: keep the basis, identity bonding
            ident = [[int(r == s) for s in range(kappa)] for r in range(kappa)]
            stages.append(BStage(basis=list(stages[-1].basis), matrix=ident))
            continue
        lattice = hnf_rows(prev_rows + [h_row])
        # h lies in span_Q(B), so the rank stays kappa
        mat = [hnf_coefficients(lattice, row) for row in prev_rows]
        d, basis_rows = d_next, lattice
        stages.append(BStage(basis=_vectors(ctx, d, lattice), matrix=mat))
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

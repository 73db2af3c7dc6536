"""Truncated inverse limits of tori and the linear flow on them.

A SolenoidSystem stores the integer bonding matrices of a staged basis
construction; a point is one (depth, kappa) array of circle coordinates,
one row per stage, and must be compatible under the bonding matrices
mod 1.  Leading axes hold a batch of points, so a grid of times is
evaluated and checked in one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circmath import METRIC_TORUS, dist, frac
from .exponents import TOL_LIMIT, TOL_ORBIT, NonConvergentError, presented_limits
from .groups import BSequence, FinGenSubgroup, bonding_fault
from .realfield import RealVector

__all__ = [
    "SolenoidSystem",
    "SolenoidPoint",
    "InconsistentPointError",
    "NonConvergentError",
    "pi_solenoid",
    "flow_step",
    "point_add",
    "semiconjugacy_to_solenoid",
]

TOL_CONSIST = 1e-9


class InconsistentPointError(ValueError):
    """Stage coordinates fail the bonding-matrix compatibility check."""


@dataclass
class SolenoidSystem:
    kappa: int
    matrices: list[np.ndarray]          # M_1 .. M_{n-1}, integer kappa x kappa
    stage_bases: list[list[RealVector]]  # bases used for pi evaluation

    def __post_init__(self):
        self.matrices = [np.asarray(m, dtype=np.int64) for m in self.matrices]
        if any(m.shape != (self.kappa, self.kappa) for m in self.matrices):
            raise ValueError("bonding matrix has wrong shape")
        fault = bonding_fault(self.stage_bases, [m.tolist() for m in self.matrices])
        if fault is not None:
            raise ValueError(fault)

    @property
    def depth(self) -> int:
        return len(self.stage_bases)

    @classmethod
    def from_bsequence(cls, seq: BSequence) -> "SolenoidSystem":
        """The system of a tower that build_b_sequence has certified
        (BSequence.verify).  The tower is not checked a second time, so
        a sequence changed after it was built needs seq.verify() first.
        """
        system = cls.__new__(cls)
        system.kappa = seq.kappa
        system.matrices = [np.asarray(m, dtype=np.int64) for m in seq.matrices()]
        system.stage_bases = [list(s.basis) for s in seq.stages]
        return system

    def dual_generator_group(self) -> FinGenSubgroup:
        """Subgroup of (R, +) generated by all stage basis values."""
        ctx = self.stage_bases[0][0].basis
        gens = [v for basis in self.stage_bases for v in basis]
        return FinGenSubgroup(ctx, gens)

    def to_json(self) -> dict:
        return {"kappa": self.kappa,
                "matrices": [m.tolist() for m in self.matrices],
                "basis": self.stage_bases[0][0].basis.to_json(),
                "stage_bases": [[v.to_json() for v in basis]
                                for basis in self.stage_bases]}

    @classmethod
    def from_json(cls, data: dict) -> "SolenoidSystem":
        from .realfield import SymbolBasis
        ctx = SymbolBasis.from_json(data["basis"])
        bases = [[RealVector.from_json(ctx, v) for v in basis]
                 for basis in data["stage_bases"]]
        return cls(kappa=data["kappa"], matrices=data["matrices"],
                   stage_bases=bases)


@dataclass
class SolenoidPoint:
    stages: np.ndarray  # (..., depth, kappa) circle coordinates in [0,1)

    def __post_init__(self):
        self.stages = frac(np.asarray(self.stages, dtype=float))

    def consistency_residual(self, system: SolenoidSystem) -> float:
        """Largest torus distance between stage i and M_i times stage
        i+1, over all stages and all points of a batch."""
        if not system.matrices:
            return 0.0
        fine = self.stages[..., 1:, :, None]
        images = frac((np.array(system.matrices) @ fine)[..., 0])
        return float(dist(images, self.stages[..., :-1, :], METRIC_TORUS).max())

    def check_consistent(self, system: SolenoidSystem, tol=TOL_CONSIST):
        r = self.consistency_residual(system)
        if r > tol:
            raise InconsistentPointError(f"consistency residual {r:.3g} > {tol:.3g}")

    def dist(self, other: "SolenoidPoint") -> float:
        return float(dist(self.stages, other.stages, METRIC_TORUS).max())


def pi_solenoid(system: SolenoidSystem, t) -> SolenoidPoint:
    """The one-parameter subgroup point: stage i coord j = frac(t * b_j^i).

    t is a time or a 1-D array of times; an array gives a batch of
    points with stages of shape (len(t), depth, kappa).
    """
    freqs = np.array([[v.eval() for v in basis] for basis in system.stage_bases])
    t = np.asarray(t, dtype=float)
    return SolenoidPoint(frac(t[..., None, None] * freqs))


def flow_step(system: SolenoidSystem, t: float, x: SolenoidPoint,
              tol=TOL_CONSIST) -> SolenoidPoint:
    x.check_consistent(system, tol)
    return point_add(x, pi_solenoid(system, t))


def point_add(x: SolenoidPoint, y: SolenoidPoint) -> SolenoidPoint:
    if x.stages.shape != y.stages.shape:
        raise ValueError("points live on different systems")
    return SolenoidPoint(frac(x.stages + y.stages))


def semiconjugacy_to_solenoid(orbit, seq: BSequence, times,
                              tol_orbit=TOL_ORBIT, tol_limit=TOL_LIMIT,
                              tail: int = 8) -> SolenoidPoint:
    """Evaluate the semiconjugacy image of the point presented by an
    f-sequence: stage coordinates are the numeric limits of
    frac(b_j^i * t_i).

    `orbit` is an OrbitEvaluator and `times` an f-sequence of it.
    Raises NonConvergentError if the orbit tail spread exceeds tol_orbit
    or any coordinate tail spread exceeds tol_limit (presented_limits).
    """
    coords = presented_limits(
        orbit, times, {f"stage {i} coord {j}": v.eval()
                       for i, basis in enumerate(seq.stages)
                       for j, v in enumerate(basis.basis)},
        tol_orbit=tol_orbit, tol_limit=tol_limit, tail=tail)
    return SolenoidPoint(np.reshape(coords, (len(seq.stages), seq.kappa)))

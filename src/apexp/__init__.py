"""Exact algebra on finitely generated subgroups of the reals, staged
refinement towers with their dual solenoid flows, circle dynamics
(rotation numbers, a constructive blown-up rotation, suspensions), and
numeric exponent probes driven by simultaneous-approximation searches.
"""

from .circmath import (METRIC_CYLINDER, METRIC_EUCLIDEAN, METRIC_TORUS,
                       circle_dist, frac)
from .exponents import (FSequence, KroneckerQuery, OrbitEvaluator,
                        build_breaker_sequence, find_f_sequences,
                        induced_circle_map, kronecker_solve, probe_exponent,
                        scan_almost_periods)
from .groups import (BSequence, FinGenSubgroup, build_b_sequence,
                     decide_equivalence)
from .circle import (CircleLift, DenjoyMap, SuspensionPoint, build_denjoy,
                     mu_rotation, rotation_lift, rotation_number,
                     suspension_flow, suspension_semiconjugacy)
from .realfield import RealVector, SymbolBasis
from .scenarios import SCENARIOS, run_scenario
from .solenoid import (LinearFlowSpec, SolenoidPoint, SolenoidSystem,
                       flow_step, pi_solenoid, point_add,
                       semiconjugacy_to_solenoid)

__version__ = "0.1.0"

__all__ = [
    "METRIC_CYLINDER", "METRIC_EUCLIDEAN", "METRIC_TORUS",
    "circle_dist", "frac",
    "FSequence", "KroneckerQuery", "OrbitEvaluator",
    "build_breaker_sequence", "find_f_sequences", "induced_circle_map",
    "kronecker_solve", "probe_exponent", "scan_almost_periods",
    "BSequence", "FinGenSubgroup", "build_b_sequence", "decide_equivalence",
    "CircleLift", "DenjoyMap", "SuspensionPoint", "build_denjoy",
    "mu_rotation", "rotation_lift", "rotation_number", "suspension_flow",
    "suspension_semiconjugacy",
    "RealVector", "SymbolBasis",
    "SCENARIOS", "run_scenario",
    "LinearFlowSpec", "SolenoidPoint", "SolenoidSystem", "flow_step",
    "pi_solenoid", "point_add", "semiconjugacy_to_solenoid",
    "__version__",
]

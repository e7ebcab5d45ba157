"""Inertial ADMM and Douglas-Rachford solvers over R^n.

Solvers for min f(x) + g(Lx) and min sum_i f_i(x) with inertial
extrapolation and relaxation, a catalog of proximable convex functions,
parameter-region tooling, and primal-dual diagnostics.
"""

__version__ = "0.1.0"

from .admm import (
    IadmmState,
    ProblemSpec,
    SubproblemError,
    XUpdateStrategy,
    classical_admm,
    run_iadmm,
)
from .consensus import (
    ConsensusProblem,
    boyd_consensus,
    run_sum1,
    run_sum2,
)
from .dr import IdrState, ResolventOp, idr_step, run_idr
from .duality import (
    DualityReport,
    dual_value,
    duality_report,
    hypothesis_check,
    kkt_residual,
    primal_value,
)
from .functions import (
    ConvexFn,
    IndicatorBox,
    IndicatorConsensus,
    IndicatorHyperplane,
    IndicatorPoint,
    L1Norm,
    L2Norm,
    Quadratic,
    SeparableSum,
    Translated,
    Zero,
)
from .linalg import LinearMap
from .params import (
    InertialParams,
    InfeasibleParameters,
    constant_schedule,
    default_params,
    delta_lower_bound,
    delta_roots,
    max_relaxation,
    ramp_schedule,
    validate,
)
from .trace import SolveTrace

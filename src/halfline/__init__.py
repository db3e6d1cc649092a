"""Scattering for matrix Schrodinger operators on the half line.

The package computes Jost matrices, scattering matrices, and their
zero-energy limits for the half-line matrix Schrodinger equation under the
most general selfadjoint vertex condition, with compactly supported
piecewise-constant Hermitian matrix potentials.

Layering:

* :mod:`halfline.bc` - vertex conditions and their equivalent formulations;
* :mod:`halfline.solver` - matrix solutions by exact piecewise propagation;
* :mod:`halfline.scattering` - J(k), S(k), and structural identities;
* :mod:`halfline.lowenergy` - the Jordan pipeline for S(0) and the
  small-k behavior of J(k)^(-1);
* :mod:`halfline.fixtures` - bundled reference vertex conditions with
  known closed-form answers;
* :mod:`halfline.cli` - configuration-driven command line front end.
"""

from .bc import (
    BCPair,
    UnitaryBC,
    ValidationReport,
    bc_subspace_equal,
    dirichlet,
    from_angles,
    from_kostrykin,
    from_unitary,
    gauge_transform,
    neumann,
    normalize,
    to_unitary,
    validate_ab,
    validate_kostrykin,
)
from .errors import (
    HalflineError,
    JordanAmbiguityError,
    NumericalError,
    ValidationError,
)
from .lowenergy import (
    JordanData,
    LowEnergyExpansion,
    LowEnergyResult,
    jordan_form,
    jost_inverse_asymptotics,
    z_of_k,
    zero_energy_pipeline,
)
from .scattering import (
    JostEvaluation,
    SMatrixEvaluation,
    jost_decomposition,
    jost_matrix,
    jost_matrix_zero,
    l_matrix,
    log_derivative,
    p_matrix,
    smatrix,
    smatrix_grid,
)
from .solver import (
    Potential,
    StateMatrix,
    free_potential,
    jost_solution,
    moment_identities_residual,
    propagate,
    regular_solution,
    wronskian,
)

__version__ = "0.1.0"

"""Detection of two-mode bosonic entanglement from moments of the partially
transposed state, with multicopy linear-optics readout simulation."""

# The one version literal: pyproject.toml and reporting's provenance read it.
# Defined before the imports so that submodules can import it.
__version__ = "0.1.0"

from .criteria import (
    CriterionReport,
    PtMomentVector,
    descartes_test,
    gaussian_physicality_bound,
    hankel_matrix,
    hankel_test,
    newton_elementary,
    optimal_threshold,
    p3_linear,
    p3_optimal,
    p3_quadratic,
    simon_gaussian3,
)
from .fock import (
    DEFAULT_TOL,
    BipartiteDensityOperator,
    ModeCutoff,
    ToleranceProfile,
    coherent_cutoff,
    partial_transpose,
    pt_moment,
    pt_moments,
    purity,
    spectrum,
)
from .gaussian import (
    CovarianceMatrix,
    SymplecticPair,
    gaussian_pt_moment,
    gaussian_pt_moments,
    simon_test,
    symplectic_p3_criteria,
    tmsv_thermal,
    tmsv_thermal_pt_pair,
)

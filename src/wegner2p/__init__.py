"""Two-particle lattice disorder models and spectral concentration experiments.

The package builds finite-volume Hamiltonians for a pair of interacting
particles hopping on Z^d in an IID random potential, computes their spectra,
and checks concentration-of-spectra bounds (single box and pairs of distant
boxes) against exact enumeration or seeded Monte Carlo.

Modules
-------
lattice      pair points, boxes, projection sites, separation classifier
potential    disorder laws, concentration function, field sampling
hamiltonian  hopping graph by Kronecker products, interaction, a size limit on
             one matrix, assembly in stacks of one byte budget, the BLAS pin
stollmann    diagonally monotone functions and Stollmann-type bounds
spectral     spectra from sector blocks, their gaps, eigenvalue monotonicity checks
experiments  analytic ceiling, single-volume and two-volume bound experiments
cli          command line front end
"""

from ._version import __version__

from .lattice import (
    BoxSpec,
    PairPoint,
    SeparationClass,
    SeparationSurvey,
    classify_separation,
    make_box,
    projection_sites,
    survey_separation_line,
    survey_separation_plane,
)
from .potential import (
    DistributionSpec,
    RngStream,
    concentration,
    sample_field,
)
from .hamiltonian import (
    HamiltonianSpec,
    HamiltonianTemplate,
    InteractionSpec,
)
from .stollmann import (
    DMFunctionSpec,
    DMReport,
    IntervalSpec,
    stollmann_exact,
    stollmann_mc,
)
from .spectral import spectra, verify_dm_eigenvalues
from .experiments import (
    ExperimentConfig,
    TwoVolumeBound,
    TwoVolumeReport,
    WegnerReport,
    analytic_bound,
    run_single_volume,
    run_two_volume,
    trial_values,
)

__all__ = [
    "__version__",
    "BoxSpec",
    "PairPoint",
    "SeparationClass",
    "SeparationSurvey",
    "classify_separation",
    "make_box",
    "projection_sites",
    "survey_separation_line",
    "survey_separation_plane",
    "DistributionSpec",
    "RngStream",
    "concentration",
    "sample_field",
    "HamiltonianSpec",
    "HamiltonianTemplate",
    "InteractionSpec",
    "DMFunctionSpec",
    "DMReport",
    "IntervalSpec",
    "stollmann_exact",
    "stollmann_mc",
    "spectra",
    "verify_dm_eigenvalues",
    "ExperimentConfig",
    "TwoVolumeBound",
    "TwoVolumeReport",
    "WegnerReport",
    "analytic_bound",
    "run_single_volume",
    "run_two_volume",
    "trial_values",
]

"""Numerical toolkit for quantum phase-space representations.

Computes Wigner, quasicharacteristic, Husimi, and coherent matrix-element
representations of finite Gaussian-Hermite mixtures on uniform lattices;
evaluates weighted sup-seminorms and the decay bounds that relate the
representations; ships an identity-check suite and a CLI front end.
Units: hbar = 1 throughout; phase-space points are (x, p) pairs.
"""

from .bounds import (
    BoundContext,
    BoundReport,
    cauchy_schwarz_reports,
    offdiag_bound_rhs,
    offdiag_reports,
)
from .grid import (
    Grid,
    GridResolutionError,
    PhaseSpaceFn,
    omega_matrix,
    spectral_derivative,
    suggest_grid,
    symplectic_form,
    symplectic_fourier,
)
from .multiindex import as_index, binom, box, monomial, order, swap_xp
from .seminorms import (
    SeminormReport,
    decay_norm_from_table,
    joint_seminorm,
    kernel_seminorm,
    norm_sum,
    norm_sum_from_table,
    operator_seminorm,
    scaled_components,
    seminorm,
    seminorm_table,
)
from .states import (
    Atom,
    MixedState,
    PlateauState,
    PureState,
    as_mixed,
    demo_state,
    displacement_matrix_element,
    fock_state,
    load_state,
    random_mixture,
    random_pure_state,
    save_state,
    vacuum_state,
    wigner_values,
)
from .transforms import (
    MatelSampler,
    husimi,
    matel,
    momentum_density,
    momentum_marginal,
    offdiag_wigner,
    quasichar,
    twisted_convolution,
    twisted_convolution_grid,
    wigner,
    wigner_pointwise,
)
from .verify import VerifyReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BoundContext",
    "BoundReport",
    "Grid",
    "GridResolutionError",
    "MatelSampler",
    "MixedState",
    "PhaseSpaceFn",
    "PlateauState",
    "PureState",
    "SeminormReport",
    "VerifyReport",
    "as_index",
    "as_mixed",
    "binom",
    "box",
    "cauchy_schwarz_reports",
    "decay_norm_from_table",
    "demo_state",
    "displacement_matrix_element",
    "fock_state",
    "husimi",
    "joint_seminorm",
    "kernel_seminorm",
    "load_state",
    "matel",
    "momentum_density",
    "momentum_marginal",
    "monomial",
    "norm_sum",
    "norm_sum_from_table",
    "offdiag_bound_rhs",
    "offdiag_reports",
    "offdiag_wigner",
    "omega_matrix",
    "operator_seminorm",
    "order",
    "quasichar",
    "random_mixture",
    "random_pure_state",
    "run_suite",
    "save_state",
    "scaled_components",
    "seminorm",
    "seminorm_table",
    "spectral_derivative",
    "suggest_grid",
    "swap_xp",
    "symplectic_form",
    "symplectic_fourier",
    "twisted_convolution",
    "twisted_convolution_grid",
    "vacuum_state",
    "wigner",
    "wigner_pointwise",
    "wigner_values",
]

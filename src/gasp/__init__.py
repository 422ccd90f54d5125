"""Weighted half-space Poisson kernels, hitting distributions, and growth scans.

The library is organized bottom-up:

- ``special_functions``: gamma, log K_nu and the normalized profile
  phi_nu, on in-house quadratures.
- ``kernel``: model parameters, the kernel K_{alpha,y}, its derivatives,
  mass, and the finite-difference residual of the weighted operator.
- ``spectral``: the kernel's Fourier transform three independent ways and
  the profile ODE.
- ``boundary_data``: gridded weighted-derivative boundary data, its JSON
  schema, and the sharpness construction.
- ``extension``: u = K * f on points and grids, boundary convergence, and
  derivative commutation.
- ``hitting``: the two-level hitting density, its Fourier form, and the
  semigroup identity.
- ``hbm_sim``: exact-log-Y Monte Carlo for the stopped diffusion with
  KS validation against the closed-form laws.
- ``growth``: hemisphere growth scans, the far-field envelope, and the
  counterexample ratio track.
- ``cli``: the ``gasp`` command.
"""

from .boundary_data import (
    BoundaryData,
    CriticalCase,
    Grid,
    SchemaError,
    SubcriticalCase,
    WeightedTerm,
    case_exponents,
    load_data,
    save_data,
    sharpness_data,
    weight_alpha,
    weighted_l1_norm,
)
from .extension import (
    ExtensionResult,
    boundary_convergence,
    derivative_commutation_check,
    extend_grid,
    extend_point,
)
from .growth import (
    GrowthScan,
    counterexample_track,
    far_field_integral,
    l1_data_scan,
    sphere_sup_scan,
    u_tilde,
)
from .hbm_sim import (
    HitSampleSet,
    SimConfig,
    boundary_kernel_cdf,
    hitting_cdf,
    ks_statistic,
    simulate_paths,
    validate_boundary_law,
    validate_hitting_law,
)
from .hitting import LevelPair, hitting_ft, hitting_kernel, semigroup_check
from .kernel import (
    HalfSpacePoint,
    ModelParams,
    MultiIndex,
    dalpha_residual,
    kernel_derivative,
    kernel_mass,
    kernel_profile,
    poisson_kernel,
    unit_sphere_area,
)
from .special_functions import (
    EvalAccuracy,
    gamma_fn,
    log_bessel_k,
    phi_nu,
)
from .spectral import (
    ft_closed_form,
    ft_direct,
    ft_integral_rep,
    profile_ode_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

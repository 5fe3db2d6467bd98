"""Grey-scale local estimators of surface area and volume on random
lattices, with exact and asymptotic variance formulas to check them
against.

The package splits into a small stack of layers:

* :mod:`greyvar.psf` -- blur kernels and the half-space profile they
  induce (the universal local model of a blurred edge);
* :mod:`greyvar.phantom` -- the phantoms, ``Ball(dim, radius, center)``
  and its local model ``HalfSpace``, with their blurred intensities;
* :mod:`greyvar.lattice` -- sampling lattices, their duals, and random
  stationary placements;
* :mod:`greyvar.estimator` -- the weighted grey-value estimators
  themselves;
* :mod:`greyvar.spectral` -- radial Fourier transforms and the leading
  oscillatory models of the blurred-ball transform;
* :mod:`greyvar.variance` -- exact variances (finite primal lattice
  sums for the indicator weight and the binary volume, converged dual
  sums otherwise), asymptotic variance models, and the Monte Carlo
  engines that validate them;
* :mod:`greyvar.cli` -- the experiment runner.
"""

from .errors import (ConfigError, CoverageError, DomainError, GreyvarError,
                     NormalizationError, TruncationError)
from .estimator import (EstimateResult, Indicator, SmoothPlateau, alpha_f,
                        default_weight, estimate_surface,
                        estimate_volume_binary, estimate_volume_grey,
                        weight_tv)
from .lattice import (Box, Lattice, LatticePlacement, centered_box,
                      dual_shells, enumerate_points, hexagonal_lattice,
                      random_placement, random_rotation, scaled_lattice,
                      unit_lattice)
from .phantom import (Ball, HalfSpace, IntensityModel, intensity,
                      intensity_model, transition_offsets)
from .psf import (HalfspaceProfile, Psf, ball_indicator, compact_bump,
                  effective_radius, eval_rho, gaussian, halfspace_profile)
from .spectral import (AnnulusFourier, RadialFourier, ball_indicator_fourier,
                       ball_main_term, bessel_j, flat_band_square, nu_phase,
                       profile_fourier_1d, psf_fourier, sharp_band_square)
from .variance import (AsymptoticReport, BoundReport, MCResult, RadiusDensity,
                       ShellSumInfo, VarianceReport, envelope_check,
                       mc_random_radius, mc_surface, mc_volume_binary,
                       profile_lattice_sum, variance_asymptotic_isotropic,
                       variance_asymptotic_random_radius,
                       variance_bound_check, variance_exact_ball,
                       volume_variance_exact, weighted_layer)

__version__ = "0.1.0"

__all__ = [
    "AnnulusFourier", "AsymptoticReport", "Ball", "BoundReport", "Box",
    "ConfigError", "CoverageError", "DomainError", "EstimateResult",
    "GreyvarError", "HalfSpace", "HalfspaceProfile", "Indicator",
    "IntensityModel", "Lattice", "LatticePlacement",
    "MCResult", "NormalizationError", "Psf", "RadialFourier",
    "RadiusDensity", "ShellSumInfo", "SmoothPlateau", "TruncationError",
    "VarianceReport", "alpha_f", "ball_indicator",
    "ball_indicator_fourier", "ball_main_term", "bessel_j", "centered_box",
    "compact_bump", "default_weight", "dual_shells",
    "effective_radius", "enumerate_points", "envelope_check",
    "estimate_surface", "estimate_volume_binary", "estimate_volume_grey",
    "eval_rho", "flat_band_square", "gaussian", "halfspace_profile",
    "hexagonal_lattice", "intensity", "intensity_model", "mc_random_radius",
    "mc_surface", "mc_volume_binary", "nu_phase", "profile_fourier_1d",
    "profile_lattice_sum", "psf_fourier", "random_placement",
    "random_rotation", "scaled_lattice", "sharp_band_square",
    "transition_offsets", "unit_lattice", "variance_asymptotic_isotropic",
    "variance_asymptotic_random_radius", "variance_bound_check",
    "variance_exact_ball", "volume_variance_exact", "weight_tv",
    "weighted_layer",
]

"""orthotile: rectangle tilings of planar domains via discrete harmonic
functions on orthodiagonal maps."""

from .extremal import (EdgeMetric, ELResult, comparability_check, duality_product,
                       el_rate_check, extremal_length, find_short_contour,
                       metric_lower_bound, min_cut_dual_path)
from .experiments import (ConvergenceReport, convergence_run, modulus_pointwise_check,
                          modulus_profile, reference_map, rotation_color_swap_symmetric)
from .geom import Polygon, hausdorff_distance
from .gridgen import (ApproximationCertificate, DomainSpec, GenerationError,
                      grid_approximation)
from .harmonic import (Flow, HarmonicField, effective_resistance, gradient_flow,
                       harmonic_conjugate, random_walk_oracle, solve_dirichlet,
                       solve_dirichlet_dense)
from .holo import DiscreteHolomorphic, assemble, contour_integral, green_residual
from .odmap import (MarkedRectangleMap, OrthodiagonalMap, WeightedGraph,
                    load_map, save_map, validate)
from .tiling import InterpolatedMap, Tiling, build_tiling, render_svg, verify_tiling

__version__ = "0.1.0"

"""Encounter-uncertainty ellipsoids and information-optimal swarm positioning."""

from .bound import (BoundResult, ContractionParams, NoiseProfile,
                    check_rate_matrix, evaluate_bound,
                    radius_for_success_probability, zeta_integral)
from .cost import (CostBreakdown, SpacecraftPose, SwarmConfig,
                   information_cost, pair_overlap)
from .geometry import visible_mask
from .neldermead import (NelderMeadOptions, OptResult, lap_thetas,
                         nelder_mead, optimize_swarm)
from .sampling import (PoiSet, UncertaintyEllipsoid, load_pois, sample_pois,
                       save_pois)

__version__ = "0.1.0"

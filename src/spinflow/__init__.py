"""spinflow: weighted harmonic-map and Landau-Lifshitz flows of sphere-valued
fields on a flat periodic 2D domain, with energy-concentration diagnostics."""

__version__ = "0.1.0"

from .domain import (Coupling, CriticalLine, CriticalPoint, CriticalSet, CutoffField,
                     Grid, UniformVectorField, critical_points, make_coupling,
                     make_cutoff, make_grid)
from .field import (SphereField, bubble_field, constant_field, great_circle_field,
                    perturb)
from .operators import (TangentField, grad, grad_squared, laplacian, ll_velocity,
                        ps_residual, tension)
from .flow import (BlowUpError, EvolveResult, FlowConfig, FlowState, cfl_dt,
                   dissipation_coefficient, evolve, step)
from .relax import RelaxResult, relax
from .diagnostics import (ConcentrationReport, DiagnosticsLedger, LedgerRow,
                          detect_concentration, energy, energy_density, hopf,
                          hopf_residual, judge_row, local_energy, ps_norm, variation_lhs,
                          variation_rhs)
from .config import ConfigError, RunConfig, load_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]

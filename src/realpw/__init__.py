"""realpw: spectral support of a function from the growth of iterated
constant-coefficient differential operators, on periodic grids.

The core relation: for nice f and any polynomial P,
lim_n ||P(d)^n f||_p^{1/n} equals the sup of |P(i lam)| over the spectral
support of f.  This package discretizes both sides, estimates the limit from
finite ledgers, reconstructs supports from polynomial families, and
cross-checks the classical complex growth law along imaginary directions.
"""

from .grid import (Grid, SampledFunction, make_grid, sample_builtin, sample_prescribed,
                   lp_norm, smooth_step, GridError, MarginError, SPATIAL, FREQUENCY)
from .poly import (MultiPoly, PolyFamily, parse_poly, eval_symbol_many,
                   family_linear, family_quadratic, family_quadratic_real,
                   family_explicit, constant, variable, symbol_bound,
                   PolyError, ParseError)
from .transform import (forward_dft, inverse_dft, SupportMask, support_mask,
                        Spectrum, compute_R, RValue, supporting_function,
                        box_supporting_function,
                        eval_entire, complex_growth_rate, ComplexGrowthReport)
from .growth import (symbol_ratios, spatial_norms, apply_op_spectral, apply_op_fd,
                     growth_sequence, growth_sequences, GrowthSequence,
                     estimate_limit, estimate_limits, LimitEstimate,
                     liminf_check, LiminfReport, pointwise_growth,
                     PointwiseGrowthReport, schwartz_decay_check,
                     SchwartzDecayReport, GrowthError)
from .reconstruct import (reconstruct_support, ReconstructionResult,
                          local_spectrum_raster, LocalSpectrumRaster,
                          pde_support_probe, PdeProbeReport, mask_metrics,
                          MaskMetrics)
from .signal_io import (save_signal, load_signal, save_signal_csv,
                        load_signal_csv, SignalIOError)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""daycast: day-ahead forecasting algorithms behind one fit/forecast interface.

Eight method families (polynomial and ridge regression, RBF networks,
smoothing splines, kernel regression, seasonal ARIMA, regression trees
with periodic prototypes, and online TD prediction over tile-coded
features: TD(0) in a forecast row, whose gamma is 0, and TD(lambda) in
nexting-run with gamma > 0) plus the shared evaluation protocol: training
RMSE and consecutive-in-band forecast counts over a one-day holdout.
"""

__version__ = "0.1.0"

from .arima import (ArimaModel, ArimaOrder, acf_pacf, css_estimate, difference,
                    expand_polynomials, forecast)
from .errors import (ConfigError, DaycastError, EstimationError, NoSupportError,
                     SingularSystemError, Tmy3ParseError, UnderdeterminedError,
                     ZeroVarianceError)
from .evalharness import (Band, EvalReport, compare, consecutive_within, rmse,
                          run_single)
from .fixtures import dni48, fixture, temp48, wind48
from .linmodels import (Constant, GaussianBump, LinearFit, Monomial, RbfConfig, Sinusoid,
                        design_matrix, fit_basis, fit_polynomial, fit_rbf, solve_ridge)
from .nexting import (AlignResult, NextingLearner, NextingRun, TileCoder, align_affine,
                      run_online, sample_indices, tile_indices)
from .series import Series, Split, make_sine, normalize_unit, split
from .smoothers import KernelConfig, SplineFit, fit_smoothing_spline, kernel_predict
from .tmy3 import parse_tmy3
from .tree import (BagEnsemble, GrowConfig, PeriodicWrapper, Tree, best_split,
                   fit_periodic_ensemble, grow, prune)

__all__ = [name for name in dir() if not name.startswith("_")]

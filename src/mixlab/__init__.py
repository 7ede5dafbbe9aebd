"""mixlab: a numerical laboratory for mixing bounds of forward noising diffusions.

Simulates Ornstein-Uhlenbeck and tempered Langevin forward processes started
from multi-modal data mixtures, and measures/validates total-variation lower
and upper bounds on their convergence to the invariant noise measure,
including the cut-off behaviour in the distance to the furthest mode.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .bounds import (
    GrowthEnvelopeReport,
    HorizonSet,
    LinearRate,
    LowerBoundReport,
    SubspaceProjector,
    check_compatibility,
    check_generator_bound,
    check_growth_envelope,
    mixing_horizons,
    ou_tv_upper_bound,
    probe_grid,
    tv_lower_bound,
)
from .errors import ConfigError, DivergenceError, DomainError, StructuralError
from .forward import (
    IntegratorConfig,
    OUProcess,
    Regime,
    RegimeKind,
    TemperedLangevin,
    check_dispersion_balance,
    check_drift_condition,
    check_linear_growth,
    classify_ergodicity,
)
from .measures import (
    CheckResult,
    ModeSpec,
    MultiModalData,
    QuantileEstimate,
    RadialProfile,
    SphericalMeasure,
    projection_norm_samples,
    projection_quantile,
    projection_tail,
    validate_data_spec,
)
from .stats import (
    KSResult,
    TVEstimate,
    coordinate_ks,
    empirical_tv_1d,
    ks_statistic,
    projected_tv_vs_gaussian,
)

# the public names imported above; submodules bound by the imports are left out
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

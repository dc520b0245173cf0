"""Von Neumann analysis of flux reconstruction on stretched rectilinear grids.

Dispersion, dissipation, CFL limits and modal conditioning of the scheme
in 1D/2D/3D, every spectral prediction cross-checkable against the
embedded time-domain linear advection solver.
"""

__version__ = "0.1.0"

from .basis import (
    DG,
    HUYNH_G2,
    OSFR,
    BasisOperators,
    CorrectionFamily,
    PointSet,
    build_operators,
    correction_derivatives,
    iota_huynh,
    iota_min,
    lagrange_derivative_matrix,
    make_family,
    make_points,
)
from .operator import (
    FrBlocks,
    SchemeConfig,
    SemiDiscreteSymbol,
    StretchedStencil,
    WaveProbe,
    assemble_symbol,
    build_blocks,
    operators_for,
    symbol_for,
)
from .spectrum import (
    EigensolverError,
    ModeAmbiguityError,
    ModeSweep,
    SpectrumResult,
    analyze,
    dispersion_sweep,
    track_branches,
    wavenumber_for,
)
from .temporal import (
    EULER,
    RK33,
    RK44,
    CflResult,
    RkScheme,
    UpdateOperator,
    build_update,
    cfl_limit,
    fully_discrete_spectrum,
    fully_discrete_sweep,
    rk_from_name,
)
from .advect import (
    AdvectionProblem,
    DivergenceError,
    PeriodicGrid,
    RateCheck,
    check_decay_rate,
    commensurate_wave,
    eigenmode_state,
)


"""Von Neumann analysis of flux reconstruction on stretched rectilinear grids.

Dispersion, dissipation, CFL limits and modal conditioning of the scheme
in 1D/2D/3D, every spectral prediction cross-checkable against the
embedded time-domain linear advection solver.
"""

__version__ = "0.1.0"

from .basis import (
    DG,
    GAUSS_LEGENDRE,
    GAUSS_LOBATTO,
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
    FieldState,
    PeriodicGrid,
    RateCheck,
    check_decay_rate,
    commensurate_wave,
    eigenmode_state,
    plane_wave_state,
)

# Loaded on first access (PEP 562): no sweep or check runs the mesh generator.
_MESH_NAMES = {"CUBE_SHAPE_FACTOR", "JitteredMesh", "MeshGenerationError", "generate",
               "shape_factor", "write_mesh"}


def __getattr__(name):
    if name != "mesh" and name not in _MESH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    mesh = import_module(".mesh", __name__)
    return mesh if name == "mesh" else getattr(mesh, name)


def __dir__():
    return sorted({*globals(), "mesh", *_MESH_NAMES})

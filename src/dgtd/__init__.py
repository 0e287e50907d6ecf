"""Leap-frog nodal DG solver for the 2D TE Maxwell equations in
heterogeneous anisotropic media, plus a CFL stability toolkit."""

from .dg_core import (
    BC_PEC,
    BC_PMC,
    BC_SM,
    FluxParams,
    SpatialOperator,
)
from .errors import (
    ConfigError,
    DgtdError,
    DomainError,
    InvalidOrderError,
    MaterialError,
    MeshError,
    NonManifoldError,
    SweepError,
)
from .experiments import (
    BENCHMARK_EPS,
    StabilityCase,
    SweepSpec,
    benchmark_case,
    cfl_constant,
    classify_stability,
    find_dtmax,
    run_table,
    write_table_csv,
)
from .leapfrog import (
    FieldState,
    RunConfig,
    RunResult,
    discrete_energy,
    initial_conditions,
    run,
    step,
    write_energy_csv,
)
from .materials import (
    FaceImpedance,
    MaterialMap,
    PermittivityTensor,
    face_impedances,
)
from .mesh import (
    Mesh2D,
    build_connectivity,
    load_mesh,
    mesh_from_arrays,
    save_mesh,
    structured_square_mesh,
)
from .reference_element import (
    ReferenceElement,
    build_reference_element,
    interpolate,
)
from .stability import (
    StabilityConstants,
    beta_params,
    calibrate_c_inv,
    calibrate_c_tau,
    spectral_dt,
    stability_bound,
    theoretical_bound,
    trace_constant_exact,
)

__version__ = "0.1.0"

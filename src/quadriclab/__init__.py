"""quadriclab: numerical geometry of Gauss maps into the complex hyperquadric.

The package builds Gauss maps of hypersurfaces of the unit sphere as
Lagrangian immersions into the complex hyperquadric (represented through
Stiefel lifts), extracts their angle functions, and verifies the structural
identities relating angles, the cubic form, the induced connection and the
curvature, including the rotational-hypersurface profile flow.
"""

from .quadric import (
    GeometryError,
    horizontal_frame,
    product_structure,
    quadric_curvature,
    quadric_residual,
    ricci_matrix,
)
from .hypersurfaces import (
    Box,
    ChartError,
    FocalRadiusError,
    HypersurfaceChart,
    cartan_tube,
    product_spheres,
    round_sphere,
)
from .gaussmap import (
    AngleSpectrum,
    FdSteps,
    FundamentalForm,
    GaussJet,
    GaussMapError,
    angle_spectrum,
    gauge_normalize,
    gauss_map,
    mean_curvature,
    second_fundamental_form,
    structure_operators,
)
from .verify import (
    ConnectionData,
    SampleBatch,
    VerifyError,
    check_csc_identities,
    check_prop1,
    classify_by_angles,
    codazzi_residual,
    connection_and_s,
    gauss_equation_residual,
    palmer_residual,
    sample_batch,
    sectional_curvature,
)
from .rotational import (
    AlphaTrajectory,
    OdeError,
    ProfileState,
    build_rotational_chart,
    first_integral_residual,
    integrate_alpha,
    profile_curve,
    warped_curvature_check,
)

__version__ = "0.1.0"

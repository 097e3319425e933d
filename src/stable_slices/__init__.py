"""Stable polynomials on half-planes, their linear coefficient slices, and
the symmetric-polynomial reductions built on top of them."""

from .errors import (
    DegenerateMap,
    DimensionMismatch,
    NoRootInRegion,
    NonConvergence,
    NonRealInput,
    NotInImage,
)
from .polynomials import (
    Cluster,
    Poly,
    RootProfile,
    cluster_roots,
    find_roots,
    vieta_from_roots,
)
from .regions import (
    HalfPlane,
    Moebius,
    MoebiusImage,
    halfplane_contains,
    moebius_transform_poly,
    upper_chart,
)
from .slices import (
    Bounds,
    CompressionReport,
    CompressionStep,
    KernelDirection,
    SectionGrid,
    Slice,
    StepResult,
    alternated_cofactor,
    augment,
    compactness_bounds,
    compress,
    kernel_direction,
    max_stable_step,
    sample_slice_section,
    slice_contains,
)
from .stability import (
    StabilityVerdict,
    hurwitz_embed,
    hurwitz_unembed,
    is_stable,
    is_weakly_hurwitz,
)
from .symmetric import (
    CoordinateProfile,
    FoundPoint,
    HalfDegreeResult,
    NoneFound,
    SufficientForm,
    SymmetricPoly,
    coincide,
    coordinate_profile,
    elementary_symmetrics,
    eval_symmetric,
    gws_solve,
    halfdeg_optimize,
    variety_search,
    young_blocks_from_x_expansion,
    young_gws,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

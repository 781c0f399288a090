"""torikit: exact-arithmetic toolkit for toric geometry at the fan level.

Rational polyhedral cones and fans over arbitrary-precision integers,
Hilbert bases of the associated semigroups, homogeneous locally
nilpotent derivations of the monomial algebras, and the fan-level
criteria (class group rank, Euler characteristic, torus factors) that
decide quasi-affineness.
"""

from .cone import Cone, orthogonal_face
from .derivations import (
    GaActionFamily,
    HomogeneousDerivation,
    build_ga_actions,
    enumerate_roots,
    is_root,
)
from .errors import (
    DimensionError,
    FanDocumentError,
    IntegrityError,
    NilpotencyCapError,
    NotAFanError,
    PreconditionError,
    ToricError,
)
from .fan import (
    ClassGroup,
    Fan,
    FanReport,
    FixedPointWitness,
    QuasiAffineVerdict,
    SupportCone,
    TorusSplit,
)
from .lattice import (
    SmithDecomposition,
    determinant,
    hermite_normal_form,
    matrix_rank,
    pairing,
    primitive,
    saturated_span,
    smith_normal_form,
)
from .semigroup import (
    AffineSemigroup,
    AlgebraElement,
    boundary_projection,
    fan_coordinate_semigroup,
    hilbert_basis,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSemigroup",
    "AlgebraElement",
    "ClassGroup",
    "Cone",
    "DimensionError",
    "Fan",
    "FanDocumentError",
    "FanReport",
    "FixedPointWitness",
    "GaActionFamily",
    "HomogeneousDerivation",
    "IntegrityError",
    "NilpotencyCapError",
    "NotAFanError",
    "PreconditionError",
    "QuasiAffineVerdict",
    "SmithDecomposition",
    "SupportCone",
    "ToricError",
    "TorusSplit",
    "boundary_projection",
    "build_ga_actions",
    "determinant",
    "enumerate_roots",
    "fan_coordinate_semigroup",
    "hermite_normal_form",
    "hilbert_basis",
    "is_root",
    "matrix_rank",
    "orthogonal_face",
    "pairing",
    "primitive",
    "saturated_span",
    "smith_normal_form",
    "__version__",
]

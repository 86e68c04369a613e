"""Exact arithmetic for base change of GL(n) parameters.

Local-field invariants and transition functions, extended quotients of
tori by symmetric groups, the tempered duals of GL(1) and GL(2) as
circle unions, and the induced integer matrices on topological
K-theory.  Everything is exact (rationals); a CLI exposes the
computations for batch use.
"""

from .localfield import (
    ExtensionData,
    LocalFieldData,
    MismatchedTower,
    NotInPsiImage,
    RamificationFiltration,
    UnsupportedExtension,
    compose_tower,
    conductor_transport,
    norm_level_image,
    phi,
    psi,
)
from .laurent import InvariantLaurentPoly, LaurentPoly
from .extquot import (
    ExtendedQuotient,
    extended_quotient,
    partitions_of,
)
from .finiteness import FinitenessCertificate, WindowTooSmall, finiteness_certificate
from .gl1 import (
    Gl1BaseChange,
    TemperedDualGL1,
    bc_gl1,
    circle_map,
)
from .gl2 import (
    AdmissiblePair,
    EvenDegree,
    Gl2BaseChange,
    NotUnramified,
    OutOfScope,
    bc_gl2,
    compositum_invariants,
    validate_admissible,
)
from .ktheory import (
    CircleSpace,
    KMorphism,
    ProperCircleMap,
    compose_maps,
    induced_map,
)

__version__ = "0.1.0"

"""Exact reconstruction of derivations on Lie rings of skew-adjoint matrices."""

from .errors import (
    ConfigError,
    DimensionMismatch,
    EqualIndices,
    IndexOutOfRange,
    Infeasible,
    NeedThreeIndices,
    NotSkewAdjoint,
    SkewlieError,
    UnknownLemma,
    UnsupportedRing,
    WitnessContractError,
)
from .lie import (
    basis_labels,
    bracket,
    canonical_basis,
    decompose,
    ie_bar,
    ie_diag,
    is_central,
    random_skew,
    random_skews,
    s_elem,
    staircase,
)
from .localder import (
    WitnessedLocalMap,
    brute_force_local,
    build_d,
    lift_campaign,
    localder_campaign,
    make_gauged_local_map,
    pointwise_lift,
    verify_full,
    verify_spanning_set,
)
from .matrices import Matrix, at_point, commutator, from_points, star_transpose
from .reporting import CheckRecord, VerificationReport
from .rings import (
    GAUSS,
    FunctionRing,
    GaussianField,
    GaussianRational,
    PolynomialRing,
    check_ring_axioms,
    imaginary_unit,
)
from .symcheck import certify_lemma, known_lemmas
from .twolocal import (
    GaugedInnerTwoLocal,
    brute_force_implementer,
    check_pair_lemmas,
    omega_instantiate,
    reconstruct_implementer,
    twolocal_campaign,
    verify_implementer,
)

__version__ = "0.1.0"

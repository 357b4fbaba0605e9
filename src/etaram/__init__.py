"""Exact derivation and certification of Ramanujan-type identities for
partition progressions, through generalized eta-quotients.

Main entry points:

    PartitionSpec, GenEtaQuotient        defining data
    derive_identity, dissect             the derivation pipeline
    verify_identity                      q-series identity checking
    cusp_set, generators, module_basis   the underlying machinery
"""

from .eta import GenEtaQuotient, NonIntegralPower, PartitionSpec
from .series import QSeries, ZeroSeries, euler_product, pair_product, pochhammer
from .cusps import Cusp, INFINITY, cusp_set, order_at_cusp, width
from .modularity import (
    NoPhiFound, check_level, find_level, find_prefactor, is_modular_prefactor,
)
from .generators import generators
from .reduction import (
    BasisIncomplete, InsufficientTruncation, NotMember, VerificationFailure,
    module_basis,
)
from .identities import (
    DeriveOptions, Identity, NoHFound, derive_identity, dissect, verify_identity,
)

__all__ = [
    "BasisIncomplete", "Cusp", "DeriveOptions", "GenEtaQuotient", "INFINITY",
    "Identity", "InsufficientTruncation", "NoHFound", "NoPhiFound",
    "NonIntegralPower", "NotMember", "PartitionSpec", "QSeries",
    "VerificationFailure", "ZeroSeries", "check_level", "cusp_set",
    "derive_identity", "dissect", "euler_product", "find_level",
    "find_prefactor", "generators", "is_modular_prefactor", "module_basis",
    "order_at_cusp", "pair_product", "pochhammer", "verify_identity", "width",
]

"""Exact-arithmetic verification of supercongruences satisfied by the Domb
numbers, with a valuation-aware p-adic kernel underneath.

No floating point is used anywhere: residues come from integer arithmetic
modulo prime powers, rationals from fractions.Fraction, and every check
compares canonical residues.
"""

from .congruences import (
    CongruenceReport,
    PrimeVerifier,
    Target,
    sweep,
    verify_prime,
)
from .domb import (
    DombTable,
    domb_exact,
    domb_via_cz,
    domb_via_sun,
    liu_integrality_check,
    rogers_series_check,
)
from .padic import (
    PAdicValue,
    PrimeContext,
    binomial_int,
    binomial_rational,
    is_prime,
)
from .quadform import QuadDecomposition, decompose_x2_3y2
from .special import (
    bernoulli_poly,
    bernoulli_table,
    euler_table,
    harmonic,
    padic_gamma_int,
    padic_gamma_rational,
)

__version__ = "0.1.0"

# Resolved from .identities on first use (__getattr__), so that a verify
# run, which reads none of them, never imports identities or fractions.
_IDENTITY_NAMES = ("IDENTITY_IDS", "check_all_identities", "check_identity")


def __getattr__(name: str):
    if name in _IDENTITY_NAMES:
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CongruenceReport",
    "DombTable",
    "IDENTITY_IDS",
    "PAdicValue",
    "PrimeContext",
    "PrimeVerifier",
    "QuadDecomposition",
    "Target",
    "bernoulli_poly",
    "bernoulli_table",
    "binomial_int",
    "binomial_rational",
    "check_all_identities",
    "check_identity",
    "decompose_x2_3y2",
    "domb_exact",
    "domb_via_cz",
    "domb_via_sun",
    "euler_table",
    "harmonic",
    "is_prime",
    "liu_integrality_check",
    "padic_gamma_int",
    "padic_gamma_rational",
    "rogers_series_check",
    "sweep",
    "verify_prime",
]

"""Exact counting of relatively prime subsets of {1,...,n}, the subset
phi functions, and affine canonicalization of finite integer sets.

All arithmetic is exact; counts of size 2^n are plain Python ints.

Importing the package loads none of its modules.  Each exported name,
and each submodule (relprime.affine, relprime.oracle, ...), is imported
from its home module on first access and kept, so a command line run
pays only for the modules it uses.
"""

__version__ = "0.1.0"

# Each exported name and the module it lives in.
_EXPORTS = {
    name: module
    for module, names in (
        ("affine", (
            "CanonicalForm",
            "InvariantProfile",
            "affine_map",
            "affinely_equivalent",
            "canonical_form",
            "integer_set",
            "invariant_profile",
            "sumset",
            "sumset_size_distribution",
        )),
        ("arith", (
            "binomial",
            "divisors",
            "euler_phi",
            "mobius_sieve",
        )),
        ("counting", (
            "count_relprime",
            "count_relprime_k",
            "sandwich_bounds",
            "verify_recursion",
        )),
        ("oracle", (
            "ORACLE_MAX",
            "enumerate_relprime",
            "enumerate_relprime_k",
            "enumerate_subset_phi",
            "enumerate_subset_phi_k",
            "enumerate_subset_psi",
        )),
        ("setphi", (
            "PhiReport",
            "asymptotic_report",
            "residual_bound",
            "subset_phi",
            "subset_phi_k",
            "subset_psi",
            "verify_divisor_sum",
        )),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)

_SUBMODULES = frozenset(_EXPORTS.values()) | {"checks", "cli"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        # The import system binds the submodule in this namespace; the
        # builtin __import__, unlike importlib, shows up in -X importtime.
        __import__(f"{__name__}.{name}")
        return globals()[name]
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(home), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))

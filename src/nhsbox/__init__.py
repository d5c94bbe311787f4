"""Differential and boomerang analysis of S-boxes over odd-characteristic
finite fields, specialised to the binomial family x^r (1 + u*eta(x))."""

from .gf import CijPartition, Field, UnsupportedFieldError, build_field, cached_field
from .nh_family import (
    CaseAnalysis,
    NHParams,
    aij_counts_closed,
    derivative_value,
    eval_F,
    excluded_u_set,
    nh_table,
    structural_lemma_checks,
)
from .spectra import (
    BoomerangSpectrum,
    DifferentialSpectrum,
    FunctionTable,
    bct_entry,
    boomerang_case_counts_F21,
    boomerang_spectrum,
    closed_form_spectrum_F21,
    cubic_character_sum,
    ddt_entry,
    differential_spectrum,
    locally_apn_check,
)
from .verifier import (
    CLAIMS,
    SweepConfig,
    SweepReport,
    enumerate_prime_powers,
    sweep,
    verify_claim,
)

__all__ = [
    "BoomerangSpectrum",
    "CLAIMS",
    "CaseAnalysis",
    "CijPartition",
    "DifferentialSpectrum",
    "Field",
    "FunctionTable",
    "NHParams",
    "SweepConfig",
    "SweepReport",
    "UnsupportedFieldError",
    "aij_counts_closed",
    "bct_entry",
    "boomerang_case_counts_F21",
    "boomerang_spectrum",
    "build_field",
    "cached_field",
    "closed_form_spectrum_F21",
    "cubic_character_sum",
    "ddt_entry",
    "derivative_value",
    "differential_spectrum",
    "enumerate_prime_powers",
    "eval_F",
    "excluded_u_set",
    "locally_apn_check",
    "nh_table",
    "structural_lemma_checks",
    "sweep",
    "verify_claim",
]

__version__ = "0.1.0"

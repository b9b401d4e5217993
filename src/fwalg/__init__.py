"""Symbolic operator engine and numerical validator for Foldy-Wouthuysen
transformations of Dirac-type Hamiltonians."""

from .gaussrat import GaussRat
from .opalg import (
    BETA, E, F, MASS, MC2, O, VELOCITY, OperatorExpr, OperatorSymbol,
    SymbolRegistry, WeightScheme, ad_exp_conjugate, anticommutator,
    commutator, exp_series, mul_trunc, normalize, one, sym, word, zero,
)
from .fwtransform import (
    TransformRecord, apply_correction, bch_combine, combine_steps,
    corrected_pipeline, correction_exponent, eriksen_condition_check,
    eriksen_series, fw_pipeline, fw_step, split_hamiltonian,
)
from .diracred import FieldContext, FieldExpr, instantiate
from . import numlab, reference, shell

__all__ = [
    "BETA", "E", "F", "MASS", "MC2", "O", "VELOCITY",
    "GaussRat", "OperatorExpr", "OperatorSymbol", "SymbolRegistry",
    "WeightScheme", "ad_exp_conjugate", "anticommutator", "commutator",
    "exp_series", "mul_trunc", "normalize", "one", "sym", "word", "zero",
    "TransformRecord", "apply_correction", "bch_combine", "combine_steps",
    "corrected_pipeline", "correction_exponent", "eriksen_condition_check",
    "eriksen_series", "fw_pipeline", "fw_step", "split_hamiltonian",
    "FieldContext", "FieldExpr", "instantiate",
    "numlab", "reference", "shell",
]

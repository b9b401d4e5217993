"""Symbolic operator engine and numerical validator for Foldy-Wouthuysen
transformations of Dirac-type Hamiltonians."""

import importlib

from .gaussrat import GaussRat
from .opalg import (
    BETA, E, F, MASS, MC2, O, VELOCITY, OperatorExpr, OperatorSymbol,
    SymbolRegistry, WeightScheme, ad_exp_conjugate, anticommutator,
    commutator, exp_series, log_series, mul_trunc, normalize, one, sym, word,
    zero,
)
from .fwtransform import (
    TransformRecord, apply_correction, bch_combine, corrected_pipeline,
    correction_exponent, eriksen_condition_check, eriksen_series,
    fw_pipeline, fw_step, split_hamiltonian,
)
from .diracred import FieldContext, FieldExpr, instantiate
from . import numlab, reference


def __getattr__(name):
    # The CLI module loads on first use, so ``python -m fwalg.shell`` does not
    # find it already imported by the package.
    if name == "shell":
        return importlib.import_module(".shell", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BETA", "E", "F", "MASS", "MC2", "O", "VELOCITY",
    "GaussRat", "OperatorExpr", "OperatorSymbol", "SymbolRegistry",
    "WeightScheme", "ad_exp_conjugate", "anticommutator", "commutator",
    "exp_series", "log_series", "mul_trunc", "normalize", "one", "sym", "word",
    "zero",
    "TransformRecord", "apply_correction", "bch_combine", "corrected_pipeline",
    "correction_exponent", "eriksen_condition_check", "eriksen_series",
    "fw_pipeline", "fw_step", "split_hamiltonian",
    "FieldContext", "FieldExpr", "instantiate",
    "numlab", "reference", "shell",
]

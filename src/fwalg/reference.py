"""Hard-coded builders for the published closed-form expressions.

These are transcription data, not derivations: nothing here calls the
transformation pipelines, so the builders stay independent of the code they
are used to check. Each builder is written as a literal sum mirroring the
printed equation, with nested commutators spelled out through the algebra
primitives. The structured ``*_PARTS`` tables keep the raw coefficients
inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .gaussrat import GaussRat, I
from .opalg import (
    BETA, E, F, O, OperatorExpr, anticommutator as ac, commutator as cm,
    one, scale, sym, word,
)

H_PRIME_34 = "H_prime_34"
S_PRIME_34 = "S_prime_34"
H_DPRIME_34 = "H_dprime_34"
S_DPRIME_34 = "S_dprime_34"
H_ORIG_35 = "H_orig_35"
DELTA_37 = "Delta_37"
H_CORR_38 = "H_corr_38"
STEPS_39 = "Steps_39"
H_ORIG_40 = "H_orig_40"
H_CORR_43 = "H_corr_43"
ERIKSEN_24 = "Eriksen_24"
A24_25 = "A24_25"
FREE_PARTICLE_22 = "FreeParticle_22"
DIRAC_13 = "Dirac_13"


def _u(k: int) -> OperatorExpr:
    """(1/(mc^2))^k; negative k gives powers of mc^2."""
    return word(1, [], mass_power=k)


def _b() -> OperatorExpr:
    return sym(BETA)


def _o() -> OperatorExpr:
    return sym(O)


def _f() -> OperatorExpr:
    return sym(F)


def mass_term() -> OperatorExpr:
    return word(1, [BETA], mass_power=-1)


def first_step() -> OperatorExpr:
    """S = -(i/(2mc^2)) beta O, the common first exponent."""
    return word(GaussRat(0, Fraction(-1, 2)), [BETA, O], mass_power=1)


def h_prime_34() -> OperatorExpr:
    o, b, f = _o(), _b(), _f()
    return (
        mass_term()
        + sym(E)
        + b * (Fraction(1, 2) * _u(1) * o ** 2
               - Fraction(1, 8) * _u(3) * o ** 4
               + Fraction(1, 144) * _u(5) * o ** 6)
        - Fraction(1, 8) * _u(2) * cm(o, cm(o, f))
        + Fraction(1, 384) * _u(4) * cm(o, cm(o, cm(o, cm(o, f))))
        + Fraction(1, 2) * _u(1) * b * cm(o, f)
        - Fraction(1, 3) * _u(2) * o ** 3
        + Fraction(1, 30) * _u(4) * o ** 5
        - Fraction(1, 48) * _u(3) * b * cm(o, cm(o, cm(o, f)))
    )


def s_prime_34() -> OperatorExpr:
    o, b, f = _o(), _b(), _f()
    return (
        scale(GaussRat(0, Fraction(-1, 4)), _u(2) * cm(o, f))
        + scale(I, b * (Fraction(1, 6) * _u(3) * o ** 3
                        - Fraction(1, 60) * _u(5) * o ** 5))
        + scale(GaussRat(0, Fraction(1, 96)), _u(4) * cm(o, cm(o, cm(o, f))))
    )


def h_dprime_34() -> OperatorExpr:
    o, b, f = _o(), _b(), _f()
    return (
        mass_term()
        + sym(E)
        + b * (Fraction(1, 2) * _u(1) * o ** 2
               - Fraction(1, 8) * _u(3) * o ** 4
               + Fraction(1, 16) * _u(5) * o ** 6)
        - Fraction(1, 8) * _u(2) * cm(o, cm(o, f))
        - Fraction(1, 8) * _u(3) * b * cm(o, f) ** 2
        + Fraction(3, 64) * _u(4) * ac(o ** 2, cm(o, cm(o, f)))
        + Fraction(5, 128) * _u(4) * cm(o ** 2, cm(o ** 2, f))
        + Fraction(1, 4) * _u(2) * cm(cm(o, f), f)
        - Fraction(1, 6) * _u(3) * b * cm(o ** 3, f)
        - Fraction(1, 8) * _u(3) * b * ac(o ** 2, cm(o, f))
    )


def s_dprime_34() -> OperatorExpr:
    o, b, f = _o(), _b(), _f()
    return (
        scale(GaussRat(0, Fraction(-1, 8)), _u(3) * b * cm(cm(o, f), f))
        + scale(GaussRat(0, Fraction(1, 12)), _u(4) * cm(o ** 3, f))
        + scale(GaussRat(0, Fraction(1, 16)), _u(4) * ac(o ** 2, cm(o, f)))
    )


def h_orig_35() -> OperatorExpr:
    o, b, f = _o(), _b(), _f()
    return (
        mass_term()
        + sym(E)
        + b * (Fraction(1, 2) * _u(1) * o ** 2
               - Fraction(1, 8) * _u(3) * o ** 4
               + Fraction(1, 16) * _u(5) * o ** 6)
        - Fraction(1, 8) * _u(2) * cm(o, cm(o, f))
        - Fraction(1, 8) * _u(3) * b * cm(o, f) ** 2
        + Fraction(3, 64) * _u(4) * ac(o ** 2, cm(o, cm(o, f)))
        + Fraction(5, 128) * _u(4) * cm(o ** 2, cm(o ** 2, f))
    )


def delta_37() -> OperatorExpr:
    """The correction commutator separating the fixed result from the raw one."""
    o, b, f = _o(), _b(), _f()
    return cm(
        Fraction(1, 16) * _u(3) * b * cm(o ** 2, f),
        f + Fraction(1, 2) * _u(1) * b * o ** 2,
    )


def h_corr_38() -> OperatorExpr:
    o, b, f = _o(), _b(), _f()
    return (
        mass_term()
        + sym(E)
        + b * (Fraction(1, 2) * _u(1) * o ** 2
               - Fraction(1, 8) * _u(3) * o ** 4
               + Fraction(1, 16) * _u(5) * o ** 6)
        - Fraction(1, 8) * _u(2) * cm(o, cm(o, f))
        + Fraction(1, 16) * _u(3) * b * ac(o, cm(cm(o, f), f))
        + Fraction(3, 64) * _u(4) * ac(o ** 2, cm(o, cm(o, f)))
        + Fraction(1, 128) * _u(4) * cm(o ** 2, cm(o ** 2, f))
    )


def steps_m4() -> tuple[OperatorExpr, OperatorExpr, OperatorExpr, OperatorExpr]:
    """The four exponents of the mass-power-counted run."""
    o, b, f = _o(), _b(), _f()
    s = first_step()
    s1 = (
        scale(GaussRat(0, Fraction(-1, 4)), _u(2) * cm(o, f))
        + scale(GaussRat(0, Fraction(1, 6)), _u(3) * b * o ** 3)
        + scale(GaussRat(0, Fraction(1, 96)), _u(4) * cm(o, cm(o, cm(o, f))))
    )
    s2 = (
        scale(GaussRat(0, Fraction(-1, 8)), _u(3) * b * cm(cm(o, f), f))
        + scale(GaussRat(0, Fraction(1, 12)), _u(4) * cm(o ** 3, f))
        + scale(GaussRat(0, Fraction(1, 16)), _u(4) * ac(o ** 2, cm(o, f)))
    )
    s3 = scale(GaussRat(0, Fraction(-1, 16)), _u(4) * cm(cm(cm(o, f), f), f))
    return (s, s1, s2, s3)


def h_orig_40() -> OperatorExpr:
    o, b, f = _o(), _b(), _f()
    return (
        mass_term()
        + sym(E)
        + b * (Fraction(1, 2) * _u(1) * o ** 2
               - Fraction(1, 8) * _u(3) * o ** 4)
        - Fraction(1, 8) * _u(2) * cm(o, cm(o, f))
        - Fraction(1, 8) * _u(3) * b * cm(o, f) ** 2
        + Fraction(3, 64) * _u(4) * ac(o ** 2, cm(o, cm(o, f)))
        + Fraction(5, 128) * _u(4) * cm(o ** 2, cm(o ** 2, f))
        + Fraction(1, 32) * _u(4) * cm(cm(o, f), cm(cm(o, f), f))
    )


def h_corr_43() -> OperatorExpr:
    o, b, f = _o(), _b(), _f()
    return (
        mass_term()
        + sym(E)
        + b * (Fraction(1, 2) * _u(1) * o ** 2
               - Fraction(1, 8) * _u(3) * o ** 4)
        - Fraction(1, 8) * _u(2) * cm(o, cm(o, f))
        + Fraction(1, 16) * _u(3) * b * ac(o, cm(cm(o, f), f))
        + Fraction(3, 64) * _u(4) * ac(o ** 2, cm(o, cm(o, f)))
        + Fraction(1, 128) * _u(4) * cm(o ** 2, cm(o ** 2, f))
        - Fraction(1, 32) * _u(4) * cm(o, cm(cm(cm(o, f), f), f))
    )


def free_particle_22(max_even_power: int = 8) -> OperatorExpr:
    """beta sqrt(m^2 c^4 + O^2) expanded through O^max_even_power."""
    coeffs = {
        0: Fraction(1),
        2: Fraction(1, 2),
        4: Fraction(-1, 8),
        6: Fraction(1, 16),
        8: Fraction(-5, 128),
    }
    b, o = _b(), _o()
    out = OperatorExpr.zero()
    for n, c in coeffs.items():
        if n > max_even_power:
            continue
        out = out + c * _u(n - 1) * b * o ** n
    return out


# (coefficient, nesting) tables for the two highest-order blocks; the tests
# audit these coefficients against the printed values.
_A24_PARTS: list[tuple[Fraction, str]] = [
    (Fraction(24), "ac(O2, cm(O,F)^2)"),
    (Fraction(-20), "cm(O2,F)^2"),
    (Fraction(-14), "ac(O2, cm(cm(O2,F),F))"),
    (Fraction(-4), "cm(O, cm(O, cm(cm(O2,F),F)))"),
    (Fraction(9, 2), "cm(cm(O, cm(O, cm(O2,F))), F)"),
    (Fraction(-9, 2), "cm(cm(O, cm(O,F)), cm(O2,F))"),
    (Fraction(5, 2), "cm(O2, cm(O, cm(cm(O,F),F)))"),
]


def a24_25() -> OperatorExpr:
    o, b, f = _o(), _b(), _f()
    o2 = o ** 2
    nested = [
        ac(o2, cm(o, f) ** 2),
        cm(o2, f) ** 2,
        ac(o2, cm(cm(o2, f), f)),
        cm(o, cm(o, cm(cm(o2, f), f))),
        cm(cm(o, cm(o, cm(o2, f))), f),
        cm(cm(o, cm(o, f)), cm(o2, f)),
        cm(o2, cm(o, cm(cm(o, f), f))),
    ]
    total = OperatorExpr.combine((coeff, expr) for (coeff, _), expr in zip(_A24_PARTS, nested))
    return Fraction(1, 256) * _u(5) * b * total


_ERIKSEN_24_HIGH_PARTS: list[tuple[Fraction, str]] = [
    (Fraction(-1, 128), "ac(8 m^4c^8 - 6 m^2c^4 O^2 + 5 O^4, cm(O, cm(O,F))) / m^6c^12"),
    (Fraction(1, 512), "ac(2 m^2c^4 - O^2, cm(O2, cm(O2,F))) / m^6c^12"),
    (Fraction(11, 1024), "cm(O2, cm(O2, cm(O, cm(O,F)))) / m^6c^12"),
]


def eriksen_24() -> OperatorExpr:
    """The full order-(v/c)^8 result, written exactly as printed (F in all
    commutator slots, the bare potential as E)."""
    o, b, f = _o(), _b(), _f()
    o2 = o ** 2
    poly1 = 8 * _u(-4) * one() - 6 * _u(-2) * o2 + 5 * o2 ** 2
    poly2 = 2 * _u(-2) * one() - o2
    nested = [
        ac(poly1, cm(o, cm(o, f))),
        ac(poly2, cm(o2, cm(o2, f))),
        cm(o2, cm(o2, cm(o, cm(o, f)))),
    ]
    high = OperatorExpr.combine(
        (coeff, expr) for (coeff, _), expr in zip(_ERIKSEN_24_HIGH_PARTS, nested))
    return (
        free_particle_22()
        + sym(E)
        + _u(6) * high
        + Fraction(1, 16) * _u(3) * b * ac(o, cm(cm(o, f), f))
        - Fraction(1, 32) * _u(4) * cm(o, cm(cm(cm(o, f), f), f))
        + a24_25()
    )


def dirac_13():
    """Transformed electromagnetic Hamiltonian in field form.

    Imported lazily to keep this module free of the Clifford machinery when
    only the abstract references are needed.
    """
    from . import diracred
    return diracred.reference_field_hamiltonian()


_BUILDERS = {
    H_PRIME_34: h_prime_34,
    S_PRIME_34: s_prime_34,
    H_DPRIME_34: h_dprime_34,
    S_DPRIME_34: s_dprime_34,
    H_ORIG_35: h_orig_35,
    DELTA_37: delta_37,
    H_CORR_38: h_corr_38,
    STEPS_39: steps_m4,
    H_ORIG_40: h_orig_40,
    H_CORR_43: h_corr_43,
    ERIKSEN_24: eriksen_24,
    A24_25: a24_25,
    FREE_PARTICLE_22: free_particle_22,
    DIRAC_13: dirac_13,
}

def build(ref_id: str):
    """Return the transcribed expression for the given id.

    All ids map to a single normalized expression except STEPS_39, which is
    inherently a tuple of four exponents.
    """
    try:
        builder = _BUILDERS[ref_id]
    except KeyError:
        raise KeyError(f"unknown reference id {ref_id!r}") from None
    return builder()


# -- structural differ ---------------------------------------------------------

@dataclass
class DiffReport:
    """Term-level differences between two normalized expressions."""

    only_in_a: list = field(default_factory=list)
    only_in_b: list = field(default_factory=list)
    coeff_mismatch: list = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.only_in_a or self.only_in_b or self.coeff_mismatch)

    def __bool__(self) -> bool:
        return not self.is_empty

    def render(self) -> str:
        if self.is_empty:
            return "identical"
        lines = []
        for key, c in self.only_in_a:
            lines.append(f"only in left:  {_key_str(key)} * {c}")
        for key, c in self.only_in_b:
            lines.append(f"only in right: {_key_str(key)} * {c}")
        for key, ca, cb in self.coeff_mismatch:
            lines.append(f"coefficient:   {_key_str(key)}: {ca} vs {cb}")
        return "\n".join(lines)


def _key_str(key) -> str:
    word_part, *rest = key
    names = " ".join(getattr(s, "name", str(s)) for s in word_part) or "1"
    return f"[{names}; {', '.join(str(r) for r in rest)}]"


def diff(a, b) -> DiffReport:
    """Compare two expressions term by term (empty report iff equal)."""
    ta = {t.key: t.coeff for t in a.terms}
    tb = {t.key: t.coeff for t in b.terms}
    report = DiffReport()
    for key, c in ta.items():
        if key not in tb:
            report.only_in_a.append((key, c))
        elif tb[key] != c:
            report.coeff_mismatch.append((key, c, tb[key]))
    for key, c in tb.items():
        if key not in ta:
            report.only_in_b.append((key, c))
    return report

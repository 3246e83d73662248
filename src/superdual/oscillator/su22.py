"""su(2,2) sector helpers: helicity and masslessness."""

from __future__ import annotations

from fractions import Fraction

from .algebra import OscillatorSpec, basis_states, generator_action
from .states import combine, scale


def helicity(spec: OscillatorSpec, v) -> Fraction:
    """Eigenvalue of Z = (N_a - N_b)/2 on a weight vector."""
    lc = v if isinstance(v, dict) else {v: Fraction(1)}
    vals = set()

    def number(s, fam):  # oscillator count of a family, gamma - s per flavour on a block
        mat = s[fam.mat]
        return sum(map(sum, mat)) + (len(mat) * (fam.gamma - s[fam.spow]) if fam.gamma else 0)

    for s in lc:
        na, nb = number(s, spec.bosons["a"]), number(s, spec.bosons["b"])
        vals.add(Fraction(na - nb, 2) if isinstance(na - nb, int) else (na - nb) / 2)
    if len(vals) != 1:
        raise ValueError("not a helicity eigenvector")
    return vals.pop()


def is_massless(spec: OscillatorSpec, cutoff: int = 3) -> bool:
    """P = 1 masslessness: det over the 2x2 block of E_{alpha beta-dot}
    vanishes identically on the truncated module.

    The E_{alpha beta-dot} = -a+ b+ generators commute, so the determinant is
    E_{a1 b1}E_{a2 b2} - E_{a1 b2}E_{a2 b1} as an operator.
    """
    if spec.p != 2 or spec.q != 2:
        raise ValueError("masslessness check is for the su(2,2) sector")
    a0 = spec.p + spec.m  # first a index
    b0 = 0

    def det_op(lc):
        t1 = generator_action(spec, a0, b0, generator_action(spec, a0 + 1, b0 + 1, lc))
        t2 = generator_action(spec, a0, b0 + 1, generator_action(spec, a0 + 1, b0, lc))
        return combine(t1, scale(t2, Fraction(-1)))

    for st in basis_states(spec, cutoff):
        if det_op({st: Fraction(1)}):
            return False
    return True

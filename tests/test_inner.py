"""The deformed-block form: closed-form Casimir spectrum, memoised fast path
against the spectral path, and the spectral data shared across gamma."""

import itertools
from fractions import Fraction as F
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from superdual.diagrams import realize
from superdual.labels import RepLabel
from superdual.oscillator import delta_ladder_norms, gram_positivity
from superdual.oscillator import inner
from superdual.oscillator.inner import (
    BlockForm,
    BlockSpectrum,
    _casimir_value,
    _eigen_value,
    _slice_monomials,
    block_form,
    block_spectrum,
    c_mu,
    clear_caches,
)
from superdual.oscillator.states import PERMS
from superdual.partitions import Partition, partitions_bounded

GAMMAS = (F(1, 2), F(-1, 3), F(2, 3))


def _compositions(d, n):
    return [c for c in itertools.product(range(d + 1), repeat=n) if sum(c) == d]


# (n, rows, cols): every slice of n = 1 (d <= 4); for n = 2 every slice of
# d <= 2 and, for d = 3, 4, those with no zero margin, which hold several
# components; and one n = 3 slice per degree d <= 3.
SLICES = (
    [(1, (d,), (d,)) for d in range(5)]
    + [
        (2, rows, cols)
        for d in range(5)
        for rows in _compositions(d, 2)
        for cols in _compositions(d, 2)
        if d <= 2 or all(rows + cols)
    ]
    + [(3, (1, 1, 1), (1, 1, 1)), (3, (2, 1, 0), (1, 1, 1)), (3, (1, 0, 0), (0, 1, 0))]
)

rationals = st.builds(
    F,
    st.integers(-3, 3).filter(bool),
    st.integers(1, 3),
)


def _fock(mat):
    out = 1
    for row in mat:
        for e in row:
            out *= factorial(e)
    return out


@st.composite
def block_vectors(draw):
    """(n, gamma, margins, coords1, coords2) on one slice.

    Each vector is either random coordinates on the slice monomials or a
    random combination inside one GL x GL component, so both the spectral
    path and the single-component path are exercised.
    """
    n, rows, cols = draw(st.sampled_from(SLICES))
    gamma = draw(st.sampled_from(GAMMAS))
    basis = _slice_monomials(rows, cols)
    sl = block_spectrum(n).slice_data(rows, cols)

    def vector():
        if draw(st.booleans()):
            _mu, _sinv, db = draw(st.sampled_from(sl.comps))
            coefs = draw(st.lists(rationals, min_size=len(db), max_size=len(db)))
            coords = {
                m: sum(c * row[sl.index[m]] for c, row in zip(coefs, db)) / _fock(m)
                for m in basis
            }
        else:
            picked = draw(st.lists(st.sampled_from(basis), min_size=1, unique=True))
            coords = {m: draw(rationals) for m in picked}
        coords = {m: c for m, c in coords.items() if c}
        return coords or {basis[0]: F(1)}

    c1 = vector()
    c2 = dict(c1) if draw(st.booleans()) else vector()
    return n, gamma, (rows, cols), c1, c2


@settings(max_examples=150, deadline=None)
@given(block_vectors())
def test_block_form_fast_path_matches_spectral_path(case):
    n, gamma, margins, c1, c2 = case
    # cold: a private spectrum; the shared one holds every earlier example
    fresh = BlockForm(n, gamma)
    fresh.spectrum = BlockSpectrum(n)
    got = fresh.eval_coords(margins, c1, c2)

    sl = fresh.spectrum.slice_data(*margins)
    assert got == sl.eval_projected(sl.project(c1), sl.project(c2), fresh.weight)

    warmed = block_form(n, gamma)
    for _ in range(2):
        warmed.eval_coords(margins, c2, c1)
        assert warmed.eval_coords(margins, dict(c1), dict(c2)) == got

    if n == 1:
        # the pre-memo eigen-test path: C2 eigenvalue, its one partition, c_mu
        ((mono, a),) = c1.items()
        ((_, b),) = c2.items()
        d = mono[0][0]
        lam = _eigen_value(c1, 1, 2)
        (mu,) = [
            m for m in partitions_bounded(1, d)
            if m.size == d and _casimir_value(m, 1, 2) == lam
        ]
        assert got == c_mu(mu, gamma, 1) * a * b * factorial(d)
        rising = F(1)
        for j in range(1, d + 1):
            rising *= gamma + j
        assert got == a * b * rising


def test_clear_caches_gives_identical_results():
    d = realize(RepLabel(2, 2, 0, (), (), (), 0, F(1, 2)), allow_nonunitary=True)

    def run():
        return gram_positivity(d, cutoff=3), delta_ladder_norms(3, F(-1, 3), Partition((1,)), 2)

    clear_caches()
    cold = run()
    assert inner._BLOCK_FORMS and any(s._classes for s in inner._SPECTRA.values())
    warm = run()
    clear_caches()
    assert not inner._BLOCK_FORMS
    assert not inner._SPECTRA
    again = run()
    assert cold == warm == again
    assert cold[0].has_negative


def test_spectrum_shared_across_gamma_gives_identical_results():
    """Spectral data warmed at gamma = 1/2 serves gamma = -1/3 unchanged."""

    def run(beta, gamma):
        # su(2,2) with beta = 2 + gamma_R: one deformed block of size 2
        d = realize(RepLabel(2, 2, 0, (), (), (), 0, beta), allow_nonunitary=True)
        assert d.realization.gamma_R == gamma
        return (
            gram_positivity(d, cutoff=3),
            delta_ladder_norms(3, gamma, Partition((2, 1)), 2),
        )

    clear_caches()
    cold = run(F(5, 3), F(-1, 3))
    clear_caches()
    run(F(5, 2), F(1, 2))
    spectra = dict(inner._SPECTRA)
    # Gram slices of the size-2 block, classified vectors of both blocks
    assert sorted(spectra) == [2, 3]
    assert spectra[2]._slices and spectra[2]._classes and spectra[3]._classes
    warm = run(F(5, 3), F(-1, 3))
    assert warm == cold
    assert all(inner._SPECTRA[n] is spectra[n] for n in (2, 3))
    assert all(f.spectrum is spectra[f.n] for f in inner._BLOCK_FORMS.values())


def _times_leading_minor(poly, y, n):
    """poly * det X[:y, :y] on monomial exponent matrices."""
    out = {}
    for mat, c in poly.items():
        for perm, sign in PERMS[y]:
            new = [list(row) for row in mat]
            for i in range(y):
                new[i][perm[i]] += 1
            key = tuple(map(tuple, new))
            out[key] = out.get(key, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _highest_vector(mu, n):
    """prod_y det X[:y, :y]^(mu_y - mu_{y+1}): the highest vector of V_mu (x) V_mu."""
    poly = {tuple((0,) * n for _ in range(n)): F(1)}
    for y in range(1, n + 1):
        for _ in range(mu.part(y) - mu.part(y + 1)):
            poly = _times_leading_minor(poly, y, n)
    return poly


def test_casimir_closed_form_matches_highest_vector_eigenvalues():
    cases = 0
    # every block size PERMS accepts, up to MAX_BLOCK = 8
    for n, top in ((1, 6), (2, 6), (3, 6), (4, 4), (5, 3), (6, 3), (7, 2), (8, 2)):
        for mu in partitions_bounded(n, top):
            if mu.size > top:
                continue
            hv = _highest_vector(mu, n)
            for order in (2, 3):
                assert _casimir_value(mu, n, order) == _eigen_value(hv, n, order), (n, mu, order)
            cases += 1
    assert cases == 7 + 16 + 23 + 12 + 7 + 7 + 4 + 4

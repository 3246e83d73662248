"""Exact Hermitian form on the polynomial (t^0) sector.

The form factorises over the oscillator families.  Plain Fock factors pair
monomials diagonally with factorials; fermions pair canonical monomials with
delta.  On a deformed square block the unique form making a and a+ adjoint
restricts to each GL x GL component V_mu (x) V_mu of C[X] as the Fock form
rescaled by

    c_mu(gamma) = prod_{(i,j) in mu} (gamma + n - i + j) / (n - i + j),

n being the block size; the weights follow from the Capelli norm ladder
|v t^{k+1}|^2 = prod_i (mu_i + n - i + gamma + k + 1) |v t^k|^2 together with
F_gamma ~ F_{gamma+1}.  Components are split per bi-charge slice with exact
spectral projectors of the quadratic (and, on collisions, cubic) gl Casimir,
whose eigenvalues on V_mu are closed-form integers (`_casimir_value`).

None of this spectral data depends on gamma, so each block size n has one
shared `BlockSpectrum`.  It memoises the component bases of every slice it has
met and, per distinct block vector, which single component (if any) holds it,
so a vector entering many Gram entries, at any gamma, is tested against the
Casimirs once.  Each (n, gamma) has one `BlockForm` on top of it, which adds
only the weights c_mu(gamma).  A size-1 block needs no test: every vector of
degree d lies in the one component mu = (d).  `clear_caches()` drops both
tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ..partitions import Partition, partitions_bounded
from ..rationals import rat
from .states import block_matrix


def c_mu(mu: Partition, gamma: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for (i, j) in mu.cells():
        out *= Fraction(gamma + n - i + j, 1) / (n - i + j)
    return out


def _casimir_value(mu: Partition, n: int, order: int) -> int:
    """Eigenvalue on V_mu of the quadratic (order 2) or cubic (order 3) gl(n)
    invariant applied by `_casimir_apply`.

    The Perelomov-Popov formula, summed in closed form over mu padded to n
    parts (k = 1..n).
    """
    lam = mu.padded(n)
    if order == 2:
        return sum(x * (x + n + 1 - 2 * k) for k, x in enumerate(lam, 1))
    size = sum(lam)
    return sum(
        x**3 + (2 * n + 1 - 3 * k) * x * x + ((n + 1 - 2 * k) ** 2 - k * (k - 1)) * x
        for k, x in enumerate(lam, 1)
    ) - (size * size - sum(x * x for x in lam)) // 2


# -- linear algebra over Q ---------------------------------------------------

def _null_space(M):
    """Basis of the kernel of M (rows = equations) as a list of vectors."""
    if not M:
        return []
    rows = [list(r) for r in M]
    ncols = len(rows[0])
    pivots = {}
    r = 0
    for c in range(ncols):
        pr = None
        for rr in range(r, len(rows)):
            if rows[rr][c] != 0:
                pr = rr
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c] != 0:
                f = rows[rr][c]
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        pivots[c] = r
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for c, pr in pivots.items():
            v[c] = -rows[pr][fc]
        basis.append(v)
    return basis


# -- per-slice machinery ------------------------------------------------------

def _slice_monomials(rows, cols):
    """All nonneg integer matrices with the given row and column sums."""
    n_r, n_c = len(rows), len(cols)

    def rec(r, remaining_cols):
        if r == n_r:
            if all(x == 0 for x in remaining_cols):
                yield ()
            return
        for row in _rows_with_sum(rows[r], remaining_cols):
            yield from (
                (row,) + rest
                for rest in rec(r + 1, tuple(a - b for a, b in zip(remaining_cols, row)))
            )

    def _rows_with_sum(total, caps):
        if len(caps) == 1:
            if total <= caps[0]:
                yield (total,)
            return
        for first in range(min(total, caps[0]) + 1):
            for rest in _rows_with_sum(total - first, caps[1:]):
                yield (first,) + rest

    return list(rec(0, tuple(cols)))


def _casimir_apply(lc: dict, n: int, order: int) -> dict:
    """Quadratic or cubic gl(n) invariant applied to a monomial dict."""
    out = {}
    if order == 2:
        for i in range(n):
            for j in range(n):
                for m, c in _L_apply(_L_apply(lc, j, i, n), i, j, n).items():
                    out[m] = out.get(m, Fraction(0)) + c
    else:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    img = _L_apply(_L_apply(_L_apply(lc, k, i, n), j, k, n), i, j, n)
                    for m, c in img.items():
                        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _eigen_value(coords: dict, n: int, order: int):
    """Exact eigenvalue of the Casimir on coords, or None if not an eigenvector."""
    img = _casimir_apply(coords, n, order)
    ref_m, ref_c = next(iter(coords.items()))
    lam = img.get(ref_m, Fraction(0)) / ref_c
    want = {m: lam * c for m, c in coords.items() if lam * c}
    return lam if img == want else None


def _L_apply(lc: dict, i: int, j: int, n: int) -> dict:
    """L_ij = sum_A x_iA d/dx_jA on a dict of monomial matrices."""
    out = {}
    for mat, coef in lc.items():
        for A in range(n):
            e = mat[j][A]
            if not e:
                continue
            new = [list(r) for r in mat]
            new[j][A] -= 1
            new[i][A] += 1
            tgt = tuple(tuple(r) for r in new)
            out[tgt] = out.get(tgt, Fraction(0)) + coef * e
    return {k: v for k, v in out.items() if v}


def _casimir_matrix(basis, index, n, order):
    """Matrix of the quadratic/cubic gl(n) invariant on the margin slice."""
    total = [[Fraction(0)] * len(basis) for _ in basis]
    for k, mat in enumerate(basis):
        for tgt, coef in _casimir_apply({mat: Fraction(1)}, n, order).items():
            total[index[tgt]][k] += coef
    return total


class BlockSlice:
    """One bi-charge slice of the deformed-block form.

    Stores, per GL x GL component mu: mu, the inverse Fock-Gram of a
    component basis, and the Fock-weighted component rows DB, so that
    <u, v> = sum_mu c_mu (DB u)^T S^-1 (DB v) costs O(k^2) per vector pair
    after an O(dim * k) projection.  Nothing here depends on gamma; the
    weights c_mu come in through `eval_projected`.
    """

    def __init__(self, index, comps):
        self.index = index
        self.comps = comps  # list of (mu, Sinv, DB)

    def project(self, coords: dict):
        """coords: submatrix -> coeff.  Returns per-component k-vectors."""
        out = []
        for _mu, _sinv, db in self.comps:
            out.append(
                [
                    sum(c * row[self.index[m]] for m, c in coords.items())
                    for row in db
                ]
            )
        return out

    def eval_projected(self, u, v, weight) -> Fraction:
        """The pairing of two projected vectors; weight(mu) gives c_mu."""
        total = Fraction(0)
        for (mu, sinv, _db), uc, vc in zip(self.comps, u, v):
            if all(x == 0 for x in uc) or all(x == 0 for x in vc):
                continue
            total += weight(mu) * sum(
                uc[r] * sinv[r][c] * vc[c]
                for r in range(len(uc))
                for c in range(len(vc))
            )
        return total


class BlockForm:
    """Deformed-block pairings for one (size, gamma): the shared spectrum of
    its size plus the weights c_mu(gamma)."""

    def __init__(self, n: int, gamma: Fraction):
        self.n = n
        self.gamma = rat(gamma)
        self.spectrum = block_spectrum(n)
        self._weights = {}  # mu -> c_mu(gamma)

    def margins(self, m):
        rows = tuple(sum(r) for r in m)
        cols = tuple(sum(m[i][j] for i in range(self.n)) for j in range(self.n))
        return rows, cols

    def pair(self, m1, m2) -> Fraction:
        k1, k2 = self.margins(m1), self.margins(m2)
        if k1 != k2:
            return Fraction(0)
        return self.eval_coords(k1, {m1: Fraction(1)}, {m2: Fraction(1)})

    def eval_coords(self, margins, coords1, coords2) -> Fraction:
        fast = self._single_component(margins, coords1, coords2)
        if fast is not None:
            return fast
        sl = self.spectrum.slice_data(*margins)
        return sl.eval_projected(sl.project(coords1), sl.project(coords2), self.weight)

    def weight(self, mu: Partition) -> Fraction:
        """c_mu(gamma), computed once per mu."""
        w = self._weights.get(mu)
        if w is None:
            w = self._weights[mu] = c_mu(mu, self.gamma, self.n)
        return w

    def _fock_pair(self, coords1, coords2) -> Fraction:
        total = Fraction(0)
        for m, c in coords1.items():
            c2 = coords2.get(m)
            if c2:
                f = 1
                for row in m:
                    for e in row:
                        f *= factorial(e)
                total += c * c2 * f
        return total

    def _single_component(self, margins, coords1, coords2):
        """c_mu * Fock pairing when both vectors lie in one component mu,
        zero when they lie in different C2 eigenspaces, None otherwise.

        This avoids building the spectral decomposition of large slices for
        vectors like the Delta+ ladders, which live in a single component.
        A slice of degree 0 or of a size-1 block is one component, mu = (d).
        """
        d = sum(margins[0])
        if d == 0 or self.n == 1:
            return self.weight(Partition((d,))) * self._fock_pair(coords1, coords2)
        cls1 = self.spectrum.classify(coords1)
        if cls1 is None:
            return None
        cls2 = self.spectrum.classify(coords2)
        if cls2 is None:
            return None
        if cls2[0] != cls1[0]:
            return Fraction(0)
        if cls1[1] is None or cls2[1] != cls1[1]:
            return None
        return self.weight(cls1[1]) * self._fock_pair(coords1, coords2)


class BlockSpectrum:
    """Gamma-independent spectral data of the size-n block, memoised."""

    def __init__(self, n: int):
        self.n = n
        self._slices = {}
        self._classes = {}  # frozenset(coords.items()) -> classify() result

    def classify(self, coords: dict):
        """(C2 eigenvalue, mu) for a C2 eigenvector, None otherwise.

        mu is the one component holding the vector, told apart by the cubic
        invariant when C2 eigenvalues collide, or None when no single
        component is identified.  Memoised by content, so equal vectors are
        tested once.
        """
        key = frozenset(coords.items())
        if key in self._classes:
            return self._classes[key]
        n = self.n
        lam2 = _eigen_value(coords, n, 2)
        out = None
        if lam2 is not None:
            d = sum(sum(row) for row in next(iter(coords)))
            mus = [
                mu for mu in partitions_bounded(n, d)
                if mu.size == d and _casimir_value(mu, n, 2) == lam2
            ]
            if len(mus) > 1:
                lam3 = _eigen_value(coords, n, 3)
                mus = [] if lam3 is None else [
                    mu for mu in mus if _casimir_value(mu, n, 3) == lam3
                ]
            out = (lam2, mus[0] if len(mus) == 1 else None)
        self._classes[key] = out
        return out

    def slice_data(self, rows, cols) -> BlockSlice:
        key = (rows, cols)
        if key in self._slices:
            return self._slices[key]
        basis = _slice_monomials(rows, cols)
        index = {m: i for i, m in enumerate(basis)}
        dim = len(basis)
        d = sum(rows)

        fock = []
        for mat in basis:
            f = 1
            for row in mat:
                for e in row:
                    f *= factorial(e)
            fock.append(Fraction(f))

        components = []  # (mu, [vectors])
        if d == 0:
            components.append((Partition(), [[Fraction(1)]]))
        else:
            cands = [mu for mu in partitions_bounded(self.n, d) if mu.size == d]
            C2 = _casimir_matrix(basis, index, self.n, 2)
            by_c2 = {}
            for mu in cands:
                by_c2.setdefault(_casimir_value(mu, self.n, 2), []).append(mu)
            C3 = None
            for lam2, mus in sorted(by_c2.items()):
                M = [
                    [C2[r][c] - (lam2 if r == c else 0) for c in range(dim)]
                    for r in range(dim)
                ]
                kern = _null_space(M)
                if not kern:
                    continue
                if len(mus) == 1:
                    components.append((mus[0], kern))
                    continue
                # refine by the cubic invariant inside the C2 eigenspace
                if C3 is None:
                    C3 = _casimir_matrix(basis, index, self.n, 3)
                assigned = 0
                for mu in mus:
                    lam3 = _casimir_value(mu, self.n, 3)
                    rows_eq = _transpose_apply(C3, kern, lam3)
                    sub = _null_space(rows_eq) if rows_eq else [
                        [Fraction(1) if t == s else Fraction(0) for t in range(len(kern))]
                        for s in range(len(kern))
                    ]
                    vecs = [
                        [
                            sum(coef[t] * kern[t][i] for t in range(len(kern)))
                            for i in range(dim)
                        ]
                        for coef in sub
                    ]
                    if vecs:
                        components.append((mu, vecs))
                        assigned += len(vecs)
                if assigned != len(kern):
                    raise AssertionError(
                        "cubic invariant failed to split a Casimir collision"
                    )
        total_dim = sum(len(v) for _, v in components)
        if total_dim != dim:
            raise AssertionError("Casimir spectral decomposition incomplete")

        comps = []
        for mu, vecs in components:
            k = len(vecs)
            S = [
                [
                    sum(vecs[r][i] * fock[i] * vecs[c][i] for i in range(dim))
                    for c in range(k)
                ]
                for r in range(k)
            ]
            Sinv = _invert(S)
            DB = [[fock[i] * vecs[r][i] for i in range(dim)] for r in range(k)]
            comps.append((mu, Sinv, DB))
        sl = BlockSlice(index, comps)
        self._slices[key] = sl
        return sl


def _transpose_apply(C, kern, lam):
    """Rows expressing (C - lam) applied to span(kern) in kern coordinates.

    Returns equations over the kern-coefficient space whose null space are
    the lam-eigenvectors of C inside span(kern).
    """
    dim = len(C)
    out = []
    images = []
    for v in kern:
        w = [
            sum(C[r][c] * v[c] for c in range(dim)) - lam * v[r] for r in range(dim)
        ]
        images.append(w)
    # each ambient coordinate gives one linear equation on the coefficients
    for r in range(dim):
        row = [images[t][r] for t in range(len(kern))]
        if any(x != 0 for x in row):
            out.append(row)
    return out


def _invert(S):
    k = len(S)
    aug = [list(S[i]) + [Fraction(1) if j == i else Fraction(0) for j in range(k)] for i in range(k)]
    for c in range(k):
        pr = next(r for r in range(c, k) if aug[r][c] != 0)
        aug[c], aug[pr] = aug[pr], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(k):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


_SPECTRA = {}  # n -> BlockSpectrum
_BLOCK_FORMS = {}  # (n, gamma) -> BlockForm


def block_spectrum(n: int) -> BlockSpectrum:
    if n not in _SPECTRA:
        _SPECTRA[n] = BlockSpectrum(n)
    return _SPECTRA[n]


def block_form(n: int, gamma: Fraction) -> BlockForm:
    key = (n, rat(gamma))
    if key not in _BLOCK_FORMS:
        _BLOCK_FORMS[key] = BlockForm(*key)
    return _BLOCK_FORMS[key]


def clear_caches() -> None:
    """Drop every shared block spectrum (slices, classifications) and block
    form (weights); later calls recompute them."""
    _SPECTRA.clear()
    _BLOCK_FORMS.clear()


# ---------------------------------------------------------------------------
# full inner product
# ---------------------------------------------------------------------------

def _split_state(spec, s):
    """(rest key, a_sub, b_sub): deformed submatrices split off the plain rest."""
    if s.sL or s.sR:
        raise ValueError("inner product is implemented on the t^0 sector")
    a_cols = spec.A_delta if spec.a_deformed else ()
    b_cols = spec.B_delta if spec.b_deformed else ()
    plain_a = tuple(
        tuple(s.a[fl][A] for A in range(spec.P) if A not in a_cols)
        for fl in range(spec.q)
    )
    plain_b = tuple(
        tuple(s.b[fl][A] for A in range(spec.P) if A not in b_cols)
        for fl in range(spec.p)
    )
    a_sub = block_matrix(s.a, range(spec.q), a_cols) if spec.a_deformed else None
    b_sub = block_matrix(s.b, range(spec.p), b_cols) if spec.b_deformed else None
    return (s.f, plain_a, plain_b), a_sub, b_sub


def _plain_factor(rest):
    _f, plain_a, plain_b = rest
    val = 1
    for mat in (plain_a, plain_b):
        for row in mat:
            for e in row:
                val *= factorial(e)
    return Fraction(val)


def _group(spec, lc):
    groups = {}
    for s, c in lc.items():
        rest, a_sub, b_sub = _split_state(spec, s)
        groups.setdefault(rest, {})
        key = (a_sub, b_sub)
        groups[rest][key] = groups[rest].get(key, Fraction(0)) + c
    return groups


def inner_product(spec, u, v) -> Fraction:
    """Exact pairing of two LinCombs (or states) in the polynomial sector.

    Factorises over oscillator families: plain Fock factors pair diagonally
    with factorials, fermions with delta, and each deformed block through its
    c_mu-weighted form, evaluated per bi-charge slice at vector level.
    """
    lc1 = u if isinstance(u, dict) else {u: Fraction(1)}
    lc2 = v if isinstance(v, dict) else {v: Fraction(1)}
    if not lc1 or not lc2:
        return Fraction(0)
    g1 = _group(spec, lc1)
    g2 = _group(spec, lc2)
    form_a = block_form(spec.q, spec.gamma_R) if spec.a_deformed else None
    form_b = block_form(spec.p, spec.gamma_L) if spec.b_deformed else None

    total = Fraction(0)
    for rest, terms1 in g1.items():
        terms2 = g2.get(rest)
        if not terms2:
            continue
        fact = _plain_factor(rest)
        if form_a is None and form_b is None:
            c1 = terms1.get((None, None), Fraction(0))
            c2 = terms2.get((None, None), Fraction(0))
            total += fact * c1 * c2
        elif form_b is None:
            total += fact * _eval_single(form_a, terms1, terms2, 0)
        elif form_a is None:
            total += fact * _eval_single(form_b, terms1, terms2, 1)
        else:
            total += fact * _eval_double(form_a, form_b, terms1, terms2)
    return total


def _eval_single(form, terms1, terms2, pos):
    by_margin1 = {}
    for (a_sub, b_sub), c in terms1.items():
        sub = (a_sub, b_sub)[pos]
        by_margin1.setdefault(form.margins(sub), {})[sub] = c
    by_margin2 = {}
    for (a_sub, b_sub), c in terms2.items():
        sub = (a_sub, b_sub)[pos]
        by_margin2.setdefault(form.margins(sub), {})[sub] = c
    total = Fraction(0)
    for marg, coords1 in by_margin1.items():
        coords2 = by_margin2.get(marg)
        if coords2:
            total += form.eval_coords(marg, coords1, coords2)
    return total


def _eval_double(form_a, form_b, terms1, terms2):
    def organise(terms):
        by_key = {}
        for (a_sub, b_sub), c in terms.items():
            key = (form_a.margins(a_sub), form_b.margins(b_sub))
            by_key.setdefault(key, {}).setdefault(b_sub, {})[a_sub] = c
        return by_key

    k1, k2 = organise(terms1), organise(terms2)
    total = Fraction(0)
    for key, bgroups1 in k1.items():
        bgroups2 = k2.get(key)
        if not bgroups2:
            continue
        a_marg = key[0]
        for b1, coords_a1 in bgroups1.items():
            for b2, coords_a2 in bgroups2.items():
                gb = form_b.pair(b1, b2)
                if gb:
                    total += gb * form_a.eval_coords(a_marg, coords_a1, coords_a2)
    return total

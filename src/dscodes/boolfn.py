"""Walsh spectra, spectral classification, quadratic-form rank, almost-bent tests.

Everything here is exact integer arithmetic.  The Walsh transform runs as a
fast butterfly over the index bits; translating between "XOR-dot of indices"
and the field pairing Tr(wx) is a GF(2)-linear relabeling of the frequency
axis, built once per field from the trace form and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvenDegreeError,
    InvariantError,
    NotQuadraticFormError,
    PreconditionFailedError,
    SizeLimitError,
    UnknownKindError,
)
from .cyclotomic import CycInt, is_rational
from .designs import FuncSpec
from .gf import Field, gfp_rank

AB_DEGREE_LIMIT = 9


@dataclass(frozen=True)
class WalshSpectrum:
    """values[w] = f_hat(w) = sum over x of (-1)^(f(x)+Tr(wx))."""

    m: int
    values: tuple

    @property
    def n_f(self):
        return ((1 << self.m) - self.values[0]) // 2

    def distinct(self):
        return tuple(sorted(set(self.values)))

    def histogram(self):
        out = {}
        for v in self.values:
            out[v] = out.get(v, 0) + 1
        return dict(sorted(out.items()))


def _fwht(a):
    # in-place radix-2 butterfly; a has power-of-two length
    n = len(a)
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :].copy()
        a[:, 0, :] = top + a[:, 1, :]
        a[:, 1, :] = top - a[:, 1, :]
        a = a.reshape(n)
        h *= 2
    return a


def _trace_pairing_map(F: Field):
    """umap with Tr(w*x) == popcount(umap[w] & x) mod 2 for all w, x."""
    umap = getattr(F, "_walsh_umap", None)
    if umap is not None:
        return umap
    basis = np.asarray(F.basis(), dtype=np.int64)
    # bit j of ubasis[i] is Tr(alpha^i alpha^j)
    ubasis = F.trace(F.mul(basis[:, None], basis[None, :])) @ basis
    umap = np.zeros(F.q, dtype=np.int64)
    for i in range(F.m):
        step = 1 << i
        umap[step : 2 * step] = umap[:step] ^ ubasis[i]
    F._walsh_umap = umap
    return umap


def walsh_from_table(F: Field, ftable) -> WalshSpectrum:
    signs = 1 - 2 * np.asarray(ftable, dtype=np.int64)
    transformed = _fwht(signs.copy())
    values = transformed[_trace_pairing_map(F)]
    return WalshSpectrum(F.m, tuple(int(v) for v in values))


def walsh_transform(F: Field, f: FuncSpec) -> WalshSpectrum:
    if F.p != 2:
        raise ValueError("Walsh transform is defined over GF(2^m)")
    tbl = f.table(F) if f.to_prime_subfield else F.trace(f.table(F))
    return walsh_from_table(F, tbl)


@dataclass(frozen=True)
class SpectralClass:
    variant: str  # bent | semibent | plateaued | five-valued | other
    n_f: int
    values: tuple
    amplitude: int = 0


def classify_spectrum(s: WalshSpectrum) -> SpectralClass:
    m = s.m
    distinct = s.distinct()
    n_f = s.n_f
    nonzero = [v for v in distinct if v != 0]
    if m % 2 == 0 and all(abs(v) == 1 << (m // 2) for v in distinct):
        return SpectralClass("bent", n_f, distinct, 1 << (m // 2))
    if m % 2 == 1 and set(distinct) <= {0, 1 << ((m + 1) // 2), -(1 << ((m + 1) // 2))}:
        return SpectralClass("semibent", n_f, distinct, 1 << ((m + 1) // 2))
    if nonzero and all(abs(v) == abs(nonzero[0]) for v in nonzero):
        amp = abs(nonzero[0])
        if amp < 1 << m:
            return SpectralClass("plateaued", n_f, distinct, amp)
    if m % 2 == 1:
        lo, hi = 1 << ((m - 1) // 2), 1 << ((m + 1) // 2)
        if set(distinct) == {0, lo, -lo, hi, -hi}:
            return SpectralClass("five-valued", n_f, distinct, hi)
    return SpectralClass("other", n_f, distinct)


# ---------------------------------------------------------------------------
# quadratic forms

@dataclass(frozen=True)
class QuadraticRank:
    r: int
    radical_dim: int


def _is_quadratic_exponent(p, e):
    # e == p^i + p^j for some i <= j
    pi = 1
    while pi * 2 <= e:
        rem = e - pi
        if rem >= pi:
            while rem % p == 0:
                rem //= p
            if rem == 1:
                return True
        pi *= p
    return False


def quadratic_rank(F: Field, f: FuncSpec) -> QuadraticRank:
    """Rank r (codimension of the radical V_f) of a quadratic form.

    Accepts trace-valued forms and GF(q)-valued forms alike; every exponent
    must be of the shape p^i + p^j.
    """
    for _, e in f.terms:
        if not _is_quadratic_exponent(F.p, e):
            raise NotQuadraticFormError(f"exponent {e} is not of the form p^i+p^j")
    m = F.m
    basis = np.asarray(F.basis(), dtype=np.int64)
    # bilinear values B(a_i, a_j) = f(a_i + a_j) - f(a_i) - f(a_j)
    fb = f.evaluate(F, basis)
    fpair = f.evaluate(F, F.add(basis[:, None], basis[None, :]))
    if f.to_prime_subfield:
        rows = (fpair - fb[:, None] - fb[None, :]) % F.p
    else:
        bilin = F.sub(F.sub(fpair, fb[:, None]), fb[None, :])
        # row (j, d) holds digit d of B(a_i, a_j) for every i
        rows = F.digits(bilin).transpose(1, 2, 0).reshape(m * m, m)
    r = gfp_rank(rows, F.p)
    return QuadraticRank(r, m - r)


def quadratic_galois_sum(F: Field, f: FuncSpec) -> int:
    """sum over y in GF(p)*, x in GF(q) of zeta^(y*f(x)), a rational integer."""
    tbl = f.table(F)
    if not f.to_prime_subfield:
        tbl = F.trace(tbl)
    counts = np.bincount(np.asarray(tbl, dtype=np.int64), minlength=F.p)
    base = CycInt.from_counts(F.p, counts.tolist())
    total = CycInt.integer(F.p, 0)
    for y in range(1, F.p):
        total = total + base.galois(y)
    val = is_rational(total)
    if val is None:
        raise InvariantError("Galois-orbit sum must be rational")
    return val


# ---------------------------------------------------------------------------
# almost bent functions

def lambda_spectrum(F: Field, g: FuncSpec, a, b) -> int:
    """lambda_g(a,b) = sum over x of (-1)^Tr(a*g(x) + b*x)."""
    if g.to_prime_subfield:
        raise ValueError("lambda spectrum needs a GF(q)-valued function")
    gt = g.table(F)
    inner = F.add(F.mul(gt, a), F.mul(np.arange(F.q), b))
    tv = F.trace(inner).astype(np.int64)
    return int(np.sum(1 - 2 * tv))


def is_almost_bent(F: Field, g: FuncSpec) -> bool:
    """All lambda_g(a,b), a != 0, in {0, +-2^((m+1)/2)}; exhaustive check."""
    if F.p != 2:
        raise ValueError("almost bent functions live on GF(2^m)")
    if F.m % 2 == 0:
        raise EvenDegreeError("almost bent functions exist only for odd m")
    if F.m > AB_DEGREE_LIMIT:
        raise SizeLimitError(f"exhaustive AB check limited to m <= {AB_DEGREE_LIMIT}")
    allowed = {0, 1 << ((F.m + 1) // 2), -(1 << ((F.m + 1) // 2))}
    gt = g.table(F)
    for a in range(1, F.q):
        fa = F.trace(F.mul(gt, a))
        spec = walsh_from_table(F, fa)
        if not set(spec.values) <= allowed:
            return False
    return True


def support_size_prediction(kind: str, m: int, walsh0=None, rank=None):
    """Admissible n_f values for the named class, given side data."""
    if kind == "bent":
        if walsh0 is not None:
            return {(1 << (m - 1)) - walsh0 // 2}
        return {(1 << (m - 1)) - (1 << ((m - 2) // 2)), (1 << (m - 1)) + (1 << ((m - 2) // 2))}
    if kind in ("semibent", "ab-trace"):
        shift = 1 << ((m - 1) // 2)
        table = {0: 1 << (m - 1), 2 * shift: (1 << (m - 1)) - shift, -2 * shift: (1 << (m - 1)) + shift}
        if walsh0 is None:
            return set(table.values())
        return {table[walsh0]}
    if kind == "quadratic":
        if walsh0 is not None:
            return {(1 << (m - 1)) - walsh0 // 2}
        if rank is None:
            raise ValueError("quadratic prediction needs walsh0 or the rank")
        shift = 1 << (m - 1 - rank // 2)
        return {1 << (m - 1), (1 << (m - 1)) - shift, (1 << (m - 1)) + shift}
    raise UnknownKindError(f"no support-size rule for {kind!r}")


# ---------------------------------------------------------------------------
# hyperoval image spectra

@dataclass(frozen=True)
class HyperovalCheck:
    m: int
    i: int
    j: int
    kappa: int
    ell: int
    ok: bool
    violations: tuple


def hyperoval_spectrum_check(F: Field, i: int, j: int) -> HyperovalCheck:
    """Walsh spectrum of the indicator of Im(x^(2^i+2^j) + x).

    Verifies f_hat(b) = 0 exactly when Tr(b^ell) = 0 (including b = 0) and
    f_hat(b) = +-2^((m+1)/2) when Tr(b^ell) = 1.
    """
    m = F.m
    if F.p != 2:
        raise PreconditionFailedError("p = 2", "hyperovals live in GF(2^m)")
    if m % 2 == 0:
        raise PreconditionFailedError("m odd", f"m = {m}")
    if not 0 <= i < j < m:
        raise PreconditionFailedError("0 <= i < j < m", f"(i, j) = ({i}, {j})")
    kappa = j - i
    if math.gcd(2**kappa + 1, 2**m - 1) != 1:
        raise PreconditionFailedError(
            "gcd(2^kappa+1, 2^m-1) = 1", f"kappa = {kappa}, m = {m}"
        )
    rho = 2**i + 2**j
    xs = np.arange(F.q, dtype=np.int64)
    gamma = F.add(F.pow(xs, rho), xs)
    fibers = np.bincount(gamma, minlength=F.q)
    if not np.all((fibers == 0) | (fibers == 2)):
        raise PreconditionFailedError("Gamma_rho two-to-one", f"rho = {rho}")
    indicator = (fibers > 0).astype(np.int64)
    spec = walsh_from_table(F, indicator)
    ell = (rho - 1) * pow(2**kappa + 1, -1, 2**m - 1) % (2**m - 1)
    tr_ell = F.trace(F.pow(xs, ell))
    amp = 1 << ((m + 1) // 2)
    violations = []
    for b in range(F.q):
        v = spec.values[b]
        good = v == 0 if tr_ell[b] == 0 else abs(v) == amp
        if not good:
            violations.append((b, v))
            if len(violations) >= 8:
                break
    return HyperovalCheck(m, i, j, kappa, ell, not violations, tuple(violations))


# ---------------------------------------------------------------------------
# searching the quadratic family f(x) = Tr(sum f_i x^(2^i+1))

def iter_quadratic_specs(F: Field, start=1, stride=1):
    """Deterministic walk over nonzero coefficient tuples (f_0..f_{m//2}).

    Tuple index n is decoded base q with f_0 varying fastest.
    """
    npos = F.m // 2 + 1
    total = F.q**npos
    n = start
    while n < total:
        digits = []
        v = n
        for _ in range(npos):
            digits.append(v % F.q)
            v //= F.q
        terms = tuple((c, (1 << i) + 1) for i, c in enumerate(digits) if c)
        if terms:
            yield FuncSpec(terms, True)
        n += stride


def find_quadratic_with(F: Field, rank=None, walsh0=None, limit=200000) -> FuncSpec:
    """First quadratic Boolean function matching the requested rank / f_hat(0)."""
    seen = 0
    for spec in iter_quadratic_specs(F):
        seen += 1
        if seen > limit:
            break
        if rank is not None and quadratic_rank(F, spec).r != rank:
            continue
        if walsh0 is not None:
            s = walsh_from_table(F, spec.table(F))
            if s.values[0] != walsh0:
                continue
        return spec
    raise SizeLimitError("no quadratic function matched within the search budget")

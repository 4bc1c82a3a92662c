"""Walsh spectra, spectral classification, quadratic-form rank, almost-bent tests.

Everything here is exact integer arithmetic.  The Walsh transform runs as
cyclotomic.fwht, the butterfly over the index bits that also enumerates the
binary codes; translating between "XOR-dot of indices" and the field pairing
Tr(wx) is a GF(2)-linear relabeling of the frequency axis, the column span
of the trace form's basis rows, built for each transform.  Quadratic forms
are coefficient rows over an exponent tuple (0 = absent term), evaluated by
designs.evaluate_rows on the m + m^2 points a rank reads and on whole tables
alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SizeLimitError, ToolkitError
from .cyclotomic import fwht
from .designs import FuncSpec, coefficient_rows, evaluate_rows
from .gf import Field, column_span, gfp_rank

AB_DEGREE_LIMIT = 9
# quadratic forms evaluated and ranked per stacked gfp_rank call
RANK_CHUNK = 256


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """values[w] = f_hat(w) = sum over x of (-1)^(f(x)+Tr(wx)), a read-only int64 array."""

    m: int
    values: np.ndarray

    @property
    def n_f(self):
        return ((1 << self.m) - int(self.values[0])) // 2

    def distinct(self):
        return tuple(self._histogram)

    def histogram(self):
        return dict(self._histogram)

    @cached_property
    def _histogram(self):
        # values is read-only, so one sort serves every call; a neighbour test on
        # it replaces np.unique, which hashes and is far slower at 2^20 values
        v = np.sort(self.values)
        starts = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
        counts = np.diff(np.append(starts, v.size))
        return dict(zip(v[starts].tolist(), counts.tolist()))

    def __eq__(self, other):
        if not isinstance(other, WalshSpectrum):
            return NotImplemented
        return self.m == other.m and np.array_equal(self.values, other.values)

    __hash__ = None  # equal spectra must hash equal, and the array is not hashable


def _trace_pairing_map(F: Field):
    """umap with Tr(w*x) == popcount(umap[w] & x) mod 2 for all w, x.

    The map w -> umap[w] is GF(2)-linear, so umap is the column span of its
    values on the basis.  int32: the XOR of element indices below q <= 2^25
    stays below q.
    """
    basis = np.asarray(F.basis(), dtype=np.int64)
    # bit j of ubasis[i] is Tr(alpha^i alpha^j)
    ubasis = F.trace(F.mul(basis[:, None], basis[None, :])) @ basis
    return column_span(ubasis.astype(np.int32), 2)


def _signs(table):
    """(-1)^f as int32, one fresh array, for a 0/1 table f."""
    signs = np.asarray(table).astype(np.int32)
    signs *= -2
    signs += 1
    return signs


def walsh_from_table(F: Field, ftable):
    """The spectrum of a 0/1 table, or for a (k, q) stack of them one butterfly
    and a list of spectra, each a row of one read-only int64 array."""
    values = fwht(_signs(ftable))[..., _trace_pairing_map(F)].astype(np.int64)
    values.setflags(write=False)
    if values.ndim == 1:
        return WalshSpectrum(F.m, values)
    return [WalshSpectrum(F.m, row) for row in values]


def walsh_transform(F: Field, f: FuncSpec) -> WalshSpectrum:
    """The spectrum of the Boolean function Tr(f)."""
    if F.p != 2:
        raise ToolkitError("Walsh transform is defined over GF(2^m)")
    return walsh_from_table(F, f.table(F, traced=True))


@dataclass(frozen=True)
class SpectralClass:
    variant: str  # bent | semibent | plateaued | five-valued | other
    amplitude: int = 0


def classify_spectrum(s: WalshSpectrum) -> SpectralClass:
    m = s.m
    distinct = s.distinct()
    nonzero = [v for v in distinct if v != 0]
    if m % 2 == 0 and all(abs(v) == 1 << (m // 2) for v in distinct):
        return SpectralClass("bent", 1 << (m // 2))
    if m % 2 == 1 and set(distinct) <= {0, 1 << ((m + 1) // 2), -(1 << ((m + 1) // 2))}:
        return SpectralClass("semibent", 1 << ((m + 1) // 2))
    if nonzero and all(abs(v) == abs(nonzero[0]) for v in nonzero):
        amp = abs(nonzero[0])
        if amp < 1 << m:
            return SpectralClass("plateaued", amp)
    if m % 2 == 1:
        lo, hi = 1 << ((m - 1) // 2), 1 << ((m + 1) // 2)
        if set(distinct) == {0, lo, -lo, hi, -hi}:
            return SpectralClass("five-valued", hi)
    return SpectralClass("other")


# ---------------------------------------------------------------------------
# quadratic forms

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


def quadratic_rank(F: Field, f, exps=None, *, traced):
    """Rank r (codimension of the radical V_f) of one quadratic form or of each in a sequence.

    A FuncSpec gives an int; a sequence of them, or with exps a coefficient
    matrix over exps, an int64 array.  traced ranks every form as Tr(f), a
    GF(p)-valued form, and otherwise as the GF(q)-valued f; the two ranks can
    differ.  A bad exponent (not p^i + p^j) raises before anything is
    evaluated.  The forms are evaluated RANK_CHUNK at a time as one matrix on
    the m + m^2 points a_i, a_i + a_j, and each chunk's B(a_i, a_j) =
    f(a_i + a_j) - f(a_i) - f(a_j) goes to one gfp_rank, so the stack never
    holds more than RANK_CHUNK forms.
    """
    if exps is None:
        exps, coeffs = coefficient_rows([f] if isinstance(f, FuncSpec) else list(f))
    else:
        coeffs = np.asarray(f, dtype=np.int32)
    for e in exps:
        if not _is_quadratic_exponent(F.p, e):
            raise ToolkitError(f"exponent {e} is not of the form p^i+p^j")
    if not len(coeffs):
        return np.zeros(0, dtype=np.int64)
    m = F.m
    basis = np.asarray(F.basis(), dtype=np.int32)
    points = np.concatenate((basis, F.add(basis[:, None], basis[None, :]).ravel()))
    ranks = np.empty(len(coeffs), dtype=np.int64)
    for lo in range(0, len(coeffs), RANK_CHUNK):
        vals = evaluate_rows(F, exps, coeffs[lo : lo + RANK_CHUNK], points, traced)
        fb, fpair = vals[:, :m], vals[:, m:].reshape(-1, m, m)
        bilin = F.sub(F.sub(fpair, fb[:, :, None]), fb[:, None, :])
        if not traced:  # a traced value is in GF(p), its own constant digit
            # row (j, d) holds digit d of B(a_i, a_j) for every i
            bilin = F.digits(bilin).transpose(0, 2, 3, 1).reshape(-1, m * m, m)
        ranks[lo : lo + RANK_CHUNK] = gfp_rank(bilin, F.p)
    return int(ranks[0]) if isinstance(f, FuncSpec) else ranks


def quadratic_galois_sum(F: Field, f: FuncSpec) -> int:
    """sum over y in GF(p)*, x in GF(q) of zeta^(y*Tr(f(x))), a rational integer.

    The inner sum over y is p - 1 where Tr(f(x)) = 0 and -1 elsewhere, so the
    total is p*N0 - q with N0 = #{x : Tr(f(x)) = 0}.
    """
    tbl = f.table(F, traced=True)
    return F.p * int(np.count_nonzero(tbl == 0)) - F.q


# ---------------------------------------------------------------------------
# almost bent functions

def is_almost_bent(F: Field, g: FuncSpec) -> bool:
    """All lambda_g(a,b), a != 0, in {0, +-2^((m+1)/2)}; exhaustive check."""
    if F.p != 2:
        raise ToolkitError("almost bent functions live on GF(2^m)")
    if F.m % 2 == 0:
        raise ToolkitError("almost bent functions exist only for odd m")
    # checked before anything q^2 is built: the butterfly below holds two
    # (q-1) x q int32 buffers, under 2^(2*AB_DEGREE_LIMIT + 1) = 2^19 entries in all
    if F.m > AB_DEGREE_LIMIT:
        raise SizeLimitError(f"exhaustive AB check limited to m <= {AB_DEGREE_LIMIT}")
    amp = 1 << ((F.m + 1) // 2)
    # lambda_g(a, .) is the Walsh transform of Tr(a*g(x)); relabelling b only
    # permutes a row, so the rows for every a != 0 go through one stacked
    # butterfly without it
    a = np.arange(1, F.q, dtype=np.int64)
    v = fwht(_signs(F.trace_table[F.mul(a[:, None], g.table(F))]))
    return bool(np.all((v == 0) | (np.abs(v) == amp)))

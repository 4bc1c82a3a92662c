"""Difference-set analysis and the defining-set family constructors.

A defining set D lives inside a finite abelian group -- either the additive
group of a field GF(p^m) or a cyclic residue group Z_v (the multiplicative or
quotient groups, reached through discrete logs).  The classifier computes the
full difference function diff_D(x) = |D cap (D+x)| and reports whether D is a
difference set, an almost difference set, or neither.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InvariantError, SizeLimitError, ToolkitError
from .cyclotomic import char_sum
from .gf import Field


# differences held at once while counting them; bounds memory at O(order + block)
DIFF_BLOCK = 1 << 20
# operations one command may spend: the k*k differences of a classification,
# or the enumeration work of a weight enumerator (the codes default)
DEFAULT_MAX_WORK = 1 << 34
# points FuncSpec.table evaluates at once, and exponents maschietti_set walks at once
TABLE_BLOCK = WALK_BLOCK = 1 << 16


def _blocked_difference_counts(elems, order, sub):
    """Histogram of sub(a, b) over all ordered pairs, a row block at a time."""
    arr = np.asarray(elems, dtype=np.int64)
    counts = np.zeros(order, dtype=np.int64)
    rows = max(1, DIFF_BLOCK // max(arr.size, 1))
    for lo in range(0, arr.size, rows):
        diffs = sub(arr[lo : lo + rows, None], arr[None, :])
        counts += np.bincount(diffs.ravel(), minlength=order)
    return counts


class AdditiveGroup:
    """(GF(p^m), +) on integer-coded elements."""

    def __init__(self, field: Field):
        self.field = field
        self.order = field.q

    def check(self, x):
        if not 0 <= x < self.order:
            raise ToolkitError(f"{x} not in additive group of order {self.order}")

    def _difference_counts(self, elems):
        return _blocked_difference_counts(elems, self.order, self.field.sub)


class CyclicGroup:
    """(Z_v, +)."""

    def __init__(self, v: int):
        self.order = v

    def check(self, x):
        if not 0 <= x < self.order:
            raise ToolkitError(f"{x} not in Z_{self.order}")

    def _difference_counts(self, elems):
        return _blocked_difference_counts(elems, self.order,
                                          lambda a, b: (a - b) % self.order)


@dataclass(frozen=True)
class DifferenceSet:
    v: int
    k: int
    lam: int


@dataclass(frozen=True)
class AlmostDifferenceSet:
    v: int
    k: int
    lam: int
    t: int


@dataclass(frozen=True)
class IrregularDesign:
    v: int
    k: int
    spectrum: tuple  # sorted ((value, count), ...)


def _int64_copy(elems):
    """A fresh int64 array of an integer array, a DefiningSet or any iterable of ints.

    Floats and bools raise ValueError rather than being truncated to integers.
    """
    if isinstance(elems, DefiningSet):
        elems = elems.elems
    elif not isinstance(elems, np.ndarray):
        elems = np.array(list(elems))  # lists, sets and ranges alike
    if elems.size and elems.dtype.kind not in "iu":
        raise ValueError(f"set elements must be integers, got dtype {elems.dtype}")
    return elems.astype(np.int64)


def _sorted_array(elems):
    """Sorted int64 copy of an integer array, a DefiningSet or any iterable of ints."""
    # sort plus a neighbour test: np.unique hashes and is ~80x slower at 8e5 elements
    arr = _int64_copy(elems)
    arr.sort()
    return arr


def _distinct(arr):
    """The distinct values of a sorted array."""
    keep = np.ones(arr.size, dtype=bool)
    keep[1:] = arr[1:] != arr[:-1]
    return arr[keep]


def check_classify_work(k):
    """Refuse to classify a k-element set whose k*k differences exceed DEFAULT_MAX_WORK."""
    if k * k > DEFAULT_MAX_WORK:
        raise SizeLimitError(f"k*k = {k * k} differences exceed the work budget {DEFAULT_MAX_WORK}")


def classify_design(G, D):
    """Classify D by its difference spectrum over the nonzero group elements."""
    elems = _distinct(_sorted_array(D))
    if not elems.size:
        raise ToolkitError("cannot classify an empty set")
    outside = elems[(elems < 0) | (elems >= G.order)]
    if outside.size:
        G.check(int(outside[0]))  # raises, naming the first offender in sorted order
    v = G.order
    k = elems.size
    check_classify_work(k)
    counts = G._difference_counts(elems)
    counts[0] = -1  # exclude the identity, 0 in both groups, from the spectrum
    spec = {}
    hit = np.bincount(counts[counts >= 0])
    for val, cnt in enumerate(hit):
        if cnt:
            spec[val] = int(cnt)
    if len(spec) == 1:
        lam = next(iter(spec))
        if k * (k - 1) != lam * (v - 1):
            raise InvariantError("difference counts do not sum to k(k-1)")
        return DifferenceSet(v, k, lam)
    if len(spec) == 2:
        lo, hi = sorted(spec)
        if hi == lo + 1:
            t = spec[lo]
            if k * (k - 1) != t * lo + (v - 1 - t) * hi:
                raise InvariantError("difference counts do not sum to k(k-1)")
            return AlmostDifferenceSet(v, k, lo, t)
    return IrregularDesign(v, k, tuple(sorted(spec.items())))


@dataclass(frozen=True, eq=False)
class DefiningSet:
    """A set of nonzero field elements indexing the coordinates of C_D.

    elems is a read-only int64 array in coordinate order; defining_set() sorts
    it, but the dataclass keeps whatever order it is given.
    """

    field: Field
    elems: np.ndarray

    def __len__(self):
        return self.elems.size

    def __eq__(self, other):
        if not isinstance(other, DefiningSet):
            return NotImplemented
        return self.field is other.field and np.array_equal(self.elems, other.elems)

    __hash__ = None  # equal sets must hash equal, and the array is not hashable


def defining_set(F: Field, elems) -> DefiningSet:
    arr = _int64_copy(elems)
    # the constructors build their sets in increasing order: one O(n) pass
    # confirms it and leaves nothing to sort or to check for duplicates
    if not np.all(arr[1:] > arr[:-1]):
        arr.sort()
        if np.any(arr[1:] == arr[:-1]):
            raise ValueError("defining set has duplicate elements")
    if not arr.size:
        raise ToolkitError("defining set is empty")
    if arr[0] < 0 or arr[-1] >= F.q:
        bad = arr[(arr < 0) | (arr >= F.q)][0]  # the first offender in sorted order
        raise ToolkitError(f"{bad} outside GF({F.q})")
    arr.setflags(write=False)
    return DefiningSet(F, arr)


def complement_in_group(G, D):
    """Sorted list of the elements of G not in D; members of D outside G are ignored."""
    arr = _int64_copy(D)
    outside = np.ones(G.order, dtype=bool)
    outside[arr[(arr >= 0) & (arr < G.order)]] = False
    return np.flatnonzero(outside).tolist()


def to_cyclic_residues(D: DefiningSet, v=None):
    """Map D through dlog into Z_v (v defaults to q-1, the full cyclic group)."""
    F = D.field
    if v is None:
        v = F.q - 1
    logs = F.log_table[D.elems].astype(np.int64)
    if np.any(logs < 0):
        raise ToolkitError("dlog(0) is undefined")
    return np.sort(logs % v)


# ---------------------------------------------------------------------------
# function specifications f(x) = sum c_i x^{e_i}

@dataclass(frozen=True)
class FuncSpec:
    """x -> sum of c*x^e terms, a GF(q)-valued function.

    Coefficients are field-element codes; exponents are positive integers
    (reduced mod q-1 on nonzero inputs, with f(0) evaluated literally).
    A consumer that reads Tr(f) traces f itself, as table(F, traced=True) does.
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("function needs at least one term")
        exps = [e for _, e in self.terms]
        if len(set(exps)) != len(exps):
            raise ValueError("repeated exponent")
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be positive")

    def table(self, F: Field, traced=False):
        """f(x), or Tr(f(x)) if traced, for every x in index order, as int32 (see table_rows)."""
        return table_rows(F, *coefficient_rows([self]), traced)[0]


def coefficient_rows(specs):
    """(exps, coeffs): every exponent of specs in first-seen order, and the int32
    matrix with coeffs[k, t] the coefficient of x^exps[t] in specs[k], 0 if absent."""
    exps = tuple(dict.fromkeys(e for spec in specs for _, e in spec.terms))
    coeffs = np.zeros((len(specs), len(exps)), dtype=np.int32)
    for row, spec in zip(coeffs, specs):
        for c, e in spec.terms:
            row[exps.index(e)] = c
    return exps, coeffs


def evaluate_rows(F: Field, exps, coeffs, xs, traced=False):
    """(rows, len(xs)) array of f_k(x) = sum_t coeffs[k, t] * x^exps[t], then Tr if traced.

    A column of zero coefficients is skipped, and a lone coefficient 1 skips its
    product.  Values keep the width Field.mul and Field.pow give: int32 for
    int32 xs and coefficients (int64 sums for odd p), int64 for int64 xs.
    """
    xs, coeffs = np.asarray(xs), np.asarray(coeffs)
    # a matrix of zeros still evaluates its first column, to zeros
    live = [(c, e) for c, e in zip(coeffs.T, exps) if c.any()] or [(coeffs[:, 0], exps[0])]
    out = reduce(F.add, (F.pow(xs, e)[None] if c.tolist() == [1]
                         else F.mul(c[:, None], F.pow(xs, e)) for c, e in live))
    if traced:
        out = F.trace_table[out].astype(np.int64 if xs.itemsize > 4 else np.int32)
    return out


def table_rows(F: Field, exps, coeffs, traced=False):
    """(rows, q) int32 array whose row k is f_k(x) over all x in field-index order.

    It is filled TABLE_BLOCK // rows points (at least one) at a time, so beside
    the result the temporaries stay O(TABLE_BLOCK + rows).  int32 holds every
    index and value, both below q <= 2^25, and keeps the temporaries int32.
    """
    out = np.empty((len(coeffs), F.q), dtype=np.int32)
    step = max(1, TABLE_BLOCK // max(1, len(coeffs)))
    for lo in range(0, F.q, step):
        xs = np.arange(lo, min(lo + step, F.q), dtype=np.int32)
        out[:, lo : lo + xs.size] = evaluate_rows(F, exps, coeffs, xs, traced)
    return out


_TERM_RE = re.compile(r"^(-)?(\d+)(?:\*(?:u|a|alpha)(?:\^(\d+))?)?$")


def parse_func_spec(F: Field, expr: str) -> FuncSpec:
    """Parse 'c@e' terms, e.g. '1@3' or '1@10,-1*u@6,-1*u^2@2' (u = alpha)."""
    terms = []
    for part in expr.split(","):
        part = part.strip()
        if "@" not in part:
            raise ValueError(f"bad term {part!r}: expected COEFF@EXP")
        cpart, _, epart = part.partition("@")
        m = _TERM_RE.match(cpart.strip())
        if not m:
            raise ValueError(f"bad coefficient {cpart!r}")
        sign, intpart, apow = m.group(1), m.group(2), m.group(3)
        c = int(intpart) % F.p
        if m.group(0).find("*") >= 0:
            k = int(apow) if apow is not None else 1
            c = F.mul(c, F.pow(F.alpha, k))
        if sign:
            c = F.neg(c)
        e = int(epart)
        if e < 1:
            raise ValueError(f"bad exponent {epart!r}")
        terms.append((c, e))
    return FuncSpec(tuple(terms))


# ---------------------------------------------------------------------------
# family constructors

def paley_set(F: Field) -> DefiningSet:
    """All nonzero squares of GF(q), q odd."""
    if F.p == 2:
        raise ToolkitError("Paley sets need odd characteristic")
    # the squares are the even powers exp[::2] (q - 1 is even), read off a
    # mask in index order, so the set comes out sorted
    is_square = np.zeros(F.q, dtype=bool)
    is_square[F.exp_table[::2]] = True
    return defining_set(F, np.flatnonzero(is_square))


def is_skew_set(F: Field, D) -> bool:
    """True iff D, -D and {0} partition GF(q)."""
    arr = _distinct(_sorted_array(D))
    return bool(2 * arr.size + 1 == F.q and arr[0] != 0
                and not np.isin(F.neg(arr), arr).any())


def image_set(F: Field, f: FuncSpec) -> DefiningSet:
    """D(f) = {f(x): x in GF(q)} with 0 removed."""
    vals = np.flatnonzero(np.bincount(f.table(F), minlength=F.q))
    vals = vals[vals != 0]
    return defining_set(F, vals)


def eto1_check(F: Field, f: FuncSpec):
    """e if f is e-to-1 on GF(q)* with f(0)=0 and f nonzero off 0, else None."""
    tbl = f.table(F)
    if tbl[0] != 0:
        return None
    star = tbl[1:]
    if np.any(star == 0):
        return None
    fibers = np.bincount(star)
    sizes = fibers[fibers > 0]
    if sizes.min() != sizes.max():
        return None
    return int(sizes[0])


MASCHIETTI_CASES = ("singer", "segre", "glynn1", "glynn2")


def maschietti_rho(m: int, case: str) -> int:
    if m % 2 == 0:
        raise ToolkitError("hyperoval exponents need odd m")
    if case == "singer":
        return 2
    if case == "segre":
        return 6
    if case == "glynn1":
        sigma = (m + 1) // 2
        pi = pow(4, -1, m)
        return 2**sigma + 2**pi
    if case == "glynn2":
        sigma = (m + 1) // 2
        return 3 * 2**sigma + 4
    raise ToolkitError(f"unknown hyperoval case {case!r}")


def maschietti_set(F: Field, case: str) -> DefiningSet:
    """Image of x^rho + x minus 0, after checking the map is two-to-one."""
    rho = maschietti_rho(F.m, case)
    if F.p != 2:
        raise ToolkitError("hyperoval constructions live in GF(2^m)")
    # in exponent space x = alpha^t has x^rho + x = exp[t*rho mod (q-1)] XOR exp[t]
    n, exp = F.q - 1, F.exp_table
    images = np.empty(n, dtype=np.int32)
    step = rho % n
    # walk[i] = i*step mod n from int64 products below 2^16 * 2^25; then each
    # block adds its start, base = lo*step mod n.  int32 holds every index:
    # the sums are below 2n <= 2^26 before the conditional subtract, and the
    # XOR of two elements below q <= 2^25 stays below q
    walk = (np.arange(min(n, WALK_BLOCK), dtype=np.int64) * step % n).astype(np.int32)
    for lo in range(0, n, WALK_BLOCK):
        idx = walk[: n - lo] + np.int32(lo * step % n)
        idx[idx >= n] -= n
        np.bitwise_xor(exp[idx], exp[lo : lo + idx.size], out=images[lo : lo + idx.size])
    # two-to-one with x = 0 -> 0: in sorted order the images of GF(q)* are one
    # 0 and then pairs of equal values, each pair above the one before
    images.sort()
    pairs = images[1:]
    if (images[0] != 0 or (n > 1 and pairs[0] == 0)
            or np.any(pairs[0::2] != pairs[1::2]) or np.any(pairs[2::2] <= pairs[1:-1:2])):
        raise ToolkitError(f"x^{rho}+x is not two-to-one on GF(2^{F.m})")
    return defining_set(F, pairs[0::2])


def hkm_set(F: Field) -> DefiningSet:
    """{alpha^t: t < (q-1)/2, Tr(alpha^t + alpha^{t*l}) = 0} in F = GF(3^{3h})."""
    if F.p != 3 or F.m % 3:
        raise ToolkitError(f"HKM sets live in GF(3^(3h)), not GF({F.p}^{F.m})")
    m, h = F.m, F.m // 3
    ell = 3 ** (2 * h) - 3**h + 1
    n = (F.q - 1) // 2
    t = np.arange(n, dtype=np.int64)
    xs = F.exp_table[t]
    ys = F.exp_table[(t * ell) % (F.q - 1)]
    tr = F.trace(F.add(xs, ys))
    elems = xs[tr == 0]
    if len(elems) != (3 ** (m - 1) - 1) // 2:
        raise InvariantError(f"HKM set has {len(elems)} elements")
    return defining_set(F, elems)


def boolean_support(F: Field, f: FuncSpec) -> DefiningSet:
    """D_f = {x: Tr(f(x)) = 1}, the support of the Boolean function Tr(f) on GF(2^m)."""
    return defining_set(F, np.flatnonzero(f.table(F, traced=True) == 1))


def joint_counts(F: Field, f: FuncSpec, bs) -> list:
    """For each b in bs, the counts of {x: Tr(f(x)) = 0, Tr(bx) = a} indexed by a in GF(p)."""
    kernel = np.nonzero(f.table(F, traced=True) == 0)[0]
    return [tuple(row) for row in char_sum(F, kernel, bs).tolist()]

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

from .errors import (
    ElementNotInGroupError,
    EmptySetError,
    EvenCharacteristicError,
    EvenDegreeError,
    InvariantError,
    LogOfZeroError,
    NotTwoToOneError,
    UnknownKindError,
)
from .gf import Field, default_field


class AdditiveGroup:
    """(GF(p^m), +) on integer-coded elements."""

    def __init__(self, field: Field):
        self.field = field
        self.order = field.q
        self.identity = 0

    def check(self, x):
        if not 0 <= x < self.order:
            raise ElementNotInGroupError(f"{x} not in additive group of order {self.order}")

    def op(self, a, b):
        return self.field.add(a, b)

    def inverse(self, a):
        return self.field.neg(a)

    def _difference_counts(self, elems):
        F = self.field
        arr = np.asarray(elems, dtype=np.int64)
        diffs = F.sub(arr[:, None], arr[None, :]).ravel()
        return np.bincount(diffs, minlength=self.order)


class CyclicGroup:
    """(Z_v, +)."""

    def __init__(self, v: int):
        self.order = v
        self.identity = 0

    def check(self, x):
        if not 0 <= x < self.order:
            raise ElementNotInGroupError(f"{x} not in Z_{self.order}")

    def op(self, a, b):
        return (a + b) % self.order

    def inverse(self, a):
        return (-a) % self.order

    def _difference_counts(self, elems):
        arr = np.asarray(elems, dtype=np.int64)
        diffs = (arr[:, None] - arr[None, :]) % self.order
        return np.bincount(diffs.ravel(), minlength=self.order)


def difference_function(G, D, x):
    """diff_D(x) = |D cap (D+x)|."""
    G.check(x)
    dset = set(D)
    for d in dset:
        G.check(d)
    return sum(1 for d in dset if G.op(d, x) in dset)


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


def classify_design(G, D):
    """Classify D by its difference spectrum over the nonzero group elements."""
    elems = sorted(set(D))
    if not elems:
        raise EmptySetError("cannot classify an empty set")
    for d in elems:
        G.check(d)
    v = G.order
    k = len(elems)
    counts = G._difference_counts(elems)
    counts[G.identity] = -1  # exclude x = identity from the spectrum
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


@dataclass(frozen=True)
class DefiningSet:
    """A set of nonzero field elements indexing the coordinates of C_D."""

    field: Field
    elems: tuple
    family_tag: str = "custom"

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)


def defining_set(F: Field, elems, family_tag="custom") -> DefiningSet:
    elems = tuple(sorted(elems))
    if len(set(elems)) != len(elems):
        raise ValueError("defining set has duplicate elements")
    if not elems:
        raise EmptySetError("defining set is empty")
    for d in elems:
        if not 0 <= d < F.q:
            raise ElementNotInGroupError(f"{d} outside GF({F.q})")
    return DefiningSet(F, elems, family_tag)


def complement_in_group(G, D):
    dset = set(D)
    return [x for x in range(G.order) if x not in dset]


def to_cyclic_residues(D: DefiningSet, v=None):
    """Map D through dlog into Z_v (v defaults to q-1, the full cyclic group)."""
    F = D.field
    if v is None:
        v = F.q - 1
    logs = F.log_table[np.asarray(D.elems, dtype=np.int64)]
    if np.any(logs < 0):
        raise LogOfZeroError("dlog(0) is undefined")
    return sorted((logs % v).tolist())


# ---------------------------------------------------------------------------
# function specifications f(x) = sum c_i x^{e_i}

@dataclass(frozen=True)
class FuncSpec:
    """x -> sum of c*x^e terms, optionally followed by the absolute trace.

    Coefficients are field-element codes; exponents are positive integers
    (reduced mod q-1 on nonzero inputs, with f(0) evaluated literally).
    """

    terms: tuple
    to_prime_subfield: bool = False

    def __post_init__(self):
        if not self.terms:
            raise ValueError("function needs at least one term")
        exps = [e for _, e in self.terms]
        if len(set(exps)) != len(exps):
            raise ValueError("repeated exponent")
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be positive")

    def evaluate(self, F: Field, xs):
        """Array of f(x) for every element index x in xs."""
        xs = np.asarray(xs, dtype=np.int64)
        out = reduce(F.add, (F.mul(F.pow(xs, e), c) for c, e in self.terms))
        if self.to_prime_subfield:
            out = F.trace_table[out].astype(np.int64)
        return out

    def table(self, F: Field):
        """Vector of f(x) over all x in field-index order."""
        return self.evaluate(F, np.arange(F.q, dtype=np.int64))


_TERM_RE = re.compile(r"^(-)?(\d+)(?:\*(?:u|a|alpha)(?:\^(\d+))?)?$")


def parse_func_spec(F: Field, expr: str, to_prime_subfield=False) -> FuncSpec:
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
    return FuncSpec(tuple(terms), to_prime_subfield)


# ---------------------------------------------------------------------------
# family constructors

def paley_set(F: Field) -> DefiningSet:
    """All nonzero squares of GF(q), q odd."""
    if F.p == 2:
        raise EvenCharacteristicError("Paley sets need odd characteristic")
    squares = F.exp_table[0 : F.q - 1 : 2]
    return defining_set(F, squares.tolist(), "paley")


def is_skew_set(F: Field, D) -> bool:
    """True iff D, -D and {0} partition GF(q)."""
    arr = np.unique(np.fromiter(D, dtype=np.int64))
    return bool(2 * arr.size + 1 == F.q and arr[0] != 0
                and not np.isin(F.neg(arr), arr).any())


def image_set(F: Field, f: FuncSpec) -> DefiningSet:
    """D(f) = {f(x): x in GF(q)} with 0 removed."""
    vals = np.unique(f.table(F))
    vals = vals[vals != 0]
    return defining_set(F, vals.tolist(), "qf-image")


def eto1_check(F: Field, f: FuncSpec):
    """e if f is e-to-1 on GF(q)* with f(0)=0 and f nonzero off 0, else None."""
    tbl = f.table(F)
    if tbl[0] != 0:
        return None
    star = tbl[1:]
    if np.any(star == 0):
        return None
    fibers = np.bincount(star)
    sizes = set(np.unique(fibers[fibers > 0]).tolist())
    if len(sizes) != 1:
        return None
    return int(sizes.pop())


MASCHIETTI_CASES = ("singer", "segre", "glynn1", "glynn2")


def maschietti_rho(m: int, case: str) -> int:
    if m % 2 == 0:
        raise EvenDegreeError("hyperoval exponents need odd m")
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
    raise UnknownKindError(f"unknown hyperoval case {case!r}")


def maschietti_set(F: Field, case: str) -> DefiningSet:
    """Image of x^rho + x minus 0, after checking the map is two-to-one."""
    rho = maschietti_rho(F.m, case)
    if F.p != 2:
        raise EvenCharacteristicError("hyperoval constructions live in GF(2^m)")
    xs = np.arange(F.q, dtype=np.int64)
    gamma = F.add(F.pow(xs, rho), xs)
    fibers = np.bincount(gamma, minlength=F.q)
    if not np.all((fibers == 0) | (fibers == 2)):
        raise NotTwoToOneError(f"x^{rho}+x is not two-to-one on GF(2^{F.m})")
    vals = np.nonzero(fibers)[0]
    vals = vals[vals != 0]
    return defining_set(F, vals.tolist(), f"maschietti-{case}")


def hkm_set(h: int, max_bits=None) -> DefiningSet:
    """{alpha^t: t < (q-1)/2, Tr(alpha^t + alpha^{t*l}) = 0} in GF(3^{3h})."""
    m = 3 * h
    F = default_field(3, m) if max_bits is None else Field(3, m, max_bits=max_bits)
    ell = 3 ** (2 * h) - 3**h + 1
    n = (F.q - 1) // 2
    t = np.arange(n, dtype=np.int64)
    xs = F.exp_table[t]
    ys = F.exp_table[(t * ell) % (F.q - 1)]
    tr = F.trace(F.add(xs, ys))
    elems = xs[tr == 0]
    if len(elems) != (3 ** (m - 1) - 1) // 2:
        raise InvariantError(f"HKM set has {len(elems)} elements")
    return defining_set(F, elems.tolist(), "hkm")


def boolean_support(F: Field, f: FuncSpec) -> DefiningSet:
    """D_f = {x: f(x) = 1} for a Boolean (trace-valued) function on GF(2^m)."""
    tbl = f.table(F) if f.to_prime_subfield else F.trace(f.table(F))
    return defining_set(F, np.nonzero(tbl == 1)[0].tolist(), "bool-support")


def joint_counts(F: Field, f: FuncSpec, bs) -> list:
    """For each b in bs, the counts of {x: f(x)=0, Tr(bx)=a} indexed by a in GF(p)."""
    kernel = np.nonzero(f.table(F) == 0)[0]
    out = []
    for b in bs:
        tv = F.trace(F.mul(kernel, b))
        out.append(tuple(np.bincount(tv, minlength=F.p).tolist()))
    return out

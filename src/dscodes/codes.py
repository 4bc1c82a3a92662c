"""Exact weight enumeration of defining-set codes and closed-form predictions.

The code C_D = {(Tr(x d))_{d in D} : x in GF(p^m)} is enumerated exhaustively:
every codeword is a GF(p)-combination of the rows of the m x n generator
matrix G[i][j] = Tr(alpha^i d_j), so weights come from chunked matrix products
of the messages' base-p digit vectors with G.  Dimension is derived twice
(kernel size and matrix rank) and the two must agree.

predicted_enumerator() turns each closed-form claim (identified by an opaque
claim id) into an exact expected enumerator for comparison against the
enumeration; comparisons never use floating point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .cyclotomic import CycInt, char_sum, is_rational
from .designs import DefiningSet
from .errors import (
    InvariantError,
    NonIntegralWeightError,
    NonRationalSumError,
    PreconditionFailedError,
    SizeLimitError,
    ZeroDimensionalError,
)
from .gf import Field, gfp_rank

DEFAULT_MAX_WORK = 1 << 34


@dataclass(frozen=True)
class DefiningSetCode:
    field: Field
    D: DefiningSet
    n: int


def make_code(D: DefiningSet) -> DefiningSetCode:
    return DefiningSetCode(D.field, D, len(D))


def codeword(C: DefiningSetCode, x):
    """c_x = (Tr(x d))_{d in D}."""
    F = C.field
    return F.trace(F.mul(x, np.asarray(C.D.elems, dtype=np.int64)))


def generator_matrix(C: DefiningSetCode):
    """Row i is the codeword of the basis element alpha^i."""
    F = C.field
    darr = np.asarray(C.D.elems, dtype=np.int64)
    return np.stack([F.trace(F.mul(b, darr)) for b in F.basis()])


@dataclass(frozen=True)
class WeightEnumerator:
    p: int
    m: int
    n: int
    k: int
    counts: dict  # weight -> multiplicity, including {0: 1}

    def weights(self):
        return sorted(w for w in self.counts if w > 0)

    def poly_str(self):
        parts = []
        for w in sorted(self.counts):
            a = self.counts[w]
            if w == 0:
                parts.append(str(a))
            else:
                parts.append(f"z^{w}" if a == 1 else f"{a}z^{w}")
        return " + ".join(parts)


def weight_enumerator(C: DefiningSetCode, max_work=DEFAULT_MAX_WORK) -> WeightEnumerator:
    F = C.field
    n = C.n
    if F.q * n > max_work:
        raise SizeLimitError(f"q*n = {F.q * n} exceeds the work budget {max_work}")
    G = generator_matrix(C)
    # m*(p-1)^2 <= 2^24 keeps every dot product exactly representable in float32,
    # which buys the BLAS route; otherwise fall back to int64 products.
    exact_f32 = F.m * (F.p - 1) ** 2 <= 1 << 24
    Gt = G.astype(np.float32 if exact_f32 else np.int64)
    counts = np.zeros(n + 1, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(n, 1))
    for lo in range(0, F.q, chunk):
        block = F.digits(np.arange(lo, min(lo + chunk, F.q))).astype(Gt.dtype)
        prod = block @ Gt
        if exact_f32:
            prod = prod.astype(np.int64)
        prod %= F.p
        wts = n - np.count_nonzero(prod == 0, axis=1)
        counts += np.bincount(wts, minlength=n + 1)
    kersize = int(counts[0])
    k = F.m
    t = kersize
    while t > 1:
        if t % F.p:
            raise InvariantError("zero-weight fiber must be a p-power")
        t //= F.p
        k -= 1
    if np.any(counts % kersize):
        raise InvariantError("all fibers of the quotient must have equal size")
    if k != gfp_rank(G.tolist(), F.p):
        raise InvariantError("kernel size disagrees with matrix rank")
    amounts = counts // kersize
    cdict = {int(w): int(a) for w, a in enumerate(amounts) if a}
    return WeightEnumerator(F.p, F.m, n, k, cdict)


def weight_via_charsum(C: DefiningSetCode, x) -> int:
    """wt(c_x) through the character-sum route; must match the direct weight."""
    F = C.field
    total = CycInt.integer(F.p, 0)
    for y in range(1, F.p):
        total = total + char_sum(F, C.D.elems, F.mul(y, x))
    s = is_rational(total)
    if s is None:
        raise NonRationalSumError(f"character sum for x={x} is not rational: {total}")
    num = (F.p - 1) * C.n - s
    if num % F.p:
        raise NonIntegralWeightError(f"weight numerator {num} not divisible by {F.p}")
    return num // F.p


def minimum_distance(E: WeightEnumerator) -> int:
    if E.k < 1:
        raise ZeroDimensionalError("no nonzero codewords")
    return min(w for w in E.counts if w > 0)


def griesmer_check(n, k, d, p) -> str:
    g = 0
    pi = 1
    for _ in range(k):
        g += -(-d // pi)
        pi *= p
    if n == g:
        return "meets"
    return "satisfies" if n > g else "violates"


@dataclass(frozen=True)
class DualDistanceWitness:
    at_least_2: bool  # no identically-zero coordinate
    at_least_3: bool  # additionally, no two GF(p)-proportional coordinates


def dual_distance_witness(C: DefiningSetCode) -> DualDistanceWitness:
    F = C.field
    no_zero = 0 not in C.D.elems
    # GF(p)* is generated by alpha^((q-1)/(p-1)), so d and d' are GF(p)-proportional
    # iff their logs agree mod (q-1)/(p-1); this needs no (p-1) x n product
    logs = F.log_table[np.asarray(C.D.elems, dtype=np.int64)] % ((F.q - 1) // (F.p - 1))
    clean = np.unique(logs).size == logs.size
    return DualDistanceWitness(no_zero, no_zero and clean)


@dataclass(frozen=True)
class PlessReport:
    first: bool
    second: bool | None
    third: bool | None

    @property
    def ok(self):
        return self.first and self.second is not False and self.third is not False


def pless_moment_check(E: WeightEnumerator, W: DualDistanceWitness) -> PlessReport:
    p, n, k = E.p, E.n, E.k
    m0 = sum(E.counts.values())
    m1 = sum(w * a for w, a in E.counts.items())
    m2 = sum(w * w * a for w, a in E.counts.items())
    first = m0 == p**k
    second = None
    third = None
    if W.at_least_2:
        second = Fraction(m1) == Fraction(n * (p - 1)) * Fraction(p) ** (k - 1)
    if W.at_least_3:
        third = Fraction(m2) == Fraction(n * (p - 1)) * (n * (p - 1) + 1) * Fraction(p) ** (k - 2)
    return PlessReport(first, second, third)


# ---------------------------------------------------------------------------
# closed-form predictions

@dataclass(frozen=True)
class Prediction:
    claim: str
    n: int
    k: int
    counts: dict | None  # weight -> multiplicity over all q inputs (A_0 = 1 included)
    zero_weight_extra: int = 0  # predicted zero-weight words besides x = 0
    weight_set: tuple | None = None  # when the claim fixes only the weights


def _require(cond, clause, detail=""):
    if not cond:
        raise PreconditionFailedError(clause, detail)


def _exact(fr: Fraction) -> int:
    _require(fr.denominator == 1, "integral multiplicity", str(fr))
    return int(fr)


def _rows_to_prediction(claim, n, m, rows):
    """rows: (weight Fraction, count Fraction); splits off any zero-weight mass."""
    counts = {0: 1}
    extra = 0
    for w, a in rows:
        a = _exact(Fraction(a))
        if a == 0:
            continue
        w = _exact(Fraction(w))
        if w == 0:
            extra += a
        else:
            counts[w] = counts.get(w, 0) + a
    return Prediction(claim, n, m, counts, extra)


def predicted_enumerator(claim: str, **kw) -> Prediction:
    if claim == "thm-part2":
        p, m = kw["p"], kw["m"]
        q = p**m
        _require(q % 4 == 3, "q = 3 (mod 4)", f"q = {q}")
        w = (p - 1) * q // (2 * p)
        return Prediction(claim, (q - 1) // 2, m, {0: 1, w: q - 1})
    if claim == "thm-part1":
        p, m = kw["p"], kw["m"]
        _require(p % 2 == 1, "p odd", f"p = {p}")
        q = p**m
        if m % 2 == 1:
            w = (p - 1) * q // (2 * p)
            return Prediction(claim, (q - 1) // 2, m, {0: 1, w: q - 1})
        root = isqrt(q)
        rows = [
            (Fraction((p - 1) * (q - root), 2 * p), Fraction(q - 1, 2)),
            (Fraction((p - 1) * (q + root), 2 * p), Fraction(q - 1, 2)),
        ]
        return _rows_to_prediction(claim, (q - 1) // 2, m, rows)
    if claim == "thm-qfcodes":
        p, m, r, e = kw["p"], kw["m"], kw["r"], kw["e"]
        q = p**m
        _require((q - 1) % e == 0, "e divides q-1", f"e = {e}")
        n = (q - 1) // e
        if r % 2 == 1:
            rows = [(Fraction((p - 1) * q, e * p), Fraction(q - 1))]
        else:
            s = p ** (m - r // 2)
            rows = [
                (Fraction((p - 1) * (q - s), e * p), Fraction(q - 1, 2)),
                (Fraction((p - 1) * (q + s), e * p), Fraction(q - 1, 2)),
            ]
        return _rows_to_prediction(claim, n, m, rows)
    if claim == "thm-hyperovalDS":
        m = kw["m"]
        _require(m % 2 == 1 and m >= 5, "m odd, m >= 5", f"m = {m}")
        mid, dev = 1 << (m - 2), 1 << ((m - 3) // 2)
        counts = {
            0: 1,
            mid - dev: mid + dev,
            mid: (1 << (m - 1)) - 1,
            mid + dev: mid - dev,
        }
        return Prediction(claim, (1 << (m - 1)) - 1, m, counts)
    if claim == "thm-bentcodes":
        m, n_f = kw["m"], kw["n_f"]
        _require(m % 2 == 0 and m >= 4, "m even, m >= 4", f"m = {m}")
        half = Fraction(n_f, 2)
        dev = Fraction(1 << ((m - 4) // 2))
        scale = Fraction(n_f, 1 << ((m - 2) // 2))
        rows = [
            (half - dev, (Fraction((1 << m) - 1) - scale) / 2),
            (half + dev, (Fraction((1 << m) - 1) + scale) / 2),
        ]
        return _rows_to_prediction(claim, n_f, m, rows)
    if claim in ("thm-semibentcodes", "thm-abcodes"):
        m, n_f = kw["m"], kw["n_f"]
        _require(m % 2 == 1, "m odd", f"m = {m}")
        q = 1 << m
        shift = 1 << ((m - 1) // 2)
        bulk = Fraction(n_f * (q - n_f), q)
        tail = Fraction(n_f, 2 * shift)
        rows = [
            (Fraction(n_f - shift, 2), bulk - tail),
            (Fraction(n_f, 2), q - 1 - 2 * bulk),
            (Fraction(n_f + shift, 2), bulk + tail),
        ]
        return _rows_to_prediction(claim, n_f, m, rows)
    if claim == "thm-CodeQBFs":
        m, r, walsh0 = kw["m"], kw["r"], kw["walsh0"]
        _require(r % 2 == 0 and r >= 0, "rank even", f"r = {r}")
        amp = Fraction(1 << m, 1 << (r // 2))
        _require(walsh0 in (0, amp, -amp), "f_hat(0) in {0, +-2^(m-r/2)}", str(walsh0))
        eps1, eps2, eps3 = (1, 0, 0) if walsh0 == 0 else (0, 1, 0) if walsh0 > 0 else (0, 0, 1)
        n_f = _exact(Fraction(1 << (m - 1)) - Fraction(walsh0, 2))
        _require(n_f > 0, "nonempty support", f"n_f = {n_f}")
        lobe = Fraction(2) ** (r - 1)
        wing = Fraction(2) ** ((r - 2) // 2)
        rows = [
            (Fraction(n_f, 2), Fraction((1 << m) - (1 << r) - eps1)),
            (Fraction(n_f, 2) + amp / 4, lobe + wing - eps2),
            (Fraction(n_f, 2) - amp / 4, lobe - wing - eps3),
        ]
        return _rows_to_prediction(claim, n_f, m, rows)
    if claim == "thm-HKMcodes":
        h = kw["h"]
        _require(h % 2 == 1, "h odd", f"h = {h}")
        m = 3 * h
        counts = {
            0: 1,
            3 ** (m - 2) - 3 ** (2 * h - 2): 3 ** (2 * h) + 3**h,
            3 ** (m - 2): 3**m - 2 * 3 ** (2 * h) - 1,
            3 ** (m - 2) + 3 ** (2 * h - 2): 3 ** (2 * h) - 3**h,
        }
        return Prediction(claim, (3 ** (m - 1) - 1) // 2, m, counts)
    if claim == "glynn2-conjecture":
        m = kw["m"]
        _require(m % 2 == 1 and m >= 9, "m odd, m >= 9", f"m = {m}")
        mid = 1 << (m - 2)
        d1, d2 = 1 << ((m - 3) // 2), 1 << ((m - 1) // 2)
        ws = (mid - d2, mid - d1, mid, mid + d1, mid + d2)
        return Prediction(claim, (1 << (m - 1)) - 1, m, None, weight_set=ws)
    raise PreconditionFailedError("known claim id", claim)


@dataclass(frozen=True)
class PredictionReport:
    claim: str
    ok: bool
    expected_k: int
    mismatches: tuple


def compare_prediction(E: WeightEnumerator, P: Prediction) -> PredictionReport:
    """Exact comparison; a predicted zero-weight surplus folds into the kernel."""
    issues = []
    if E.n != P.n:
        issues.append(f"n: enumerated {E.n}, predicted {P.n}")
    if P.weight_set is not None:
        exp_k = P.k
        if E.k != P.k:
            issues.append(f"k: enumerated {E.k}, predicted {P.k}")
        got = tuple(E.weights())
        if got != tuple(sorted(P.weight_set)):
            issues.append(f"weights: enumerated {got}, predicted {tuple(sorted(P.weight_set))}")
        return PredictionReport(P.claim, not issues, exp_k, tuple(issues))
    kersize = 1 + P.zero_weight_extra
    exp_k = P.k
    t = kersize
    while t > 1 and t % E.p == 0:
        t //= E.p
        exp_k -= 1
    if t != 1:
        issues.append(f"predicted kernel size {kersize} is not a power of {E.p}")
        return PredictionReport(P.claim, False, P.k, tuple(issues))
    if E.k != exp_k:
        issues.append(f"k: enumerated {E.k}, predicted {exp_k}")
    expected = {}
    for w, a in P.counts.items():
        scaled, rem = divmod(a, kersize) if w != 0 else (1, 0)
        if rem:
            issues.append(f"A_{w} = {a} not divisible by kernel size {kersize}")
            continue
        expected[w] = scaled
    if expected != E.counts and not any(i.startswith("A_") for i in issues):
        for w in sorted(set(expected) | set(E.counts)):
            got, want = E.counts.get(w, 0), expected.get(w, 0)
            if got != want:
                issues.append(f"A_{w}: enumerated {got}, predicted {want}")
    return PredictionReport(P.claim, not issues, exp_k, tuple(issues))


# ---------------------------------------------------------------------------
# serialization

def enumerator_obj(E: WeightEnumerator) -> dict:
    return {
        "p": E.p,
        "m": E.m,
        "n": E.n,
        "k": E.k,
        "weights": [{"w": w, "A": E.counts[w]} for w in sorted(E.counts)],
    }


def enumerator_json(E: WeightEnumerator) -> str:
    return json.dumps(enumerator_obj(E), separators=(",", ":"))


def enumerator_from_json(s: str) -> WeightEnumerator:
    doc = json.loads(s)
    counts = {row["w"]: row["A"] for row in doc["weights"]}
    return WeightEnumerator(doc["p"], doc["m"], doc["n"], doc["k"], counts)


def export_generator(C: DefiningSetCode) -> str:
    F = C.field
    G = generator_matrix(C)
    lines = [f"{F.p} {F.m} {C.n}"]
    for i in range(F.m):
        lines.append(" ".join(str(int(v)) for v in G[i]))
    return "\n".join(lines) + "\n"

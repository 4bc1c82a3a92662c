"""Exact weight enumeration of defining-set codes and closed-form predictions.

The code C_D = {(Tr(x d))_{d in D} : x in GF(p^m)} is enumerated exhaustively.
Writing d = sum_j d_j alpha^j, the coordinate Tr(x d) is <u, d> with
u_j = Tr(x alpha^j), and x -> u is a GF(p)-linear bijection, so the weight
histogram over x equals the histogram over u of n - Z(u), where
Z(u) = #{d in D : <u, d> = 0}.  Z comes from an exact integer transform of the
multiplicity vector of D over GF(p)^m -- the paper's character-sum route
wt(c_x) = ((p-1)n - sum_y chi(yxD))/p, run for all x at once -- at a cost of
q*m*p^2 operations: the Walsh-Hadamard butterfly for p = 2 and the
Vilenkin-Chrestenson transform in counting form for odd p.  When p^2 >= n
(large p, small m) the direct route is cheaper: x = alpha^s gives
Tr(x d) = Tr(alpha^(s + log d)), one lookup in the exp/log/trace tables, for
the (q-1)/(p-1) GF(p)*-orbit representatives s, budgeted as q*n operations.
Dimension is derived twice and the two must agree: from the kernel size of the
enumeration, and as dim span_GF(p)(D) on a q-entry membership mask of the
span, which needs no generator matrix.

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

from .boolfn import _fwht
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
from .gf import Field

DEFAULT_MAX_WORK = 1 << 34
# entries of the transform state: two int32 buffers of q*p counts for odd p
MAX_TRANSFORM_STATE = 1 << 26


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
    return F.trace(F.mul(x, C.D.elems))


def span_dimension(F: Field, elems) -> int:
    """dim of the GF(p)-span of elems, grown on a q-entry membership mask.

    While some element d lies outside the span, the layers span + c*d for
    c = 1..p-1 join it and are marked.  The elements still outside are
    filtered again after each of the at most m new dimensions, so the cost is
    O(q + m*n), no m x n matrix is formed, and it is independent of the transform.
    """
    inside = np.zeros(F.q, dtype=bool)
    inside[0] = True
    span = np.zeros(1, dtype=np.int64)
    rest = np.asarray(elems, dtype=np.int64)
    dim = 0
    while (rest := rest[~inside[rest]]).size:
        d = int(rest[0])
        layers = F.add(F.mul(np.arange(1, F.p), d)[:, None], span)  # span + c*d, c = 1..p-1
        span = np.concatenate((span, layers.ravel()))
        inside[span] = True
        dim += 1
    return dim


def generator_matrix(C: DefiningSetCode):
    """Row i is the codeword of the basis element alpha^i."""
    F = C.field
    return np.stack([F.trace(F.mul(b, C.D.elems)) for b in F.basis()])


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


def _transform_counts(C: DefiningSetCode, max_work=DEFAULT_MAX_WORK):
    """Weight histogram over all q messages by the exact transform route."""
    F, n = C.field, C.n
    p, q = F.p, F.q
    work = q * F.m * p * p
    if work > max_work:
        raise SizeLimitError(f"q*m*p^2 = {work} exceeds the work budget {max_work}")
    if q * p > MAX_TRANSFORM_STATE:
        raise SizeLimitError(f"transform state q*p = {q * p} exceeds {MAX_TRANSFORM_STATE}")
    mult = np.bincount(C.D.elems, minlength=q)
    if p == 2:
        # Walsh coefficient S(u) = Z(u) - (n - Z(u))
        zeros = (n + _fwht(mult)) // 2
    else:
        zeros = _counting_transform(mult, p, F.m)
    return np.bincount(n - zeros, minlength=n + 1)


def _counting_transform(mult, p, m):
    """Z(u) = #{d : <u, d> = 0 (mod p)} for every u, each d counted mult[d] times.

    The state A[c, index] starts as A[0, d] = mult[d].  Each pass replaces the
    leading digit b of the index by a and moves it to the end:
    A'[c, rest, a] = sum_b A[c - a*b, b, rest], so after m passes
    A[c, u] = #{d : <u, d> = c}.  Counts never exceed n, so int32 is exact.
    """
    rest = mult.size // p
    state = np.zeros((p, mult.size), dtype=np.int32)
    state[0] = mult
    out = np.empty_like(state)
    for _ in range(m):
        src = state.reshape(p, p, rest)
        dst = out.reshape(p, rest, p)
        dst[...] = src[:, 0, :, None]  # b = 0 shifts nothing, for every a
        for a in range(p):
            for b in range(1, p):
                s = a * b % p
                dst[s:, :, a] += src[: p - s, b]
                dst[:s, :, a] += src[p - s :, b]
        state, out = out, state
    return state[0]


def _direct_counts(C: DefiningSetCode, max_work=DEFAULT_MAX_WORK):
    """Weight histogram over all q messages by gathers from T[t] = Tr(alpha^t).

    x = alpha^s has Tr(x d) = T[s + log d] for d != 0, and d = 0 adds no weight.
    The weight is constant on GF(p)* x, and GF(p)* = <alpha^((q-1)/(p-1))>, so
    only s < (q-1)/(p-1) is visited, each counting p-1 times; x = 0 counts once.
    """
    F, n = C.field, C.n
    if F.q * n > max_work:
        raise SizeLimitError(f"q*n = {F.q * n} exceeds the work budget {max_work}")
    T2 = np.tile(F.trace_table[F.exp_table], 2)  # s + log d needs no reduction mod q-1
    logs = F.log_table[C.D.elems[C.D.elems != 0]]
    reps = (F.q - 1) // (F.p - 1)
    rows = min(reps, max(1, (1 << 20) // max(logs.size, 1)))
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, reps, rows):
        s = np.arange(lo, min(lo + rows, reps))
        # the int64 indices s + log d stay below 2(q-1) <= 2^23
        counts += np.bincount(np.count_nonzero(T2[s[:, None] + logs], axis=1), minlength=n + 1)
    counts *= F.p - 1
    counts[0] += 1  # x = 0
    return counts


def weight_enumerator(C: DefiningSetCode, max_work=DEFAULT_MAX_WORK) -> WeightEnumerator:
    """Exact enumerator; max_work bounds the chosen route's operation count."""
    F = C.field
    n = C.n
    # measured in one process (2-vCPU Xeon, numpy 2.4.6): the transform beats the
    # direct lookups on every benchmark rung (Paley 3^9 2.6 vs 227 ms, 5^6 3.8 vs 59,
    # 7^5 4.2 vs 47, hkm:3 1.6 vs 61) and loses at GF(13^3), 3.1 vs 0.7 ms; p^2 < n
    # is kept so that no benchmark input changes route (re-tuning is left open)
    route = _transform_counts if F.p * F.p < n else _direct_counts
    counts = route(C, max_work)
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
    if k != span_dimension(F, C.D.elems):
        raise InvariantError("kernel size disagrees with the span dimension of D")
    amounts = counts // kersize
    ws = np.flatnonzero(amounts)
    cdict = dict(zip(ws.tolist(), amounts[ws].tolist()))
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
    no_zero = not np.any(C.D.elems == 0)
    # GF(p)* is generated by alpha^((q-1)/(p-1)), so d and d' are GF(p)-proportional
    # iff their logs agree mod (q-1)/(p-1); this needs no (p-1) x n product
    logs = np.sort(F.log_table[C.D.elems] % ((F.q - 1) // (F.p - 1)))
    # a neighbour test on the sorted logs: np.unique hashes and is ~80x slower at 8e5
    clean = not np.any(logs[1:] == logs[:-1])
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
    for row in G:
        lines.append(" ".join(map(str, row.tolist())))
    return "\n".join(lines) + "\n"

"""Exact weight enumeration of defining-set codes and closed-form predictions.

The code C_D = {(Tr(x d))_{d in D} : x in GF(p^m)} is fixed by its defining
set alone, so every function here takes the DefiningSet D itself, n = len(D).
C_D is enumerated exhaustively.  Writing d = sum_j d_j alpha^j, the
coordinate Tr(x d) is <u, d> with u_j = Tr(x alpha^j), and x -> u is a
GF(p)-linear bijection, so the weight histogram over x equals the histogram
over u of n - Z(u), where Z(u) = #{d in D : <u, d> = 0}.  Z comes from
cyclotomic.zero_counts, an exact integer transform of the multiplicity vector
of D over GF(p)^m -- the paper's character-sum route
wt(c_x) = ((p-1)n - sum_y chi(yxD))/p, run for all x at once -- at a cost of
q*m*p^2 operations: the Walsh-Hadamard butterfly for p = 2 and the
Vilenkin-Chrestenson transform in counting form for odd p.  The direct route
reads Tr(alpha^s d) = Tr(alpha^(s + log d)) from the exp/log/trace tables for
the (q-1)/(p-1) GF(p)*-orbit representatives s, n*(q-1)/(p-1) lookups, and
weight_enumerator runs the route with the smaller count.
Dimension is derived twice and the two must agree: from the kernel size of the
enumeration, and as dim span_GF(p)(D) on a q-entry membership mask of the
span, which needs no generator matrix.

predicted_enumerator() turns each closed-form claim (identified by an opaque
claim id) into an exact expected enumerator for comparison against the
enumeration; comparisons never use floating point.  prediction_for() derives
a claim's inputs from a family's set and context (designs.family), for both
`code --expect` and the verify cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import char_sum, trace_exp_table, zero_counts
from .designs import DEFAULT_MAX_WORK, DefiningSet, eto1_check
from .errors import InvariantError, PreconditionFailedError, SizeLimitError, ToolkitError
from .gf import Field, is_prime

# entries of the transform state (two int32 buffers of q*p counts for odd p);
# a field whose state is larger is enumerated by the direct route
MAX_TRANSFORM_STATE = 1 << 26


def codeword(D: DefiningSet, x):
    """c_x = (Tr(x d))_{d in D}; an array of x gives one codeword per x along a new last axis."""
    F = D.field
    return F.trace(F.mul(np.asarray(x, dtype=np.int64)[..., None], D.elems))


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


def generator_matrix(D: DefiningSet):
    """Row i is the codeword of alpha^i; rows are built singly to hold one row of products."""
    return np.stack([codeword(D, b) for b in D.field.basis()])


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


def _transform_counts(D: DefiningSet):
    """Weight histogram over all q messages by the exact transform route."""
    F, n = D.field, len(D)
    zeros = zero_counts(np.bincount(D.elems, minlength=F.q), F.p, F.m)
    return np.bincount(n - zeros, minlength=n + 1)


def _direct_counts(D: DefiningSet):
    """Weight histogram over all q messages by gathers from T[t] = Tr(alpha^t).

    x = alpha^s has Tr(x d) = T[s + log d] for d != 0, and d = 0 adds no weight.
    The weight is constant on GF(p)* x, and GF(p)* = <alpha^((q-1)/(p-1))>, so
    only s < (q-1)/(p-1) is visited, each counting p-1 times; x = 0 counts once.
    """
    F, n = D.field, len(D)
    T2 = trace_exp_table(F)  # s + log d needs no reduction mod q-1
    logs = F.log_table[D.elems[D.elems != 0]]
    reps = (F.q - 1) // (F.p - 1)
    rows = min(reps, max(1, (1 << 20) // max(logs.size, 1)))
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, reps, rows):
        s = np.arange(lo, min(lo + rows, reps))
        # the int64 indices s + log d stay below 2(q-1) <= 2^26
        counts += np.bincount(np.count_nonzero(T2[s[:, None] + logs], axis=1), minlength=n + 1)
    counts *= F.p - 1
    counts[0] += 1  # x = 0
    return counts


def _p_power_exponent(t, p):
    """e with t == p^e for a kernel size t >= 1, or None if t is no power of p."""
    e = 0
    while t > 1 and t % p == 0:
        t //= p
        e += 1
    return e if t == 1 else None


def weight_enumerator(D: DefiningSet, max_work=DEFAULT_MAX_WORK) -> WeightEnumerator:
    """Exact enumerator by the feasible route with the smaller operation count.

    A tie goes to the transform; a count above max_work is refused before either runs.
    """
    F, n = D.field, len(D)
    p, q = F.p, F.q
    route, formula, work = _direct_counts, "n*(q-1)/(p-1)", n * (q - 1) // (p - 1)
    if q * p <= MAX_TRANSFORM_STATE and q * F.m * p * p <= work:
        route, formula, work = _transform_counts, "q*m*p^2", q * F.m * p * p
    if work > max_work:
        raise SizeLimitError(f"{formula} = {work} exceeds the work budget {max_work}")
    counts = route(D)
    kersize = int(counts[0])
    e = _p_power_exponent(kersize, F.p)
    if e is None:
        raise InvariantError("zero-weight fiber must be a p-power")
    k = F.m - e
    if np.any(counts % kersize):
        raise InvariantError("all fibers of the quotient must have equal size")
    if k != span_dimension(F, D.elems):
        raise InvariantError("kernel size disagrees with the span dimension of D")
    amounts = counts // kersize
    ws = np.flatnonzero(amounts)
    cdict = dict(zip(ws.tolist(), amounts[ws].tolist()))
    return WeightEnumerator(F.p, F.m, n, k, cdict)


def weight_via_charsum(D: DefiningSet, x):
    """wt(c_x) through the character-sum route; must match the direct weight.

    One x gives an int, a sequence of them a list.  Each y*x (y in GF(p)*) is
    formed with F.mul, and the p-1 count rows over D, all from one char_sum
    call, are summed to R.  Summing over y makes R[1:] equal (y*t runs over
    GF(p)* for t != 0), so the sum R[0] - R[1] is rational, and p divides the
    numerator (p-1)n - (R[0] - R[1]) = p*wt(c_x).
    """
    F = D.field
    xs = np.asarray(x, dtype=np.int64).ravel()
    ys = np.arange(1, F.p, dtype=np.int64)
    rows = char_sum(F, D.elems, F.mul(xs[:, None], ys).ravel())
    R = rows.reshape(xs.size, F.p - 1, F.p).sum(axis=1)
    weights = (((F.p - 1) * len(D) - (R[:, 0] - R[:, 1])) // F.p).tolist()
    return weights[0] if np.ndim(x) == 0 else weights


def minimum_distance(E: WeightEnumerator) -> int:
    if E.k < 1:
        raise ToolkitError("no nonzero codewords")
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


def dual_distance_witness(D: DefiningSet) -> DualDistanceWitness:
    F = D.field
    no_zero = not np.any(D.elems == 0)
    # GF(p)* is generated by alpha^((q-1)/(p-1)), so d and d' are GF(p)-proportional
    # iff their logs agree mod (q-1)/(p-1); this needs no (p-1) x n product
    logs = np.sort(F.log_table[D.elems] % ((F.q - 1) // (F.p - 1)))
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
    k: int  # the predicted dimension
    counts: dict | None  # weight -> multiplicity over p^k messages (A_0 = 1 included)
    weight_set: tuple | None = None  # when the claim fixes only the weights


def _require(cond, clause, detail):
    if not cond:
        raise PreconditionFailedError(f"{clause}: {detail}")


def _exact(fr: Fraction, clause) -> int:
    _require(fr.denominator == 1, clause, str(fr))
    return int(fr)


def _rows_to_prediction(claim, p, n, m, rows):
    """The Prediction of (weight, count) rows over all p^m messages x of GF(p^m).

    Every count must be an integer >= 0, as must the weight of a row with a
    nonzero count (checked after its count).  The zero-weight rows and x = 0
    form the kernel, which must hold p^e messages, and p^e must divide every
    count; the code then has dimension k = m - e, each count divided by p^e.
    """
    counts = {}
    for w, a in rows:
        a = _exact(Fraction(a), "integral multiplicity")
        if a == 0:
            continue
        w = _exact(Fraction(w), "integral weight")
        counts[w] = counts.get(w, 0) + a
    for a in counts.values():  # a non-integral row is still reported first
        _require(a >= 0, "nonnegative multiplicity", str(a))
    kersize = 1 + counts.pop(0, 0)
    e = _p_power_exponent(kersize, p)
    _require(e is not None, "kernel size a power of p", f"{kersize}, p = {p}")
    for w, a in counts.items():
        _require(a % kersize == 0, "kernel size divides every multiplicity",
                 f"A_{w} = {a}, kernel size {kersize}")
    return Prediction(claim, n, m - e, {0: 1} | {w: a // kersize for w, a in counts.items()})


# the claim ids predicted_enumerator answers, each with the inputs its closed
# form reads
CLAIMS = {
    "thm-part1": ("p", "m"),
    "thm-part2": ("p", "m"),
    "thm-qfcodes": ("p", "m", "r", "e"),
    "thm-hyperovalDS": ("m",),
    "thm-bentcodes": ("m", "n_f"),
    "thm-semibentcodes": ("m", "n_f"),
    "thm-abcodes": ("m", "n_f"),
    "thm-CodeQBFs": ("m", "n_f", "r"),
    "thm-HKMcodes": ("h",),
    "glynn2-conjecture": ("m",),
}
# the claims that hold over one characteristic only, which a given p must be
_CHARACTERISTIC = {"thm-HKMcodes": 3} | dict.fromkeys(
    ("thm-hyperovalDS", "thm-bentcodes", "thm-semibentcodes", "thm-abcodes", "thm-CodeQBFs",
     "glynn2-conjecture"), 2)


def predicted_enumerator(claim: str, *, p=None, m=None, n_f=None, r=None, e=None,
                         h=None) -> Prediction:
    """The enumerator a claim predicts, from the inputs its closed form reads.

    p and m fix GF(p^m), n_f = |D| is the support size, r the rank of a
    quadratic form, e the fiber size of an e-to-1 map and h the HKM index;
    each claim reads only the inputs CLAIMS names for it, and a call without
    one of them raises ToolkitError.  Every given input must be in range (p
    prime; m, n_f, e and h at least 1; 0 <= r <= m), or
    PreconditionFailedError names it.  A claim over GF(2^m), or GF(3^m) for
    thm-HKMcodes, refuses any other given p before its own hypotheses.  Every
    claim but glynn2-conjecture, which fixes only the weights, passes the
    checks of _rows_to_prediction.
    """
    given = {"p": p, "m": m, "n_f": n_f, "r": r, "e": e, "h": h}
    missing = [name for name in CLAIMS.get(claim, ()) if given[name] is None]
    if missing:
        raise ToolkitError(f"{claim} needs {', '.join(missing)}")
    _require(p is None or is_prime(p), "p prime", f"p = {p}")
    for name, value in (("m", m), ("n_f", n_f), ("e", e), ("h", h)):
        _require(value is None or value >= 1, f"{name} >= 1", f"{name} = {value}")
    _require(r is None or 0 <= r and (m is None or r <= m), "0 <= r <= m", f"r = {r}, m = {m}")
    char = _CHARACTERISTIC.get(claim)
    _require(p in (None, char) or char is None, f"p = {char}", f"p = {p}")
    if claim == "glynn2-conjecture":
        _require(m % 2 == 1 and m >= 9, "m odd, m >= 9", f"m = {m}")
        mid = 1 << (m - 2)
        d1, d2 = 1 << ((m - 3) // 2), 1 << ((m - 1) // 2)
        ws = (mid - d2, mid - d1, mid, mid + d1, mid + d2)
        return Prediction(claim, (1 << (m - 1)) - 1, m, None, weight_set=ws)
    return _rows_to_prediction(claim, *_claim_rows(claim, **given))


def prediction_for(claim: str, D: DefiningSet, ctx: dict):
    """(Prediction, inputs): predicted_enumerator for a claim id on the set D of
    a family with context ctx (designs.family), and the inputs it was given.

    p, m, n_f = |D| and the hkm index go to every claim; e and r are computed
    from the family's function for the claims that read them.
    """
    if claim not in CLAIMS:
        raise ToolkitError(f"unknown claim id {claim!r}")
    F = D.field
    kw = {"p": F.p, "m": F.m, "n_f": len(D), "h": ctx.get("h")}
    if claim in ("thm-qfcodes", "thm-CodeQBFs"):
        family = "qf-image" if claim == "thm-qfcodes" else "bool"
        if family not in ctx:
            raise ToolkitError(f"{claim} needs a {family} family")
        f, table = ctx[family]
        from . import boolfn  # loaded only by the claims that rank a form

        if claim == "thm-qfcodes":
            kw["e"] = eto1_check(table)
            if kw["e"] is None:
                raise ToolkitError("the map is not e-to-1 on nonzero elements")
        # thm-CodeQBFs ranks Tr(f), thm-qfcodes the GF(q)-valued f
        kw["r"] = boolfn.quadratic_rank(F, f, traced=claim == "thm-CodeQBFs")
    elif claim == "thm-HKMcodes" and kw["h"] is None:
        raise ToolkitError(f"{claim} needs an hkm family")
    return predicted_enumerator(claim, **kw), kw


def _plateaued_rows(m, n_f, amp, f_at_0):
    """(weight, count) rows over x != 0 for the support D of a Boolean f on
    GF(2^m) with f(0) = f_at_0, n_f = |D| and f_hat(x) in {0, +-amp} for x != 0.

    For x != 0, f_hat(x) = -2 sum_{d in D} (-1)^Tr(xd), so wt(c_x) =
    n_f/2 + f_hat(x)/4 for either f(0) (if f(0) = 1, d = 0 adds no weight).
    With q = 2^m and f_hat(0) = q - 2 n_f, two sums over x != 0 fix how often
    f_hat(x) is -amp, 0 and +amp: sum f_hat(x) = (-1)^f(0) q - f_hat(0) =
    2 (n_f - f(0) q) and, by Parseval, sum f_hat(x)^2 = q^2 - f_hat(0)^2 =
    4 n_f (q - n_f).  So +-amp occur pair +- skew times, with skew =
    (n_f - f(0) q)/amp and pair = 2 n_f (q - n_f)/amp^2, and 0 occurs
    q - 1 - 2 pair times.
    """
    q = 1 << m
    pair = Fraction(2 * n_f * (q - n_f), amp * amp)
    skew = Fraction(n_f - f_at_0 * q, amp)
    half, dev = Fraction(n_f, 2), Fraction(amp, 4)
    return [(half - dev, pair - skew), (half, q - 1 - 2 * pair), (half + dev, pair + skew)]


def _claim_rows(claim, *, p, m, n_f, r, e, h):
    """(p, n, m, rows) of a claim: its (weight, count) rows over all p^m messages.

    The rows are unchecked; _rows_to_prediction checks them.
    """
    if claim in ("thm-part1", "thm-part2"):
        if claim == "thm-part1":
            _require(p % 2 == 1, "p odd", f"p = {p}")
        else:
            _require(p**m % 4 == 3, "q = 3 (mod 4)", f"q = {p**m}")
        # the squares are the image of x^2, which is 2-to-1 on GF(q)*, and its
        # bilinear form 2xy has no radical, so r = m
        return _claim_rows("thm-qfcodes", p=p, m=m, n_f=n_f, r=m, e=2, h=h)
    if claim == "thm-qfcodes":
        # the form holds where Tr(x*f(y)) has one rank r for every x != 0, a
        # hypothesis not checked here.  verify's qf-* cases (e = 2) and Paley
        # (e = 2, r = m) have it.  The failures are x^(p^k+1) maps whose images
        # are semiprimitive cyclotomic classes, where that rank drops on one
        # class of x (Coulter, Acta Arith. 1998): x^4 on GF(3^2) and GF(3^4)
        # mismatch the form, and e = 3, 6, 8 and 10 give a non-integral
        # multiplicity.
        q = p**m
        _require((q - 1) % e == 0, "e divides q-1", f"e = {e}")
        if r % 2 == 1:
            rows = [(Fraction((p - 1) * q, e * p), q - 1)]
        else:
            s = p ** (m - r // 2)
            rows = [
                (Fraction((p - 1) * (q - s), e * p), Fraction(q - 1, 2)),
                (Fraction((p - 1) * (q + s), e * p), Fraction(q - 1, 2)),
            ]
        return p, (q - 1) // e, m, rows
    if claim == "thm-hyperovalDS":
        # for Maschietti's Segre and Glynn I sets, D u {0} is the support of an f
        # with f(0) = 1 whose f_hat(x) for x != 0 lies in {0, +-2^((m+1)/2)}
        _require(m % 2 == 1 and m >= 5, "m odd, m >= 5", f"m = {m}")
        return 2, (1 << (m - 1)) - 1, m, _plateaued_rows(m, 1 << (m - 1), 1 << ((m + 1) // 2), 1)
    if claim in ("thm-bentcodes", "thm-semibentcodes", "thm-abcodes", "thm-CodeQBFs"):
        f0 = (1 << m) - 2 * n_f  # f_hat(0)
        if claim == "thm-bentcodes":
            _require(m % 2 == 0 and m >= 4, "m even, m >= 4", f"m = {m}")
            amp = 1 << (m // 2)
            # a bent spectrum has no zeros, so f_hat(0) is +-amp too
            _require(f0 in (amp, -amp), "f_hat(0) in {+-2^(m/2)}", str(f0))
        elif claim == "thm-CodeQBFs":
            _require(r % 2 == 0, "rank even", f"r = {r}")
            amp = 1 << (m - r // 2)
            _require(f0 in (0, amp, -amp), "f_hat(0) in {0, +-2^(m-r/2)}", str(f0))
        else:
            _require(m % 2 == 1, "m odd", f"m = {m}")
            amp = 1 << ((m + 1) // 2)
        return 2, n_f, m, _plateaued_rows(m, n_f, amp, 0)
    if claim == "thm-HKMcodes":
        _require(h % 2 == 1, "h odd", f"h = {h}")
        _require(m in (None, 3 * h), "m = 3h", f"m = {m}, h = {h}")
        m = 3 * h
        dev = 3 ** (2 * h - 2)
        rows = [
            (3 ** (m - 2) - dev, 3 ** (2 * h) + 3**h),
            (3 ** (m - 2), 3**m - 2 * 3 ** (2 * h) - 1),
            (3 ** (m - 2) + dev, 3 ** (2 * h) - 3**h),
        ]
        return 3, (3 ** (m - 1) - 1) // 2, m, rows
    raise PreconditionFailedError(f"known claim id: {claim}")


@dataclass(frozen=True)
class PredictionReport:
    ok: bool
    mismatches: tuple


def compare_prediction(E: WeightEnumerator, P: Prediction) -> PredictionReport:
    """Exact comparison of n, k and the multiplicities, or of the weights alone."""
    issues = []
    if E.n != P.n:
        issues.append(f"n: enumerated {E.n}, predicted {P.n}")
    if E.k != P.k:
        issues.append(f"k: enumerated {E.k}, predicted {P.k}")
    if P.weight_set is not None:
        got, want = tuple(E.weights()), tuple(sorted(P.weight_set))
        if got != want:
            issues.append(f"weights: enumerated {got}, predicted {want}")
    else:
        for w in sorted(set(P.counts) | set(E.counts)):
            got, want = E.counts.get(w, 0), P.counts.get(w, 0)
            if got != want:
                issues.append(f"A_{w}: enumerated {got}, predicted {want}")
    return PredictionReport(not issues, tuple(issues))

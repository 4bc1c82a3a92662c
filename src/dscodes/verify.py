"""Verification case registry: every closed-form claim, checked by enumeration.

Each case is a function of its parameters, registered in CASES under a
stable id (so CI can pin individual regressions) as a zero-argument callable.
It builds its family, computes the exact quantity the claim predicts (weight
enumerator, design parameters, rank, character sum), and compares it against
the paper's closed form.  The family-and-claim cases are rows (family spec,
p, m, claim, check) that _row_case runs through designs.family and
codes.prediction_for, as `dscodes code --expect` does.  Only
GLYNN2_ENUMERATORS (m = 5-11) is a frozen table.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product

import numpy as np

from . import boolfn, codes, designs
from .cyclotomic import char_sum, fwht, is_rational
from .designs import AdditiveGroup, CyclicGroup, DefiningSet, FuncSpec
from .errors import ToolkitError
from .gf import Field, default_field


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    verdict: str  # pass | fail | error
    expected: str
    actual: str
    detail: str
    seconds: float


CASES = {}


def run_case(cid: str) -> CaseReport:
    fn = CASES[cid]
    t0 = time.perf_counter()
    try:
        ok, expected, actual, detail = fn()
        verdict = "pass" if ok else "fail"
    except ToolkitError as exc:
        verdict, expected, actual = "fail", "no toolkit error", f"{type(exc).__name__}: {exc}"
        detail = ""
    except Exception as exc:  # a crash in one case must not abort the registry
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        verdict, expected, actual = "error", "no exception", f"{type(exc).__name__}: {exc}"
        detail = f"raised at {os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
    return CaseReport(cid, verdict, expected, actual, detail, time.perf_counter() - t0)


def run_cases(case_filter=None):
    ids = sorted(CASES)
    if case_filter:
        wanted = set(case_filter)
        ids = [c for c in ids if c in wanted]
    return [run_case(c) for c in ids]


def _fmt(E: codes.WeightEnumerator) -> str:
    return f"[{E.n},{E.k},{codes.minimum_distance(E)}] {E.poly_str()}"


def _check_prediction(E, pred):
    rep = codes.compare_prediction(E, pred)
    expected = f"n={pred.n} k={pred.k} per {pred.claim}"
    return rep.ok, expected, _fmt(E), "; ".join(rep.mismatches)


@lru_cache(maxsize=None)
def _family_enumerator(spec, p, m):
    """(D, context, enumerator) of a family spec (designs.family) over GF(p^m);
    the row gives None for a p or m that the family fixes."""
    D, ctx = designs.family(spec, lambda p=p, m=m: default_field(p, m))
    return D, ctx, codes.weight_enumerator(D)


def _row_case(spec, p, m, claim, check=None):
    """A family-and-claim case: the code of a family spec against a claim.

    The claim's inputs come from codes.prediction_for, as for `dscodes code
    --family spec --expect claim`.  check(ok, expected, actual, detail, D=,
    ctx=, E=, pred=, inputs=) adds the family's own checks to the strings.  A
    row without a claim has only its check, and a callable spec is called for
    the spec (the Gold instances, which one Walsh transform finds).
    """
    D, ctx, E = _family_enumerator(spec() if callable(spec) else spec, p, m)
    pred, inputs = codes.prediction_for(claim, D, ctx) if claim else (None, {})
    res = _check_prediction(E, pred) if pred else (True, "", _fmt(E), "")
    return check(*res, D=D, ctx=ctx, E=E, pred=pred, inputs=inputs) if check else res


# ---------------------------------------------------------------------------
# criterion 1: one-weight codes from skew Paley sets

def _skew_check(ok, exp, act, detail, *, D, E, **_):
    skew = designs.is_skew_set(D.field, D)
    gries = codes.griesmer_check(E.n, E.k, codes.minimum_distance(E), E.p)
    return (ok and skew and gries == "meets", f"skew partition, {exp}, griesmer meets",
            f"skew={skew}, {act}, griesmer {gries}", detail)


for _p, _m in ((7, 1), (11, 1), (19, 1), (23, 1), (3, 3)):
    CASES[f"skew-q{_p**_m}"] = partial(_row_case, "paley", _p, _m, "thm-part2", _skew_check)


# ---------------------------------------------------------------------------
# criterion 2: quadratic-residue codes

for _p, _m in ((3, 2), (3, 4), (5, 2), (7, 2), (3, 3), (5, 3)):
    CASES[f"qr-p{_p}m{_m}"] = partial(_row_case, "paley", _p, _m, "thm-part1")


# ---------------------------------------------------------------------------
# criterion 3: image codes of e-to-1 quadratic forms

def _qf_check(ok, exp, act, detail, *, inputs, **_):
    e, r = inputs["e"], inputs["r"]
    if e != 2:
        return False, "e = 2", f"e = {e}", ""
    return ok, f"e=2, rank-{r} branch: {exp}", f"e={e}, r={r}: {act}", detail


# the Gold form x^(3+1), and the trinomial x^10 - u x^6 - u^2 x^2 of Ding and Yuan
for _cid, _spec, _m in (("qf-gold-q27", "qf-image:1@4", 3),
                        ("qf-trin-q27", "qf-image:1@10,-1*u@6,-1*u^2@2", 3),
                        ("qf-trin-q243", "qf-image:1@10,-1*u@6,-1*u^2@2", 5)):
    CASES[_cid] = partial(_row_case, _spec, 3, _m, "thm-qfcodes", _qf_check)


# ---------------------------------------------------------------------------
# criterion 4: Maschietti difference sets

def _maschietti_ds_case(m):
    F = default_field(2, m)
    v, k, lam = 2**m - 1, 2 ** (m - 1) - 1, 2 ** (m - 2) - 1
    want = designs.DifferenceSet(v, k, lam)
    got = {}
    for case in designs.MASCHIETTI_CASES:
        D = designs.maschietti_set(F, case)
        residues = designs.to_cyclic_residues(D)
        got[case] = designs.classify_design(CyclicGroup(v), residues)
    ok = all(cls == want for cls in got.values())
    act = "; ".join(f"{c}: {cls}" for c, cls in got.items())
    return ok, f"all four cases {want}", act, ""


for _m in (5, 7):
    CASES[f"maschietti-ds-m{_m}"] = partial(_maschietti_ds_case, _m)


# ---------------------------------------------------------------------------
# criteria 5-6: hyperoval codes

def _hyperoval_check(ok, exp, act, detail, *, pred, **_):
    return ok, f"[{pred.n},{pred.k},{min(w for w in pred.counts if w)}] {exp}", act, detail


for _case, _ms in (("segre", (5, 7, 9)), ("glynn1", (5, 7))):
    for _m in _ms:
        CASES[f"{_case}-m{_m}"] = partial(_row_case, f"maschietti:{_case}", None, _m,
                                          "thm-hyperovalDS", _hyperoval_check)

GLYNN2_ENUMERATORS = {
    5: (15, 5, {0: 1, 6: 10, 8: 15, 10: 6}),
    7: (63, 7, {0: 1, 28: 36, 32: 63, 36: 28}),
    9: (255, 9, {0: 1, 112: 9, 120: 108, 128: 285, 136: 108, 144: 1}),
    11: (1023, 11, {0: 1, 480: 22, 496: 440, 512: 1155, 528: 408, 544: 22}),
}


def _glynn2_check(ok, exp, act, detail, *, E, **_):
    n, k, counts = GLYNN2_ENUMERATORS[E.m]
    want = codes.WeightEnumerator(2, E.m, n, k, counts)
    return ok and (E.n, E.k, E.counts) == (n, k, counts), _fmt(want), act, detail


for _m in (5, 7, 9, 11):
    # glynn2-conjecture is stated for m >= 9
    CASES[f"glynn2-m{_m}"] = partial(_row_case, "maschietti:glynn2", None, _m,
                                     "glynn2-conjecture" if _m >= 9 else None, _glynn2_check)


# ---------------------------------------------------------------------------
# criteria 7-9: bent / semibent / almost bent codes

def _gold_instance(m, coeff, walsh0):
    """The bool spec of f = coeff*x^3 + a^2*x^2 on GF(2^m) with f_hat(0) = walsh0.

    Tr(coeff*x^3) is a Gold function: bent for m even when coeff is not a
    cube, semibent of rank m - 1 for m odd and coeff = 1.  Tr(a^2 x^2) =
    Tr(a x), and adding Tr(a x) to a Boolean g moves g_hat(a) to frequency 0,
    so a is the first frequency where Tr(coeff*x^3) has the value walsh0.
    coeff is written in the spec grammar, and a^2 as u^(2 log a).
    """
    F = default_field(2, m)
    g = f"{coeff}@3"
    a = int(np.flatnonzero(
        boolfn.walsh_transform(F, designs.parse_func_spec(F, g)).values == walsh0)[0])
    return f"bool:{g}" + (f",1*u^{2 * int(F.log_table[a]) % (F.q - 1)}@2" if a else "")


@lru_cache(maxsize=None)
def _bent_instance(m):
    # alpha generates GF(2^m)*, of order 2^m - 1, a multiple of 3 for m even: not a cube
    return _gold_instance(m, "1*u", 1 << (m // 2))


def _bent_check(ok, exp, act, detail, *, D, ctx, inputs, **_):
    F, m, n_f = D.field, inputs["m"], inputs["n_f"]
    want_nf = 2 ** (m - 1) - 2 ** ((m - 2) // 2)
    cls = boolfn.classify_spectrum(boolfn.walsh_from_table(F, F.trace_table[ctx["bool"][1]]))
    design = designs.classify_design(AdditiveGroup(F), D.elems)
    want_design = designs.DifferenceSet(2**m, want_nf, 2 ** (m - 2) - 2 ** ((m - 2) // 2))
    ok = ok and n_f == want_nf and cls.variant == "bent" and design == want_design
    return (ok, f"bent, n_f={want_nf}, {want_design}, {exp}",
            f"{cls.variant}, n_f={n_f}, {design}, {act}", detail)


for _m in (4, 6, 8):
    CASES[f"bent-m{_m}"] = partial(_row_case, lambda m=_m: _bent_instance(m), None, _m,
                                   "thm-bentcodes", _bent_check)


@lru_cache(maxsize=None)
def _semibent_instance(m):
    return _gold_instance(m, "1", 1 << ((m + 1) // 2))


def _semibent_check(ok, exp, act, detail, *, D, ctx, E, inputs, **_):
    F, m, n_f = D.field, inputs["m"], inputs["n_f"]
    f, table = ctx["bool"]
    want_nf = 2 ** (m - 1) - 2 ** ((m - 1) // 2)
    cls = boolfn.classify_spectrum(boolfn.walsh_from_table(F, F.trace_table[table]))
    # the instance's rank: thm-semibentcodes itself reads only m and n_f
    r = boolfn.quadratic_rank(F, f, traced=True)
    ok = ok and n_f == want_nf and cls.variant == "semibent" and r == m - 1
    if m == 7:
        ok = ok and (E.n, E.k, codes.minimum_distance(E)) == (56, 7, 24)
    return (ok, f"semibent rank {m-1}, n_f={want_nf}, {exp}",
            f"{cls.variant} rank {r}, n_f={n_f}, {act}", detail)


for _m in (5, 7):
    CASES[f"semibent-m{_m}"] = partial(_row_case, lambda m=_m: _semibent_instance(m), None, _m,
                                       "thm-semibentcodes", _semibent_check)


def _ab_check(ok, exp, act, detail, *, D, ctx, inputs, **_):
    F, m, n_f = D.field, inputs["m"], inputs["n_f"]
    g, table = ctx["bool"]
    ab = boolfn.is_almost_bent(F, g)
    # lambda_g(1, 0) is f_hat(0) of Tr(g), read off the family's table, which
    # also gave D_g; an AB g has it in {0, +-2^((m+1)/2)}, each fixing
    # n_f = 2^(m-1) - f_hat(0)/2, and any other value admits no n_f
    lam0 = int(boolfn.walsh_from_table(F, F.trace_table[table]).values[0])
    half, shift = 1 << (m - 1), 1 << ((m - 1) // 2)
    admissible = {0: half, 2 * shift: half - shift, -2 * shift: half + shift}
    want_nf = [admissible[lam0]] if lam0 in admissible else []
    ok = ok and ab and n_f in want_nf
    return (ok, f"almost bent, n_f in {want_nf}, {exp}",
            f"almost_bent={ab}, lambda(1,0)={lam0}, n_f={n_f}, {act}", detail)


for _m in (5, 7):
    CASES[f"ab-m{_m}"] = partial(_row_case, "bool:1@3", None, _m, "thm-abcodes", _ab_check)


# ---------------------------------------------------------------------------
# criterion 10: quadratic Boolean functions on m = 6

@lru_cache(maxsize=None)
def _qbf_samples():
    """The forms Tr(sum f_i x^(2^i+1)) on GF(2^6), f_i in {0, 1, 2}, not all 0, as coefficient
    rows over exps, with their ranks, 0/1 tables and Walsh spectra, each from one call."""
    F = default_field(2, 6)
    exps = tuple((1 << i) + 1 for i in range(F.m // 2 + 1))
    rows = np.array(list(product((0, 1, 2), repeat=len(exps)))[1:], dtype=np.int32)
    tables = designs.table_rows(F, exps, rows, traced=True)
    return (F, exps, rows, boolfn.quadratic_rank(F, rows, exps, traced=True), tables,
            boolfn.walsh_from_table(F, tables))


def _qbf_case(rank):
    F, exps, rows, ranks, tables, spectra = _qbf_samples()
    m = F.m
    sample = np.flatnonzero(ranks == rank).tolist()
    total = int(np.count_nonzero(ranks > 0))
    if not sample or total < 20:
        return False, f">= 1 rank-{rank} sample among >= 20 total", f"{len(sample)} of {total}", ""
    amp = 1 << (m - rank // 2)
    lobe, wing = 1 << (rank - 1), 1 << ((rank - 2) // 2)
    want_hist = {0: (1 << m) - (1 << rank), amp: lobe + wing, -amp: lobe - wing}
    want_hist = {v: c for v, c in want_hist.items() if c}
    bad = []
    for i in sample:
        s = spectra[i]
        terms = tuple((int(c), e) for c, e in zip(rows[i], exps) if c)
        if s.histogram() != want_hist:
            bad.append(f"spectrum {s.histogram()} for {terms}")
            continue
        D = designs.defining_set(F, np.flatnonzero(tables[i] == 1))
        E = codes.weight_enumerator(D)
        pred = codes.predicted_enumerator("thm-CodeQBFs", m=m, n_f=len(D), r=rank)
        rep = codes.compare_prediction(E, pred)
        if not rep.ok:
            bad.append(f"{terms}: {'; '.join(rep.mismatches)}")
    exp = f"{len(sample)} rank-{rank} functions match spectrum table and enumerator table"
    act = "all match" if not bad else f"{len(bad)} mismatches"
    return not bad, exp, act, "; ".join(bad[:4])


for _r in (2, 4, 6):
    CASES[f"qbf-m6-r{_r}"] = partial(_qbf_case, _r)


# ---------------------------------------------------------------------------
# criterion 11: the ternary HKM family

@lru_cache(maxsize=None)
def _hkm_instance(h):
    D = designs.hkm_set(default_field(3, 3 * h))
    return D.field, D


for _h in (1, 3):
    CASES[f"hkm-h{_h}"] = partial(_row_case, f"hkm:{_h}", None, None, "thm-HKMcodes")


def _hkm_lemma_case(h):
    F, D = _hkm_instance(h)
    m, e = 3 * h, 3**h
    ell = 3 ** (2 * h) - 3**h + 1
    bs = np.arange(1, F.q) if h == 1 else F.exp_table[:: (F.q - 1) // 127]
    us = np.append(0, bs)
    problems = []
    # row (u, v) is the form Tr(u x^(e+1) + v x^2); a rank call per family
    # keeps gfp_rank's stack, and so peak memory, at one family's size
    exps = (e + 1, 2)

    def ranks(u, v):
        rows = np.column_stack((u, np.full(u.size, v)))
        return boolfn.quadratic_rank(F, rows, exps, traced=True).tolist()

    r_one, *r_us = ranks(np.append(1, us), 1)
    r_partners = ranks(F.neg(F.add(1, us)), 1)
    r_bs = ranks(bs, 0)
    if r_one != m:
        problems.append(f"rank(Q_1) = {r_one}")
    allowed_ranks = {m, m - h, m - 2 * h}
    for u, r, r_partner in zip(us.tolist(), r_us, r_partners):
        if r not in allowed_ranks:
            problems.append(f"rank(Q_{u}) = {r}")
        if max(r, r_partner) != m:
            problems.append(f"neither Q_{u} nor its partner has full rank")
    for b, r in zip(bs.tolist(), r_bs):
        if r != m:
            problems.append(f"rank(Tr({b} x^{e+1})) < {m}")
    f_hkm = FuncSpec(((1, 1), (1, ell)))
    base = 3 ** (m - 2)
    dev = 2 * 3 ** (2 * (h - 1))
    allowed_triples = {
        (base, base, base),
        (base + dev, base - dev // 2, base - dev // 2),
        (base - dev, base + dev // 2, base + dev // 2),
    }
    d0 = designs._distinct(np.sort(np.concatenate((D.elems, F.neg(D.elems)))))
    allowed_chi = {-1, 3 ** (2 * h - 1) - 1, -(3 ** (2 * h - 1)) - 1}
    triples = designs.joint_counts(F, f_hkm, bs)
    for b, triple, chi_sum in zip(bs.tolist(), triples, char_sum(F, d0, bs)):
        if triple not in allowed_triples:
            problems.append(f"N_(b,a) triple {triple} at b={b}")
        chi = is_rational(chi_sum)
        if chi not in allowed_chi:
            problems.append(f"chi_1(bD_0) = {chi} at b={b}")
    exp = f"rank/count/character lemmas on {len(us)} u's and {len(bs)} b's"
    act = "all hold" if not problems else f"{len(problems)} violations"
    return not problems, exp, act, "; ".join(problems[:4])


CASES["hkm-lemmas-h1"] = partial(_hkm_lemma_case, 1)
CASES["hkm-lemmas-h3"] = partial(_hkm_lemma_case, 3)


# ---------------------------------------------------------------------------
# criterion 12: quadratic Gauss sums and the character-sum weight route

def _zd13_case(p, m):
    F = default_field(p, m)
    specs = [FuncSpec(((1, 2),)), FuncSpec(((F.alpha, 2),))]
    for ell in range(1, m):
        specs.append(FuncSpec(((1, p**ell + 1),)))
        specs.append(FuncSpec(((F.alpha, p**ell + 1), (1, 2))))
    # repeats of the first spec and of the ell = 1 spec: the "N forms" count
    # in expected is part of the JSON contract
    specs.append(FuncSpec(((1, 2),)))
    specs.append(FuncSpec(((1, p + 1),)))  # every registered m is at least 2
    problems = []
    # the sum sees the composed GF(p)-valued form Tr(f), so its rank governs
    ranks = boolfn.quadratic_rank(F, specs, traced=True)
    for spec, r in zip(specs, ranks.tolist()):
        gs = boolfn.quadratic_galois_sum(F, spec)
        want = {0} if r % 2 else {(p - 1) * p ** (m - r // 2), -(p - 1) * p ** (m - r // 2)}
        if gs not in want:
            problems.append(f"{spec.terms} rank {r}: sum {gs} not in {sorted(want)}")
    exp = f"{len(specs)} forms: sum in {{0, +-(p-1)p^(m-r/2)}} per rank parity"
    act = "all hold" if not problems else f"{len(problems)} violations"
    return not problems, exp, act, "; ".join(problems[:4])


for _p, _m in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3)):
    CASES[f"lemma-zd13-p{_p}m{_m}"] = partial(_zd13_case, _p, _m)


def _charsum_weights_case():
    def sample_points(F):
        if F.q <= 243:
            return np.arange(F.q)
        return np.append(np.arange(0, F.q, max(1, F.q // 25)), F.q - 1)

    F25 = default_field(2, 5)
    families = [
        ("paley", designs.paley_set(default_field(3, 3))),
        ("paley", designs.paley_set(default_field(3, 2))),
        ("paley", designs.paley_set(default_field(3, 5))),
        ("paley", designs.paley_set(default_field(7, 2))),
        ("hkm", _hkm_instance(1)[1]),
        ("maschietti-singer", designs.maschietti_set(F25, "singer")),
        ("bool-support", designs.boolean_support(F25, FuncSpec(((1, 3),)).table(F25))),
        ("maschietti-glynn2", designs.maschietti_set(default_field(2, 9), "glynn2")),
    ]
    checked = 0
    problems = []
    for name, D in families:
        F = D.field
        xs = sample_points(F)
        directs = len(D) - np.count_nonzero(codes.codeword(D, xs) == 0, axis=1)
        vias = codes.weight_via_charsum(D, xs)
        checked += xs.size
        for x, direct, via in zip(xs.tolist(), directs.tolist(), vias):
            if direct != via:
                problems.append(f"{name} q={F.q} x={x}: {via} != {direct}")
    exp = "character-sum weight equals direct weight on every sampled x"
    act = f"{checked} points checked" + ("" if not problems else f", {len(problems)} mismatches")
    return not problems, exp, act, "; ".join(problems[:4])


CASES["charsum-weights"] = _charsum_weights_case


# ---------------------------------------------------------------------------
# criterion 13: structural property suites

def _invariance_case():
    problems = []
    D, _, base = _family_enumerator("paley", 3, 3)  # the skew-q27 row's code
    F = D.field
    for a in (F.alpha, F.mul(F.alpha, F.alpha), 2):
        scaled = designs.defining_set(F, F.mul(a, D.elems))
        if codes.weight_enumerator(scaled).counts != base.counts:
            problems.append(f"scaling by {a} changed the enumerator")
    shuffled = DefiningSet(F, D.elems[::-1])
    if codes.weight_enumerator(shuffled).counts != base.counts:
        problems.append("permuting coordinates changed the enumerator")
    alt = Field(3, 3, modulus=(1, 2, 1, 1))  # x^3 + x^2 + 2x + 1; the default is x^3 + 2x + 1
    # the default modulus's codes are the skew-q27 and qf-gold-q27 rows'
    for spec in ("paley", "qf-image:1@4"):
        e1 = _family_enumerator(spec, 3, 3)[2]
        e2 = codes.weight_enumerator(designs.family(spec, lambda: alt)[0])
        if e1.counts != e2.counts:
            problems.append(f"modulus change altered the {spec} enumerator")
    exp_ok = "scaling, permutation, and modulus changes leave enumerators fixed"
    act = "all invariant" if not problems else f"{len(problems)} violations"
    return not problems, exp_ok, act, "; ".join(problems)


CASES["prop-enumerator-invariance"] = _invariance_case


def _parseval_case():
    problems = []
    for m, specs in ((5, [((1, 3),)]), (6, [((1, 3),), ((2, 3), (1, 5))])):
        F = default_field(2, m)
        for terms in specs:
            tbl = FuncSpec(terms).table(F, traced=True)
            s = boolfn.walsh_from_table(F, tbl)
            # |v| <= 2^m over 2^m frequencies, so the int64 sum of squares is at
            # most 2^(3m) <= 2^18 here, and 2^(2m) <= 2^44 when Parseval holds: exact
            if int(s.values @ s.values) != 1 << (2 * m):
                problems.append(f"Parseval fails for {terms} on m={m}")
            signs = 1 - 2 * tbl
            back = fwht(fwht(signs.astype(np.int64)))
            if not np.array_equal(back, (1 << m) * signs):
                problems.append(f"inverse transform fails for {terms} on m={m}")
        umap = boolfn._trace_pairing_map(F)
        if sorted(umap.tolist()) != list(range(F.q)):
            problems.append(f"frequency relabeling not a bijection on m={m}")
    exp = "Parseval, inverse transform, and frequency bijection hold"
    act = "all hold" if not problems else f"{len(problems)} violations"
    return not problems, exp, act, "; ".join(problems)


CASES["prop-parseval"] = _parseval_case


def _pless_case():
    instances = [
        ("skew-q27", ("paley", 3, 3)),
        ("qr-p3m2", ("paley", 3, 2)),
        ("hkm-h1", ("hkm:1", None, None)),
        ("segre-m5", ("maschietti:segre", None, 5)),
        ("bent-m6", (_bent_instance(6), None, 6)),
        ("semibent-m7", (_semibent_instance(7), None, 7)),
    ]
    problems = []
    for name, args in instances:
        D, _, E = _family_enumerator(*args)
        W = codes.dual_distance_witness(D)
        rep = codes.pless_moment_check(E, W)
        if not rep.ok:
            problems.append(f"{name}: {rep}")
    exp = "all authorized Pless moment identities hold"
    act = "all hold" if not problems else f"{len(problems)} violations"
    return not problems, exp, act, "; ".join(problems)


CASES["prop-pless"] = _pless_case


def _complement_case():
    problems = []
    F7 = default_field(7, 1)
    Db = designs.family(_bent_instance(4), lambda p: default_field(p, 4))[0]
    for name, G, elems in (
            ("paley GF(7)", AdditiveGroup(F7), designs.paley_set(F7).elems),
            ("hkm h=1", CyclicGroup(13), designs.to_cyclic_residues(_hkm_instance(1)[1], v=13)),
            ("bent m=4 support", AdditiveGroup(Db.field), Db.elems)):
        cls = designs.classify_design(G, elems)
        ccls = designs.classify_design(G, designs.complement_in_group(G, elems))
        v, k, lam = cls.v, cls.k, cls.lam
        if ccls != designs.DifferenceSet(v, v - k, v - 2 * k + lam):
            problems.append(f"{name}: complement {ccls}")
    exp = "complement of a (v,k,lam) difference set is (v, v-k, v-2k+lam)"
    act = "all hold" if not problems else f"{len(problems)} violations"
    return not problems, exp, act, "; ".join(problems)


CASES["prop-complement"] = _complement_case

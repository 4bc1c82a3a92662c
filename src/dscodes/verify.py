"""Verification case registry: every closed-form claim, checked by enumeration.

Each case builds its family from scratch, computes the exact quantity the
claim predicts (weight enumerator, design parameters, rank, character sum),
and compares against the frozen expected values.  Case ids are stable strings
so CI can pin individual regressions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import boolfn, codes, designs
from .cyclotomic import char_sum, is_rational
from .designs import AdditiveGroup, CyclicGroup, DefiningSet, FuncSpec
from .errors import ToolkitError
from .gf import Field, default_field


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    verdict: str  # pass | fail | skipped
    expected: str
    actual: str
    detail: str = ""
    seconds: float = 0.0


CASES = {}


def _case(cid):
    def deco(fn):
        CASES[cid] = fn
        return fn

    return deco


def run_case(cid: str) -> CaseReport:
    fn = CASES[cid]
    t0 = time.perf_counter()
    try:
        ok, expected, actual, detail = fn()
        verdict = "pass" if ok else "fail"
    except ToolkitError as exc:
        verdict, expected, actual = "fail", "no toolkit error", f"{type(exc).__name__}: {exc}"
        detail = ""
    return CaseReport(cid, verdict, expected, actual, detail, time.perf_counter() - t0)


def run_cases(case_filter=None):
    ids = sorted(CASES)
    if case_filter:
        ids = [c for c in ids if c in set(case_filter)]
    return [run_case(c) for c in ids]


def _fmt(E: codes.WeightEnumerator) -> str:
    return f"[{E.n},{E.k},{codes.minimum_distance(E)}] {E.poly_str()}"


def _check_prediction(E, pred):
    rep = codes.compare_prediction(E, pred)
    expected = f"n={pred.n} k={rep.expected_k} per {pred.claim}"
    return rep.ok, expected, _fmt(E), "; ".join(rep.mismatches)


@lru_cache(maxsize=None)
def _family_enumerator(tag, p, m):
    F = default_field(p, m)
    if tag == "paley":
        D = designs.paley_set(F)
    elif tag in designs.MASCHIETTI_CASES:
        D = designs.maschietti_set(F, tag)
    else:
        raise ValueError(tag)
    return D, codes.weight_enumerator(codes.make_code(D))


# ---------------------------------------------------------------------------
# criterion 1: one-weight codes from skew Paley sets

def _skew_case(p, m):
    def run():
        q = p**m
        F = default_field(p, m)
        D, E = _family_enumerator("paley", p, m)
        skew = designs.is_skew_set(F, D)
        pred = codes.predicted_enumerator("thm-part2", p=p, m=m)
        ok, exp, act, detail = _check_prediction(E, pred)
        d = codes.minimum_distance(E)
        gries = codes.griesmer_check(E.n, E.k, d, p)
        ok = ok and skew and gries == "meets"
        exp = f"skew partition, {exp}, griesmer meets"
        act = f"skew={skew}, {act}, griesmer {gries}"
        return ok, exp, act, detail

    return run


for _p, _m in ((7, 1), (11, 1), (19, 1), (23, 1), (3, 3)):
    CASES[f"skew-q{_p**_m}"] = _skew_case(_p, _m)


# ---------------------------------------------------------------------------
# criterion 2: quadratic-residue codes

def _qr_case(p, m):
    def run():
        _, E = _family_enumerator("paley", p, m)
        pred = codes.predicted_enumerator("thm-part1", p=p, m=m)
        return _check_prediction(E, pred)

    return run


for _p, _m in ((3, 2), (3, 4), (5, 2), (7, 2), (3, 3), (5, 3)):
    CASES[f"qr-p{_p}m{_m}"] = _qr_case(_p, _m)


# ---------------------------------------------------------------------------
# criterion 3: image codes of e-to-1 quadratic forms

def _qf_case(p, m, terms):
    def run():
        F = default_field(p, m)
        f = FuncSpec(terms(F), False)
        e = designs.eto1_check(F, f)
        if e != 2:
            return False, "e = 2", f"e = {e}", ""
        r = boolfn.quadratic_rank(F, f).r
        D = designs.image_set(F, f)
        E = codes.weight_enumerator(codes.make_code(D))
        pred = codes.predicted_enumerator("thm-qfcodes", p=p, m=m, r=r, e=e)
        ok, exp, act, detail = _check_prediction(E, pred)
        return ok, f"e=2, rank-{r} branch: {exp}", f"e={e}, r={r}: {act}", detail

    return run


CASES["qf-gold-q27"] = _qf_case(3, 3, lambda F: ((1, 3**1 + 1),))


def _trinomial_terms(F):
    u = F.alpha
    return ((1, 10), (F.neg(u), 6), (F.neg(F.mul(u, u)), 2))


CASES["qf-trin-q27"] = _qf_case(3, 3, _trinomial_terms)
CASES["qf-trin-q243"] = _qf_case(3, 5, _trinomial_terms)


# ---------------------------------------------------------------------------
# criterion 4: Maschietti difference sets

def _maschietti_ds_case(m):
    def run():
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

    return run


for _m in (5, 7):
    CASES[f"maschietti-ds-m{_m}"] = _maschietti_ds_case(_m)


# ---------------------------------------------------------------------------
# criteria 5-6: hyperoval codes

def _hyperoval_code_case(case, m):
    def run():
        _, E = _family_enumerator(case, 2, m)
        pred = codes.predicted_enumerator("thm-hyperovalDS", m=m)
        ok, exp, act, detail = _check_prediction(E, pred)
        d_want = 2 ** (m - 2) - 2 ** ((m - 3) // 2)
        ok = ok and codes.minimum_distance(E) == d_want and E.k == m
        return ok, f"[{2**(m-1)-1},{m},{d_want}] {exp}", act, detail

    return run


for _m in (5, 7, 9):
    CASES[f"segre-m{_m}"] = _hyperoval_code_case("segre", _m)
for _m in (5, 7):
    CASES[f"glynn1-m{_m}"] = _hyperoval_code_case("glynn1", _m)

GLYNN2_ENUMERATORS = {
    5: (15, 5, {0: 1, 6: 10, 8: 15, 10: 6}),
    7: (63, 7, {0: 1, 28: 36, 32: 63, 36: 28}),
    9: (255, 9, {0: 1, 112: 9, 120: 108, 128: 285, 136: 108, 144: 1}),
    11: (1023, 11, {0: 1, 480: 22, 496: 440, 512: 1155, 528: 408, 544: 22}),
}


def _glynn2_case(m):
    def run():
        _, E = _family_enumerator("glynn2", 2, m)
        n, k, counts = GLYNN2_ENUMERATORS[m]
        want = codes.WeightEnumerator(2, m, n, k, counts)
        ok = (E.n, E.k, E.counts) == (n, k, counts)
        detail = ""
        if m >= 9:
            pred = codes.predicted_enumerator("glynn2-conjecture", m=m)
            rep = codes.compare_prediction(E, pred)
            ok = ok and rep.ok
            detail = "; ".join(rep.mismatches)
        return ok, _fmt(want), _fmt(E), detail

    return run


for _m in (5, 7, 9, 11):
    CASES[f"glynn2-m{_m}"] = _glynn2_case(_m)


# ---------------------------------------------------------------------------
# criteria 7-9: bent / semibent / almost bent codes

@lru_cache(maxsize=None)
def _bent_instance(m):
    F = default_field(2, m)
    spec = boolfn.find_quadratic_with(F, rank=m, walsh0=1 << (m // 2))
    D = designs.boolean_support(F, spec)
    return F, spec, D


def _bent_case(m):
    def run():
        F, spec, D = _bent_instance(m)
        n_f = len(D)
        want_nf = 2 ** (m - 1) - 2 ** ((m - 2) // 2)
        s = boolfn.walsh_transform(F, spec)
        cls = boolfn.classify_spectrum(s)
        E = codes.weight_enumerator(codes.make_code(D))
        pred = codes.predicted_enumerator("thm-bentcodes", m=m, n_f=n_f)
        ok, exp, act, detail = _check_prediction(E, pred)
        design = designs.classify_design(AdditiveGroup(F), D.elems)
        want_design = designs.DifferenceSet(2**m, want_nf, 2 ** (m - 2) - 2 ** ((m - 2) // 2))
        ok = ok and n_f == want_nf and cls.variant == "bent" and design == want_design
        exp = f"bent, n_f={want_nf}, {want_design}, {exp}"
        act = f"{cls.variant}, n_f={n_f}, {design}, {act}"
        return ok, exp, act, detail

    return run


for _m in (4, 6, 8):
    CASES[f"bent-m{_m}"] = _bent_case(_m)


@lru_cache(maxsize=None)
def _semibent_instance(m):
    F = default_field(2, m)
    spec = boolfn.find_quadratic_with(F, rank=m - 1, walsh0=1 << ((m + 1) // 2))
    D = designs.boolean_support(F, spec)
    return F, spec, D


def _semibent_case(m):
    def run():
        F, spec, D = _semibent_instance(m)
        n_f = len(D)
        want_nf = 2 ** (m - 1) - 2 ** ((m - 1) // 2)
        s = boolfn.walsh_transform(F, spec)
        cls = boolfn.classify_spectrum(s)
        r = boolfn.quadratic_rank(F, spec).r
        E = codes.weight_enumerator(codes.make_code(D))
        pred = codes.predicted_enumerator("thm-semibentcodes", m=m, n_f=n_f)
        ok, exp, act, detail = _check_prediction(E, pred)
        ok = ok and n_f == want_nf and cls.variant == "semibent" and r == m - 1
        if m == 7:
            ok = ok and (E.n, E.k, codes.minimum_distance(E)) == (56, 7, 24)
        exp = f"semibent rank {m-1}, n_f={want_nf}, {exp}"
        act = f"{cls.variant} rank {r}, n_f={n_f}, {act}"
        return ok, exp, act, detail

    return run


for _m in (5, 7):
    CASES[f"semibent-m{_m}"] = _semibent_case(_m)


def _ab_case(m):
    def run():
        F = default_field(2, m)
        g = FuncSpec(((1, 3),), False)
        ab = boolfn.is_almost_bent(F, g)
        lam0 = boolfn.lambda_spectrum(F, g, 1, 0)
        want_nf = boolfn.support_size_prediction("ab-trace", m, walsh0=lam0)
        D = designs.boolean_support(F, g)
        n_f = len(D)
        E = codes.weight_enumerator(codes.make_code(D))
        pred = codes.predicted_enumerator("thm-abcodes", m=m, n_f=n_f)
        ok, exp, act, detail = _check_prediction(E, pred)
        ok = ok and ab and n_f in want_nf
        exp = f"almost bent, n_f in {sorted(want_nf)}, {exp}"
        act = f"almost_bent={ab}, lambda(1,0)={lam0}, n_f={n_f}, {act}"
        return ok, exp, act, detail

    return run


for _m in (5, 7):
    CASES[f"ab-m{_m}"] = _ab_case(_m)


# ---------------------------------------------------------------------------
# criterion 10: quadratic Boolean functions on m = 6

@lru_cache(maxsize=None)
def _qbf_samples(m=6):
    """Deterministic grid of quadratic coefficient tuples, bucketed by rank."""
    F = default_field(2, m)
    buckets = {}
    for digits in product((0, 1, 2), repeat=m // 2 + 1):
        terms = tuple((c, (1 << i) + 1) for i, c in enumerate(digits) if c)
        if not terms:
            continue
        spec = FuncSpec(terms, True)
        r = boolfn.quadratic_rank(F, spec).r
        buckets.setdefault(r, []).append(spec)
    return F, buckets


def _qbf_case(rank):
    def run():
        F, buckets = _qbf_samples()
        m = F.m
        sample = buckets.get(rank, [])
        total = sum(len(v) for r, v in buckets.items() if r > 0)
        if not sample or total < 20:
            return False, f">= 1 rank-{rank} sample among >= 20 total", f"{len(sample)} of {total}", ""
        amp = 1 << (m - rank // 2)
        lobe, wing = 1 << (rank - 1), 1 << ((rank - 2) // 2)
        want_hist = {0: (1 << m) - (1 << rank), amp: lobe + wing, -amp: lobe - wing}
        want_hist = {v: c for v, c in want_hist.items() if c}
        bad = []
        for spec in sample:
            s = boolfn.walsh_transform(F, spec)
            if s.histogram() != want_hist:
                bad.append(f"spectrum {s.histogram()} for {spec.terms}")
                continue
            D = designs.boolean_support(F, spec)
            E = codes.weight_enumerator(codes.make_code(D))
            pred = codes.predicted_enumerator("thm-CodeQBFs", m=m, r=rank, walsh0=s.values[0])
            rep = codes.compare_prediction(E, pred)
            if not rep.ok:
                bad.append(f"{spec.terms}: {'; '.join(rep.mismatches)}")
        exp = f"{len(sample)} rank-{rank} functions match spectrum table and enumerator table"
        act = "all match" if not bad else f"{len(bad)} mismatches"
        return not bad, exp, act, "; ".join(bad[:4])

    return run


for _r in (2, 4, 6):
    CASES[f"qbf-m6-r{_r}"] = _qbf_case(_r)


# ---------------------------------------------------------------------------
# criterion 11: the ternary HKM family

@lru_cache(maxsize=None)
def _hkm_instance(h):
    D = designs.hkm_set(h)
    return D.field, D


def _hkm_code_case(h):
    def run():
        F, D = _hkm_instance(h)
        E = codes.weight_enumerator(codes.make_code(D))
        pred = codes.predicted_enumerator("thm-HKMcodes", h=h)
        return _check_prediction(E, pred)

    return run


CASES["hkm-h1"] = _hkm_code_case(1)
CASES["hkm-h3"] = _hkm_code_case(3)


def _qu_spec(F, u, e):
    terms = tuple((c, x) for c, x in ((u, e + 1), (1, 2)) if c)
    return FuncSpec(terms, True)


def _hkm_lemma_case(h):
    def run():
        F, D = _hkm_instance(h)
        m, e = 3 * h, 3**h
        ell = 3 ** (2 * h) - 3**h + 1
        if h == 1:
            us = list(range(F.q))
            bs = list(range(1, F.q))
        else:
            step = (F.q - 1) // 127
            us = [0] + [int(F.exp_table[t]) for t in range(0, F.q - 1, step)]
            bs = [int(F.exp_table[t]) for t in range(0, F.q - 1, step)]
        problems = []
        rank_of = {}

        def qu_rank(u):
            if u not in rank_of:
                rank_of[u] = boolfn.quadratic_rank(F, _qu_spec(F, u, e)).r
            return rank_of[u]

        if qu_rank(1) != m:
            problems.append(f"rank(Q_1) = {qu_rank(1)}")
        allowed_ranks = {m, m - h, m - 2 * h}
        for u in us:
            r = qu_rank(u)
            if r not in allowed_ranks:
                problems.append(f"rank(Q_{u}) = {r}")
            if max(r, qu_rank(F.neg(F.add(1, u)))) != m:
                problems.append(f"neither Q_{u} nor its partner has full rank")
        for b in bs:
            if boolfn.quadratic_rank(F, FuncSpec(((b, e + 1),), True)).r != m:
                problems.append(f"rank(Tr({b} x^{e+1})) < {m}")
        f_hkm = FuncSpec(((1, 1), (1, ell)), True)
        base = 3 ** (m - 2)
        dev = 2 * 3 ** (2 * (h - 1))
        allowed_triples = {
            (base, base, base),
            (base + dev, base - dev // 2, base - dev // 2),
            (base - dev, base + dev // 2, base + dev // 2),
        }
        elems = np.asarray(D.elems, dtype=np.int64)
        d0 = np.union1d(elems, F.neg(elems))
        allowed_chi = {-1, 3 ** (2 * h - 1) - 1, -(3 ** (2 * h - 1)) - 1}
        for b, triple in zip(bs, designs.joint_counts(F, f_hkm, bs)):
            if triple not in allowed_triples:
                problems.append(f"N_(b,a) triple {triple} at b={b}")
            chi = is_rational(char_sum(F, d0, b))
            if chi not in allowed_chi:
                problems.append(f"chi_1(bD_0) = {chi} at b={b}")
        exp = f"rank/count/character lemmas on {len(us)} u's and {len(bs)} b's"
        act = "all hold" if not problems else f"{len(problems)} violations"
        return not problems, exp, act, "; ".join(problems[:4])

    return run


CASES["hkm-lemmas-h1"] = _hkm_lemma_case(1)
CASES["hkm-lemmas-h3"] = _hkm_lemma_case(3)


# ---------------------------------------------------------------------------
# criterion 12: quadratic Gauss sums and the character-sum weight route

def _zd13_case(p, m):
    def run():
        F = default_field(p, m)
        specs = [FuncSpec(((1, 2),), True), FuncSpec(((F.alpha, 2),), True)]
        for ell in range(1, m):
            specs.append(FuncSpec(((1, p**ell + 1),), True))
            specs.append(FuncSpec(((F.alpha, p**ell + 1), (1, 2)), True))
        specs.append(FuncSpec(((1, 2),), False))
        if m >= 2:
            specs.append(FuncSpec(((1, p + 1),), False))
        problems = []
        for spec in specs:
            # the sum sees the composed GF(p)-valued form, so its rank governs
            traced = spec if spec.to_prime_subfield else FuncSpec(spec.terms, True)
            r = boolfn.quadratic_rank(F, traced).r
            gs = boolfn.quadratic_galois_sum(F, spec)
            want = {0} if r % 2 else {(p - 1) * p ** (m - r // 2), -(p - 1) * p ** (m - r // 2)}
            if gs not in want:
                problems.append(f"{spec.terms} rank {r}: sum {gs} not in {sorted(want)}")
        exp = f"{len(specs)} forms: sum in {{0, +-(p-1)p^(m-r/2)}} per rank parity"
        act = "all hold" if not problems else f"{len(problems)} violations"
        return not problems, exp, act, "; ".join(problems[:4])

    return run


for _p, _m in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3)):
    CASES[f"lemma-zd13-p{_p}m{_m}"] = _zd13_case(_p, _m)


def _charsum_weights_case():
    def sample_points(F, limit=None):
        if limit is None or F.q <= limit:
            return range(F.q)
        step = max(1, F.q // 25)
        return list(range(0, F.q, step)) + [F.q - 1]

    def run():
        families = []
        families.append(designs.paley_set(default_field(3, 3)))
        families.append(designs.paley_set(default_field(3, 2)))
        families.append(designs.paley_set(default_field(3, 5)))
        families.append(designs.paley_set(default_field(7, 2)))
        families.append(_hkm_instance(1)[1])
        families.append(designs.maschietti_set(default_field(2, 5), "singer"))
        families.append(designs.boolean_support(default_field(2, 5), FuncSpec(((1, 3),), True)))
        families.append(designs.maschietti_set(default_field(2, 9), "glynn2"))
        checked = 0
        problems = []
        for D in families:
            C = codes.make_code(D)
            F = D.field
            for x in sample_points(F, limit=243):
                direct = int(C.n - np.count_nonzero(codes.codeword(C, x) == 0))
                via = codes.weight_via_charsum(C, x)
                checked += 1
                if direct != via:
                    problems.append(f"{D.family_tag} q={F.q} x={x}: {via} != {direct}")
        exp = "character-sum weight equals direct weight on every sampled x"
        act = f"{checked} points checked" + ("" if not problems else f", {len(problems)} mismatches")
        return not problems, exp, act, "; ".join(problems[:4])

    return run


CASES["charsum-weights"] = _charsum_weights_case()


# ---------------------------------------------------------------------------
# criterion 13: structural property suites

def _invariance_case():
    def run():
        problems = []
        F = default_field(3, 3)
        D = designs.paley_set(F)
        base = codes.weight_enumerator(codes.make_code(D))
        for a in (F.alpha, F.mul(F.alpha, F.alpha), 2):
            scaled = designs.defining_set(F, [F.mul(a, d) for d in D.elems], "scaled")
            if codes.weight_enumerator(codes.make_code(scaled)).counts != base.counts:
                problems.append(f"scaling by {a} changed the enumerator")
        shuffled = DefiningSet(F, tuple(reversed(D.elems)), "shuffled")
        if codes.weight_enumerator(codes.make_code(shuffled)).counts != base.counts:
            problems.append("permuting coordinates changed the enumerator")
        alt = None
        for cand in range(F.p, F.p**3):
            coeffs = [cand % 3, (cand // 3) % 3, (cand // 9) % 3, 1]
            if coeffs[:3] == [1, 2, 0]:
                continue  # default modulus
            try:
                alt = Field(3, 3, modulus=tuple(coeffs))
                break
            except ToolkitError:
                continue
        for build in (designs.paley_set, lambda G: designs.image_set(G, FuncSpec(((1, 4),), False))):
            e1 = codes.weight_enumerator(codes.make_code(build(F)))
            e2 = codes.weight_enumerator(codes.make_code(build(alt)))
            if e1.counts != e2.counts:
                problems.append(f"modulus change altered {build} enumerator")
        exp_ok = "scaling, permutation, and modulus changes leave enumerators fixed"
        act = "all invariant" if not problems else f"{len(problems)} violations"
        return not problems, exp_ok, act, "; ".join(problems)

    return run


CASES["prop-enumerator-invariance"] = _invariance_case()


def _parseval_case():
    def run():
        problems = []
        for m, specs in ((5, [((1, 3),)]), (6, [((1, 3),), ((2, 3), (1, 5))])):
            F = default_field(2, m)
            for terms in specs:
                s = boolfn.walsh_transform(F, FuncSpec(terms, True))
                if sum(v * v for v in s.values) != 1 << (2 * m):
                    problems.append(f"Parseval fails for {terms} on m={m}")
                signs = 1 - 2 * FuncSpec(terms, True).table(F)
                back = boolfn._fwht(boolfn._fwht(signs.astype(np.int64).copy()))
                if not np.array_equal(back, (1 << m) * signs):
                    problems.append(f"inverse transform fails for {terms} on m={m}")
            umap = boolfn._trace_pairing_map(F)
            if sorted(umap.tolist()) != list(range(F.q)):
                problems.append(f"frequency relabeling not a bijection on m={m}")
        exp = "Parseval, inverse transform, and frequency bijection hold"
        act = "all hold" if not problems else f"{len(problems)} violations"
        return not problems, exp, act, "; ".join(problems)

    return run


CASES["prop-parseval"] = _parseval_case()


def _pless_case():
    def run():
        instances = []
        _, e1 = _family_enumerator("paley", 3, 3)
        instances.append(("skew-q27", designs.paley_set(default_field(3, 3)), e1))
        _, e2 = _family_enumerator("paley", 3, 2)
        instances.append(("qr-p3m2", designs.paley_set(default_field(3, 2)), e2))
        _, hd = _hkm_instance(1)
        instances.append(("hkm-h1", hd, codes.weight_enumerator(codes.make_code(hd))))
        _, sd = _family_enumerator("segre", 2, 5)
        instances.append(("segre-m5", designs.maschietti_set(default_field(2, 5), "segre"), sd))
        _, _, bd = _bent_instance(6)
        instances.append(("bent-m6", bd, codes.weight_enumerator(codes.make_code(bd))))
        _, _, smd = _semibent_instance(7)
        instances.append(("semibent-m7", smd, codes.weight_enumerator(codes.make_code(smd))))
        problems = []
        for name, D, E in instances:
            W = codes.dual_distance_witness(codes.make_code(D))
            rep = codes.pless_moment_check(E, W)
            if not rep.ok:
                problems.append(f"{name}: {rep}")
        exp = "all authorized Pless moment identities hold"
        act = "all hold" if not problems else f"{len(problems)} violations"
        return not problems, exp, act, "; ".join(problems)

    return run


CASES["prop-pless"] = _pless_case()


def _complement_case():
    def run():
        problems = []
        F7 = default_field(7, 1)
        G = AdditiveGroup(F7)
        D = designs.paley_set(F7)
        cls = designs.classify_design(G, D.elems)
        comp = designs.complement_in_group(G, D.elems)
        ccls = designs.classify_design(G, comp)
        v, k, lam = cls.v, cls.k, cls.lam
        if ccls != designs.DifferenceSet(v, v - k, v - 2 * k + lam):
            problems.append(f"paley GF(7): complement {ccls}")
        _, hd = _hkm_instance(1)
        res = designs.to_cyclic_residues(hd, v=13)
        Gc = CyclicGroup(13)
        cls = designs.classify_design(Gc, res)
        comp = designs.complement_in_group(Gc, res)
        ccls = designs.classify_design(Gc, comp)
        if ccls != designs.DifferenceSet(13, 13 - cls.k, 13 - 2 * cls.k + cls.lam):
            problems.append(f"hkm h=1: complement {ccls}")
        Fb, _, Db = _bent_instance(4)
        Gb = AdditiveGroup(Fb)
        cls = designs.classify_design(Gb, Db.elems)
        comp = designs.complement_in_group(Gb, Db.elems)
        ccls = designs.classify_design(Gb, comp)
        if ccls != designs.DifferenceSet(16, 16 - cls.k, 16 - 2 * cls.k + cls.lam):
            problems.append(f"bent m=4 support: complement {ccls}")
        exp = "complement of a (v,k,lam) difference set is (v, v-k, v-2k+lam)"
        act = "all hold" if not problems else f"{len(problems)} violations"
        return not problems, exp, act, "; ".join(problems)

    return run


CASES["prop-complement"] = _complement_case()

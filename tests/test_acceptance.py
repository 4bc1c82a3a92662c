"""End-to-end gate: thirteen exact checks, each with a runtime budget.

Each test drives cases from the public verification registry, prints one
ACCEPTANCE line (live, even under output capture), and fails hard on any
mismatch or budget overrun.  Everything is exact — tolerance zero.
"""

import numpy as np

from dscodes import verify


def _gate(capsys, num, name, budget, ids, extra_ok=True, extra_note=""):
    reports = [verify.run_case(i) for i in ids]
    secs = sum(r.seconds for r in reports)
    ok = all(r.verdict == "pass" for r in reports) and secs < budget and extra_ok
    with capsys.disabled():
        print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
              f" ({secs:.2f}s, budget {budget}s)")
    for r in reports:
        assert r.verdict == "pass", f"{r.case_id}: {r.actual}  {r.detail}"
    assert secs < budget, f"{secs:.2f}s exceeds the {budget}s budget"
    assert extra_ok, extra_note


def test_01_skew_set_one_weight_codes(capsys):
    _gate(capsys, 1, "skew-set one-weight codes", 1.0,
          ["skew-q7", "skew-q11", "skew-q19", "skew-q23", "skew-q27"])


def test_02_quadratic_residue_codes(capsys):
    _gate(capsys, 2, "quadratic-residue codes", 1.0,
          ["qr-p3m2", "qr-p3m4", "qr-p5m2", "qr-p7m2", "qr-p3m3", "qr-p5m3"])


def test_03_quadratic_form_image_codes(capsys):
    _gate(capsys, 3, "quadratic-form image codes", 5.0,
          ["qf-gold-q27", "qf-trin-q27", "qf-trin-q243"])


def test_04_hyperoval_difference_sets(capsys):
    _gate(capsys, 4, "hyperoval-derived difference sets", 2.0,
          ["maschietti-ds-m5", "maschietti-ds-m7"])


def test_05_hyperoval_three_weight_codes(capsys):
    _gate(capsys, 5, "hyperoval three-weight codes", 5.0,
          ["segre-m5", "segre-m7", "segre-m9", "glynn1-m5", "glynn1-m7"])


def test_06_glynn2_enumerators(capsys):
    _gate(capsys, 6, "Glynn II enumerators", 10.0,
          ["glynn2-m5", "glynn2-m7", "glynn2-m9", "glynn2-m11"])


def test_07_bent_function_codes(capsys):
    _gate(capsys, 7, "bent-function codes", 5.0,
          ["bent-m4", "bent-m6", "bent-m8"])


def test_08_semibent_function_codes(capsys):
    _gate(capsys, 8, "semibent-function codes", 5.0,
          ["semibent-m5", "semibent-m7"])


def test_09_almost_bent_codes(capsys):
    _gate(capsys, 9, "almost-bent codes", 30.0,
          ["ab-m5", "ab-m7"])


def test_10_quadratic_boolean_codes(capsys):
    _, _, _, ranks, _, _ = verify._qbf_samples()
    total = int(np.count_nonzero(ranks > 0))
    spanned = {2, 4, 6} <= set(ranks.tolist())
    _gate(capsys, 10, "quadratic Boolean-function codes", 10.0,
          ["qbf-m6-r2", "qbf-m6-r4", "qbf-m6-r6"],
          extra_ok=total >= 20 and spanned,
          extra_note=f"only {total} samples over ranks {sorted(set(ranks.tolist()))}")


def test_11_hkm_codes_and_lemmas(capsys):
    q = 3**9
    n_sampled = len(range(0, q - 1, (q - 1) // 127))
    _gate(capsys, 11, "HKM ternary codes and lemmas", 60.0,
          ["hkm-h1", "hkm-h3", "hkm-lemmas-h1", "hkm-lemmas-h3"],
          extra_ok=n_sampled >= 100,
          extra_note=f"only {n_sampled} sampled points at h=3")


def test_12_character_sum_machinery(capsys):
    _gate(capsys, 12, "character-sum machinery", 60.0,
          ["lemma-zd13-p3m2", "lemma-zd13-p3m3", "lemma-zd13-p3m4",
           "lemma-zd13-p5m2", "lemma-zd13-p5m3", "charsum-weights"])


def test_13_property_suites(capsys):
    _gate(capsys, 13, "algebraic property suites", 60.0,
          ["prop-enumerator-invariance", "prop-parseval", "prop-pless",
           "prop-complement"])

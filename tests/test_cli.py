import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dscodes.cli import entry


def run(capsys, *argv):
    rc = entry(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_construct_prints_sorted_elements(capsys):
    rc, out, _ = run(capsys, "construct", "--family", "paley", "--p", "7")
    assert rc == 0
    assert out.splitlines()[-1] == "1 2 4"


def test_construct_json_is_canonical(capsys):
    rc, out, _ = run(capsys, "construct", "--family", "paley", "--p", "7", "--json")
    assert rc == 0
    assert out.strip() == '{"family":"paley","p":7,"m":1,"size":3,"elements":[1,2,4]}'
    assert json.loads(out)["elements"] == [1, 2, 4]


def test_construct_dlog_residues(capsys):
    rc, out, _ = run(capsys, "construct", "--family", "hkm:1", "--dlog")
    assert rc == 0
    assert "0 7 8 11" in out


def test_construct_classify(capsys):
    rc, out, _ = run(capsys, "construct", "--family", "paley", "--p", "13", "--classify")
    assert rc == 0
    assert "almost difference set (v=13, k=6, lam=2, t=6)" in out


def test_analyze_design_cyclic_group(capsys):
    rc, out, _ = run(capsys, "analyze-design", "--family", "maschietti:singer",
                     "--m", "5", "--group", "cyclic")
    assert rc == 0
    assert "difference set (v=31, k=15, lam=7)" in out


def test_walsh_semibent(capsys):
    rc, out, _ = run(capsys, "walsh", "--func", "1@3", "--m", "5")
    assert rc == 0
    assert "n_f = 16" in out
    assert "spectrum -8:6 0:16 8:10" in out
    assert "class semibent, amplitude 8" in out


def test_code_with_matching_expectation(capsys):
    rc, out, _ = run(capsys, "code", "--family", "hkm:1", "--expect", "thm-HKMcodes")
    assert rc == 0
    assert "[4,3,2] over GF(3)" in out
    assert "enumerator 1 + 12z^2 + 8z^3 + 6z^4" in out
    assert "griesmer meets" in out
    assert "expect thm-HKMcodes: pass" in out


def test_code_mismatch_exits_2_and_lists_diffs(capsys):
    rc, out, _ = run(capsys, "code", "--family", "maschietti:glynn2", "--m", "9",
                     "--expect", "thm-hyperovalDS")
    assert rc == 2
    assert "expect thm-hyperovalDS: fail" in out
    assert "A_112: enumerated 9, predicted 0" in out


def test_code_json_round_trips(capsys):
    rc, out, _ = run(capsys, "code", "--family", "hkm:1", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert json.dumps(payload["enumerator"], separators=(",", ":")) == (
        '{"p":3,"m":3,"n":4,"k":3,"weights":'
        '[{"w":0,"A":1},{"w":2,"A":12},{"w":3,"A":8},{"w":4,"A":6}]}')
    assert payload["d"] == 2 and payload["griesmer"] == "meets"
    assert payload["pless"] == {"first": True, "second": True, "third": True}


def test_unknown_family_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "code", "--family", "nosuch", "--p", "7")
    assert rc == 1
    assert "unknown family" in err


def test_bad_flag_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "construct", "--family", "paley", "--nope")
    assert rc == 1
    assert err


def test_missing_family_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "construct", "--p", "7")
    assert rc == 1


def test_precondition_failure_maps_to_1(capsys):
    # paley needs q = 3 (mod 4) for a skew set and q odd in general
    rc, _, err = run(capsys, "construct", "--family", "paley", "--p", "2", "--m", "4")
    assert rc == 1
    assert err


@pytest.mark.parametrize("extra", [(), ("--max-field-bits", "26")])
def test_field_above_table_cap_exits_1(extra):
    # 3^15 > 2^22: no flag value admits a field without exp/log tables
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dscodes.cli", "construct", "--family", "paley",
         "--p", "3", "--m", "15", *extra],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_export_gen_writes_file(tmp_path, capsys):
    dest = tmp_path / "g.txt"
    rc, out, _ = run(capsys, "export-gen", "--family", "paley", "--p", "3", "--m", "2",
                     "--out", str(dest))
    assert rc == 0
    assert dest.read_text() == "3 2 4\n2 1 0 0\n2 1 1 2\n"


def test_export_gen_stdout_default(capsys):
    rc, out, _ = run(capsys, "export-gen", "--family", "paley", "--p", "3", "--m", "2")
    assert rc == 0
    assert "3 2 4" in out.splitlines()[0]


def test_verify_paper_single_case(capsys):
    rc, out, _ = run(capsys, "verify-paper", "--case", "hkm-h1")
    assert rc == 0
    assert "1 passed, 0 failed, 0 skipped" in out


def test_verify_paper_unknown_case(capsys):
    rc, _, err = run(capsys, "verify-paper", "--case", "bogus")
    assert rc == 1
    assert "unknown case" in err


def test_verify_paper_json(capsys):
    rc, out, _ = run(capsys, "verify-paper", "--case", "skew-q7", "--json")
    assert rc == 0
    rows = json.loads(out)
    assert rows[0]["case"] == "skew-q7" and rows[0]["verdict"] == "pass"


def test_bool_family_forces_p2(capsys):
    rc, out, _ = run(capsys, "construct", "--family", "bool:1@3", "--m", "5", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["p"] == 2 and payload["size"] == 16


def test_qf_image_family(capsys):
    rc, out, _ = run(capsys, "code", "--family", "qf-image:1@4", "--p", "3", "--m", "3")
    assert rc == 0
    assert "[13,3,9] over GF(3)" in out
    assert "enumerator 1 + 26z^9" in out


def test_export_gen_unwritable_out_exits_1(tmp_path, capsys):
    dest = tmp_path / "missing" / "g.txt"
    rc, out, err = run(capsys, "export-gen", "--family", "paley", "--p", "7",
                       "--out", str(dest))
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and str(dest) in err
    assert not dest.exists()


@pytest.mark.parametrize("extra,cap", [
    (("--m", "30000000"), "2^22"),
    (("--m", "1000000"), "2^22"),
    (("--max-field-bits", "-1"), "2^-1"),
])
def test_field_cap_is_checked_before_the_field_size(capsys, extra, cap):
    rc, out, err = run(capsys, "construct", "--family", "paley", "--p", "3", *extra)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and f"field cap {cap}" in err


# p >= 131 has digits, traces and generator entries above the int8 range.

def test_paley_p131_m2_has_the_two_predicted_weights(capsys):
    rc, out, _ = run(capsys, "code", "--family", "paley", "--p", "131", "--m", "2",
                     "--expect", "thm-part1")
    assert rc == 0
    assert "enumerator 1 + 8580z^8450 + 8580z^8580" in out.splitlines()
    assert "expect thm-part1: pass" in out


def test_paley_p257_matches_thm_part1(capsys):
    rc, out, _ = run(capsys, "code", "--family", "paley", "--p", "257",
                     "--expect", "thm-part1")
    assert rc == 0
    assert "enumerator 1 + 256z^128" in out.splitlines()


def test_export_gen_p131_first_row_is_the_defining_set(capsys):
    # over GF(p), Tr(1 * d) = d, so row 0 of G lists D itself
    rc, out, _ = run(capsys, "construct", "--family", "paley", "--p", "131")
    assert rc == 0
    elements = out.splitlines()[1]
    rc, out, _ = run(capsys, "export-gen", "--family", "paley", "--p", "131")
    assert rc == 0
    header, row0 = out.splitlines()
    assert header == "131 1 65"
    assert row0 == elements

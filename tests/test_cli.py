import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dscodes import boolfn, cli, codes, designs, verify
from dscodes.cli import entry
from dscodes.errors import InvariantError, PreconditionFailedError
from dscodes.gf import Field, default_field

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    rc = entry(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_process(*argv, flags=()):
    """The CLI in a fresh interpreter started with the given flags."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-m", "dscodes.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_construct_prints_sorted_elements(capsys):
    rc, out, _ = run(capsys, "construct", "--family", "paley", "--p", "7")
    assert rc == 0
    assert out == "family paley over GF(7^1): 3 elements\n1 2 4\n"


@pytest.mark.parametrize("family,field", [
    ("paley", ("--p", "3", "--m", "7")),
    ("maschietti:glynn2", ("--m", "9")),
    ("hkm:2", ()),
])
def test_construct_builds_no_log_table(capsys, monkeypatch, family, field):
    fields = []

    def spy(F, elems):
        fields.append(F)
        return make_set(F, elems)

    make_set = designs.defining_set
    monkeypatch.setattr(designs, "defining_set", spy)
    rc, out, _ = run(capsys, "construct", "--family", family, *field)
    assert rc == 0 and out.startswith(f"family {family} over GF(")
    assert len(fields) == 1 and fields[0]._exp is not None and fields[0]._log is None


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
def test_construct_output_is_independent_of_print_chunk(capsys, monkeypatch, chunk):
    monkeypatch.setattr(cli, "PRINT_CHUNK", chunk)
    rc, out, _ = run(capsys, "construct", "--family", "paley", "--p", "7")
    assert rc == 0
    assert out == "family paley over GF(7^1): 3 elements\n1 2 4\n"


def test_construct_element_line_spans_print_chunks(capsys):
    # n = (3^11 - 1)/2 = 88573 elements: more than one print chunk
    F = default_field(3, 11)
    n = (F.q - 1) // 2
    assert n > cli.PRINT_CHUNK
    xs = np.arange(1, F.q)
    squares = sorted(set(F.mul(xs, xs).tolist()))
    rc, out, _ = run(capsys, "construct", "--family", "paley", "--p", "3", "--m", "11")
    assert rc == 0
    head, line, rest = out.split("\n")
    assert head == f"family paley over GF(3^11): {n} elements" and rest == ""
    tokens = line.split(" ")
    assert len(tokens) == n and [int(t) for t in tokens] == squares
    rc, out, _ = run(capsys, "construct", "--family", "paley", "--p", "3", "--m", "11",
                     "--dlog")
    assert rc == 0
    assert out.split("\n")[1:] == [" ".join(map(str, range(0, F.q - 1, 2))), ""]
    rc, out, _ = run(capsys, "construct", "--family", "paley", "--p", "3", "--m", "11",
                     "--json")
    assert rc == 0
    assert json.loads(out)["elements"] == [int(t) for t in tokens]


# digit-count and 4-digit-group boundaries, and the largest element index
_DECIMAL_EDGES = (0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 10001, 99999, 10**7 - 1,
                  10**7, 4194303, 10**8 - 1)


@given(st.lists(st.one_of(st.sampled_from(_DECIMAL_EDGES), st.integers(0, 10**8 - 1)),
                min_size=1, max_size=40),
       st.integers(1, 9))
@example([0], 1)
@example([4194303], 1 << 16)
@example(list(_DECIMAL_EDGES), 4)
def test_decimal_pieces_match_str_join(values, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "PRINT_CHUNK", chunk)
        pieces = list(cli.decimal_pieces(np.array(values, dtype=np.int64)))
    assert len(pieces) == -(-len(values) // chunk)
    assert "".join(pieces) == " ".join(map(str, values))


def test_decimal_pieces_uint8_rows_and_range():
    row = np.arange(256, dtype=np.uint8)
    assert "".join(cli.decimal_pieces(row)) == " ".join(map(str, range(256)))
    assert list(cli.decimal_pieces(np.zeros(0, dtype=np.int64))) == []
    for bad in (-1, 10**8):
        with pytest.raises(InvariantError, match="outside"):
            list(cli.decimal_pieces(np.array([5, bad], dtype=np.int64)))


def test_export_gen_rows_span_print_chunks(capsys):
    # n = (3^11 - 1)/2 = 88573 entries per row: more than one print chunk
    D = designs.paley_set(default_field(3, 11))
    assert len(D) > cli.PRINT_CHUNK
    rows = codes.generator_matrix(D)
    want = f"3 11 {len(D)}\n" + "".join(" ".join(str(int(v)) for v in row) + "\n"
                                      for row in rows)
    rc, out, _ = run(capsys, "export-gen", "--family", "paley", "--p", "3", "--m", "11")
    assert rc == 0
    assert out == want


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


# one code whose enumerator each claim predicts, e = 2 and e = 1 (p = 2) for thm-qfcodes
CLAIM_PASSES = [
    ("code --family paley --p 3 --m 4", "thm-part1"),
    ("code --family paley --p 3 --m 5", "thm-part2"),
    ("code --family qf-image:1@6 --p 3 --m 2", "thm-qfcodes"),
    ("code --family qf-image:1@3 --m 5", "thm-qfcodes"),
    ("code --family maschietti:segre --m 7", "thm-hyperovalDS"),
    ("code --family bool:1*u@3 --m 4", "thm-bentcodes"),
    ("code --family bool:1@3 --m 5", "thm-semibentcodes"),
    ("code --family bool:1@3 --m 5", "thm-abcodes"),
    ("code --family bool:1@3 --m 6", "thm-CodeQBFs"),
    ("code --family hkm:1", "thm-HKMcodes"),
    ("code --family maschietti:glynn2 --m 9", "glynn2-conjecture"),
]


@pytest.mark.parametrize("argv,claim", CLAIM_PASSES, ids=[f"{a} {c}" for a, c in CLAIM_PASSES])
def test_each_claim_passes_on_a_code_it_predicts(capsys, argv, claim):
    rc, out, err = run(capsys, *argv.split(), "--expect", claim)
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == f"expect {claim}: pass"


def test_every_listed_claim_and_no_other_id_gets_past_dispatch():
    assert set(codes.CLAIMS) == {c for _, c in CLAIM_PASSES}  # each has a passing run above
    inputs = {"p": 3, "m": 5, "n_f": 16, "r": 2, "e": 2, "h": 1}
    for claim in codes.CLAIMS:
        try:
            codes.predicted_enumerator(claim, **inputs)
        except PreconditionFailedError as exc:  # outside the claim's hypotheses
            assert not str(exc).startswith("known claim id"), claim
    with pytest.raises(PreconditionFailedError, match="^known claim id: thm-nope$"):
        codes.predicted_enumerator("thm-nope", **inputs)


# each mismatch run with every line it lists: the Glynn II code has five
# weights, not thm-hyperovalDS's three, and x^4 is 4-to-1, outside the e = 2
# that the qf-* cases check
MISMATCHES = [
    ("code --family maschietti:glynn2 --m 9 --expect thm-hyperovalDS", [
        "A_112: enumerated 9, predicted 0",
        "A_120: enumerated 108, predicted 136",
        "A_128: enumerated 285, predicted 255",
        "A_136: enumerated 108, predicted 120",
        "A_144: enumerated 1, predicted 0"]),
    ("code --family qf-image:1@4 --p 3 --m 4 --expect thm-qfcodes", [
        "A_12: enumerated 60, predicted 40",
        "A_15: enumerated 0, predicted 40",
        "A_18: enumerated 20, predicted 0"]),
    ("code --family qf-image:1@4 --p 3 --m 2 --expect thm-qfcodes", [
        "k: enumerated 1, predicted 2",
        "A_1: enumerated 0, predicted 4",
        "A_2: enumerated 2, predicted 4"]),
]


def test_code_mismatch_exits_2_and_lists_diffs(capsys):
    for argv, lines in MISMATCHES:
        rc, out, err = run(capsys, *argv.split())
        assert (rc, err) == (2, ""), argv
        claim = argv.split()[-1]
        assert out.splitlines()[5:] == [f"expect {claim}: fail"] + [f"  {ln}" for ln in lines]


@pytest.mark.parametrize("argv", [
    "code --family qf-image:1@10,-1*u@6,-1*u^2@2 --p 3 --m 5 --expect thm-qfcodes",
    "code --family bool:1@3 --m 19 --expect thm-CodeQBFs",
])
def test_a_family_function_is_tabulated_once_per_command(capsys, monkeypatch, argv):
    # the set and e are both read off one q-point table of f
    tables = []

    def spy(F, *rest):
        tables.append(F.q)
        return table_rows(F, *rest)

    table_rows = designs.table_rows
    monkeypatch.setattr(designs, "table_rows", spy)
    rc, out, _ = run(capsys, *argv.split())
    assert rc == 0 and out.endswith(": pass\n")
    assert len(tables) == 1


@pytest.mark.parametrize("argv", [
    "code --family paley --p 3 --m 9 --expect thm-nope",
    "code --family paley --p 3 --m 9 --expect thm-hyperovalDS",
    "code --family paley --p 3 --m 9 --expect thm-HKMcodes",
])
def test_code_refuses_a_claim_before_it_enumerates(capsys, monkeypatch, argv):
    # the prediction reads only D and the family, so a refusal costs no enumeration
    calls = []
    monkeypatch.setattr(codes, "weight_enumerator", lambda *args, **kw: calls.append(args))
    rc, out, err = run(capsys, *argv.split())
    assert rc == 1 and out == "" and err.startswith("error: ")
    assert calls == []


def test_code_expect_codeqbfs_runs_no_walsh_transform(capsys, monkeypatch):
    # the claim reads n_f = |D|, and f_hat(0) = q - 2 n_f, so no spectrum is needed
    calls = []
    monkeypatch.setattr(boolfn, "walsh_from_table", lambda *args: calls.append(args))
    rc, out, _ = run(capsys, *"code --family bool:1@3 --m 6 --expect thm-CodeQBFs".split())
    assert (rc, out.splitlines()[-1], calls) == (0, "expect thm-CodeQBFs: pass", [])


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
    proc = run_process("construct", "--family", "paley", "--p", "3", "--m", "15", *extra)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


FIELD_CONFLICTS = [
    ("walsh", "--p", "3", "--m", "5", "--func", "1@3"),
    ("code", "--family", "maschietti:segre", "--p", "3", "--m", "5"),
    ("code", "--family", "bool:1@3", "--p", "3", "--m", "5"),
    ("code", "--family", "hkm:1", "--p", "5", "--m", "7"),
]


@pytest.mark.parametrize("argv", FIELD_CONFLICTS, ids=["walsh", "maschietti", "bool", "hkm"])
def test_a_field_flag_the_family_fixes_otherwise_exits_1(capsys, monkeypatch, argv):
    def no_field(*args, **kwargs):
        raise AssertionError("built a field")

    monkeypatch.setattr(cli, "Field", no_field)  # refused before any field is built
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.startswith("error: --p ") and "conflicts with" in err


def test_field_flag_conflicts_exit_1_under_python_O():
    # the refusal is no assert statement: -O keeps it
    code = ("import sys\nfrom dscodes.cli import entry\n"
            f"sys.exit(sum(entry(list(a)) for a in {FIELD_CONFLICTS!r}))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == len(FIELD_CONFLICTS) and proc.stdout == ""
    assert proc.stderr.count("conflicts with") == len(FIELD_CONFLICTS)


# one refusal per kind of check, from a field flag to a claim's hypotheses and a
# work budget: each exits 1 with exactly this stderr and no stdout
REFUSALS = [
    ("construct --family paley --p 4", "characteristic 4 is not prime"),
    ("construct --family paley --p 3 --m 2 --modulus 1,0,1", "x^2 + 1 is not primitive over GF(3)"),
    ("construct --family paley --p 2 --m 3", "Paley sets need odd characteristic"),
    ("construct --family maschietti:segre --m 6", "hyperoval exponents need odd m"),
    ("construct --family maschietti:foo --m 5", "unknown hyperoval case 'foo'"),
    ("construct --family paley --p 3 --m 30", "GF(3^30) exceeds the field cap 2^22"),
    ("construct --family paley --p -5 --m 22", "characteristic -5 is not prime"),
    ("construct --family qf-image:0@2 --p 3 --m 2", "defining set is empty"),
    ("code --family qf-image:1@5 --p 3 --m 3 --expect thm-qfcodes",
     "exponent 5 is not of the form p^i+p^j"),
    ("code --family paley --p 3 --m 2 --expect thm-part2", "q = 3 (mod 4): q = 9"),
    ("code --family bool:0@3 --m 5", "defining set is empty"),
    ("code --family maschietti:singer --m 3 --expect thm-hyperovalDS", "m odd, m >= 5: m = 3"),
    ("code --family qf-image:1@3 --m 4 --expect thm-qfcodes", "integral multiplicity: 15/2"),
    ("code --family paley --p 3 --m 2 --modulus 1,1", "modulus must be monic of degree 2 (got (1, 1))"),
    ("code --family paley --p 3 --m 9 --max-work 10",
     "q*m*p^2 = 1594323 exceeds the work budget 10"),
    ("walsh --func 1@0 --m 5", "bad exponent '0'"),
    ("code --family paley --p 3 --m 3 --expect thm-nope", "unknown claim id 'thm-nope'"),
    ("code --family paley --p 3 --m 3 --expect thm-qfcodes",
     "--expect thm-qfcodes needs a qf-image family"),
    ("code --family paley --p 3 --m 3 --expect thm-CodeQBFs",
     "--expect thm-CodeQBFs needs a bool family"),
    ("code --family paley --p 3 --m 3 --expect thm-HKMcodes",
     "--expect thm-HKMcodes needs an hkm family"),
    ("code --family qf-image:1@2,1@4 --p 3 --m 2 --expect thm-qfcodes",
     "the map is not e-to-1 on nonzero elements"),
    ("code --family bool:1@3 --m 5 --expect thm-qfcodes",
     "--expect thm-qfcodes needs a qf-image family"),
    ("code --family qf-image:1@5 --m 6 --expect thm-CodeQBFs",
     "--expect thm-CodeQBFs needs a bool family"),
    ("construct --family hkm:x", "hkm index must be a positive integer, got 'x'"),
    ("construct --family hkm:0", "hkm index must be a positive integer, got '0'"),
    ("code --family bool:1@3 --m 6 --expect thm-bentcodes", "f_hat(0) in {+-2^(m/2)}: 16"),
    ("code --family paley --p 3 --m 5 --expect thm-hyperovalDS", "p = 2: p = 3"),
    ("code --family paley --p 3 --m 4 --expect thm-bentcodes", "p = 2: p = 3"),
    ("code --family paley --p 3 --m 9 --expect glynn2-conjecture", "p = 2: p = 3"),
]


@pytest.mark.parametrize("argv,message", REFUSALS, ids=[a for a, _ in REFUSALS])
def test_each_refusal_exits_1_with_its_message(capsys, argv, message):
    assert run(capsys, *argv.split()) == (1, "", f"error: {message}\n")


_RUN_REFUSALS = """
import contextlib, io, json, sys
from dscodes.cli import entry

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = entry(argv.split())
    results.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_each_refusal_is_the_same_under_python_O():
    # every refusal is a plain raise, so -O keeps each one and its message
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _RUN_REFUSALS,
                           json.dumps([a for a, _ in REFUSALS])],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[1, "", f"error: {message}\n"] for _, message in REFUSALS]


# the family-and-claim verify cases: rows (spec, p, m, claim, check) that
# verify._row_case runs; the spec of a Gold instance is a callable
VERIFY_ROWS = {cid: fn.args for cid, fn in verify.CASES.items()
               if getattr(fn, "func", None) is verify._row_case}


def test_the_family_and_claim_cases_are_rows():
    prefixes = ("skew-", "qr-", "qf-", "segre-", "glynn1-", "glynn2-", "bent-", "semibent-",
                "ab-", "hkm-h")
    assert sorted(VERIFY_ROWS) == sorted(c for c in verify.CASES if c.startswith(prefixes))
    assert len(VERIFY_ROWS) == 32


@pytest.mark.parametrize("cid", sorted(VERIFY_ROWS))
def test_each_verify_row_reruns_from_the_cli(capsys, cid):
    # `code --family spec [--p P] [--m M] --expect claim` gives the row's code
    # and passes its claim; a row without a claim runs with --expect none
    spec, p, m, claim, *_ = VERIFY_ROWS[cid]
    spec = spec() if callable(spec) else spec
    flags = [a for flag, v in (("--p", p), ("--m", m)) if v is not None for a in (flag, str(v))]
    rc, out, err = run(capsys, "code", "--family", spec, *flags, "--expect", claim or "none",
                       "--json")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    E = verify._family_enumerator(spec, p, m)[2]
    got = doc["enumerator"]
    assert (got["n"], got["k"], {w["w"]: w["A"] for w in got["weights"]}) == (E.n, E.k, E.counts)
    assert doc.get("expect", {}).get("verdict") == ("pass" if claim else None)


BENCHMARK_DIGESTS = json.loads(
    (Path(SRC).parent / "perfbench" / "expected.json").read_text(encoding="utf-8"))["digests"]


def test_every_benchmark_op_prints_its_recorded_stdout(capsys):
    # the benchmark fails an op whose stdout hash differs from its record, so
    # these 20 runs pin the output contract of construct, walsh and code
    assert len(BENCHMARK_DIGESTS) == 20
    got = {}
    for argv in BENCHMARK_DIGESTS:
        rc, out, _ = run(capsys, *argv.split())
        got[argv] = (rc, hashlib.sha256(out.encode()).hexdigest())
    assert got == {argv: (0, digest) for argv, digest in BENCHMARK_DIGESTS.items()}


@pytest.mark.parametrize("modulus", ["1,2,0,1", "1,0,2,1"])
def test_hkm_takes_the_modulus_flag(capsys, modulus):
    # 1,2,0,1 is GF(27)'s default modulus; 1,0,2,1 gives another primitive element
    rc, out, _ = run(capsys, "construct", "--family", "hkm:1", "--modulus", modulus)
    assert rc == 0
    F = Field(3, 3, modulus=tuple(int(c) for c in modulus.split(",")))
    assert out.splitlines()[1] == " ".join(map(str, designs.hkm_set(F).elems.tolist()))
    rc, _, err = run(capsys, "construct", "--family", "hkm:2", "--max-field-bits", "5")
    assert rc == 1 and err == "error: GF(3^6) exceeds the field cap 2^5\n"


@pytest.mark.parametrize("argv", [
    ("code", "--family", "paley", "--p", "3", "--m", "5", "--expect", "thm-part2"),
    ("construct", "--family", "maschietti:segre", "--m", "7"),
])
def test_output_is_the_same_under_python_O(argv):
    # -O strips assert statements; every invariant must survive it
    plain, optimized = run_process(*argv), run_process(*argv, flags=("-O",))
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout and plain.stdout


def test_an_over_budget_transform_yields_to_the_direct_route_under_python_O():
    # GF(13^3): the transform's q*m*p^2 = 1 113 879 is over this budget, the direct
    # route's n*(q-1)/(p-1) = 366*183 = 66 978 is within it and is the one that runs
    argv = ("code", "--family", "qf-image:1@6", "--p", "13", "--m", "3")
    budgeted = run_process(*argv, "--max-work", "900000", flags=("-O",))
    plain = run_process(*argv)
    assert budgeted.returncode == plain.returncode == 0
    assert budgeted.stdout == plain.stdout and plain.stdout


def test_verify_paper_is_the_same_under_python_O(capsys):
    # every case's checks are plain comparisons, none an assert statement
    def reports(out):
        doc = json.loads(out)
        for r in doc:
            r.pop("seconds")
        return doc

    rc, out, _ = run(capsys, "verify-paper", "--json")
    optimized = run_process("verify-paper", "--json", flags=("-O",))
    assert rc == optimized.returncode == 0
    plain = reports(out)
    assert len(plain) == len(verify.CASES) and reports(optimized.stdout) == plain


@pytest.mark.parametrize("flags", [(), ("-O",), None], ids=["plain", "O", "in-process"])
@pytest.mark.parametrize("argv", [
    # k = 2 078 760: about 4.3e12 differences
    ("construct", "--family", "paley", "--p", "2039", "--m", "2", "--dlog", "--classify"),
    ("analyze-design", "--family", "paley", "--p", "3", "--m", "12"),
    ("analyze-design", "--family", "paley", "--p", "3", "--m", "12", "--group", "cyclic"),
], ids=["construct-2039^2-dlog", "analyze-3^12", "analyze-3^12-cyclic"])
def test_classification_past_the_work_budget_is_refused_at_once(capsys, monkeypatch, argv, flags):
    if flags is None:
        # k = len(D) is known before the dlog residues, so they are never built
        def residues(D, v=None):
            raise AssertionError("built the dlog residues past the budget")

        monkeypatch.setattr(designs, "to_cyclic_residues", residues)
        start = time.process_time()
        rc, out, err = run(capsys, *argv)
        cpu = time.process_time() - start
    else:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = run_process(*argv, flags=flags)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        rc, out, err = proc.returncode, proc.stdout, proc.stderr
        # CPU seconds of the child
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    assert rc == 1 and out == ""
    assert err.startswith("error: k*k = ") and "work budget" in err
    assert cpu < 1.0  # counting the differences would take hours


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


def test_verify_paper_reports_a_crashing_case_and_carries_on(capsys, monkeypatch):
    def crash():
        raise RuntimeError("boom")

    monkeypatch.setitem(verify.CASES, "hkm-h1", crash)
    rc, out, _ = run(capsys, "verify-paper", "--case", "hkm-h1", "--case", "skew-q7")
    assert rc == 2
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["hkm-h1", "error"]
    assert lines[1] == "    expected: no exception"
    assert lines[2] == "    actual:   RuntimeError: boom"
    assert lines[3].startswith("    detail:   raised at test_cli.py:")
    assert lines[4].split()[:2] == ["skew-q7", "pass"]
    assert lines[-1] == "1 passed, 0 failed, 0 skipped, 1 errors"
    rc, out, _ = run(capsys, "verify-paper", "--case", "hkm-h1", "--json")
    assert rc == 2
    assert json.loads(out)[0]["verdict"] == "error"


def test_verify_paper_unknown_case(capsys):
    rc, _, err = run(capsys, "verify-paper", "--case", "bogus")
    assert rc == 1
    assert "unknown case" in err


def test_verify_paper_json(capsys):
    rc, out, _ = run(capsys, "verify-paper", "--case", "skew-q7", "--json")
    assert rc == 0
    rows = json.loads(out)
    assert rows[0]["case"] == "skew-q7" and rows[0]["verdict"] == "pass"


def test_verify_paper_ab_cases_json(capsys):
    # x^3 permutes GF(2^m) for odd m, so Tr(x^3) is balanced: lambda(1,0) = 0, n_f = 2^(m-1)
    want = []
    for m in (5, 7):
        n_f = 1 << (m - 1)
        P = codes.predicted_enumerator("thm-abcodes", m=m, n_f=n_f)
        assert P.k == m  # no predicted zero weight, so no kernel
        E = codes.WeightEnumerator(2, m, n_f, m, P.counts)
        want.append({
            "case": f"ab-m{m}", "verdict": "pass",
            "expected": f"almost bent, n_f in [{n_f}], n={n_f} k={m} per thm-abcodes",
            "actual": (f"almost_bent=True, lambda(1,0)=0, n_f={n_f}, "
                       f"[{n_f},{m},{codes.minimum_distance(E)}] {E.poly_str()}"),
            "detail": ""})
    rc, out, _ = run(capsys, "verify-paper", "--case", "ab-m5", "--case", "ab-m7", "--json")
    assert rc == 0
    rows = json.loads(out)
    for row in rows:
        del row["seconds"]
    assert rows == want


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


@pytest.mark.parametrize("family, p, m, claim", [
    ("maschietti:segre", 2, 17, "thm-hyperovalDS"),
    ("paley", 3, 11, "thm-part2"),
])
def test_code_at_sizes_the_transform_made_practical(capsys, family, p, m, claim):
    rc, out, _ = run(capsys, "code", "--family", family, "--p", str(p), "--m", str(m),
                     "--expect", claim)
    assert rc == 0
    kw = {"m": m} if p == 2 else {"p": p, "m": m}
    want = codes.predicted_enumerator(claim, **kw).counts
    poly = codes.WeightEnumerator(p, m, 0, m, want).poly_str()
    assert f"enumerator {poly}" in out.splitlines()
    assert f"expect {claim}: pass" in out

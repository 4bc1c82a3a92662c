"""Benchmark workloads: the dscodes CLI invocations each one runs and how each is checked.

Every op is checked against its closed form (exit code 0 with a passing
``--expect`` verdict, the Walsh class line, or the set size line) and, when
expected.json holds a digest for its exact argument list, against the SHA-256
of its stdout recorded at the commit that introduced the benchmark.
``verify-paper`` prints per-case seconds, so it is compared on its
(case, verdict) pairs instead; each case counts as one op.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from math import gcd

WORKLOADS = ("enum-ladder", "big-field", "verify-paper")

HYPEROVAL_CASES = ("segre", "glynn1")
WALSH_M = 19
# Gold exponents 2^i+1 with gcd(i, m) = 1: all give a semibent Tr(x^(2^i+1)).
GOLD_I = tuple(i for i in range(1, (WALSH_M + 1) // 2) if gcd(i, WALSH_M) == 1)


@dataclass(frozen=True)
class Op:
    argv: tuple
    kind: str  # code | construct | walsh | verify
    claim: str = ""  # code: the --expect claim
    size: int = 0  # construct: closed-form set size
    m: int = 0  # walsh: extension degree

    @property
    def key(self):
        return " ".join(self.argv)


def code_op(family, field, claim):
    return Op(("code", "--family", family, *field, "--expect", claim), "code", claim=claim)


def enum_ladder(seed):
    """Six enumerations; seed bits 0 and 1 pick Segre or Glynn I for the hyperoval rungs."""
    ops = [code_op(f"maschietti:{HYPEROVAL_CASES[(seed >> j) & 1]}", ("--m", str(m)),
                   "thm-hyperovalDS")
           for j, m in enumerate((13, 15))]
    ops += [code_op("paley", ("--p", "3", "--m", "9"), "thm-part2"),
            code_op("paley", ("--p", "5", "--m", "6"), "thm-part1"),
            code_op("paley", ("--p", "7", "--m", "5"), "thm-part2"),
            code_op("hkm:3", (), "thm-HKMcodes")]
    return ops


def big_field(seed):
    """Two large set constructions and one Walsh spectrum; seed picks the Gold exponent."""
    e = 2 ** GOLD_I[seed % len(GOLD_I)] + 1
    return [Op(("construct", "--family", "paley", "--p", "3", "--m", "13"),
               "construct", size=(3**13 - 1) // 2),
            Op(("construct", "--family", "maschietti:glynn2", "--m", "21"),
               "construct", size=2**20 - 1),
            Op(("walsh", "--func", f"1@{e}", "--m", str(WALSH_M)), "walsh", m=WALSH_M)]


def verify_paper(_seed):
    """The whole registry; its inputs are fixed, so the seed is ignored."""
    return [Op(("verify-paper",), "verify")]


def ops_for(workload, seed):
    return {"enum-ladder": enum_ladder, "big-field": big_field,
            "verify-paper": verify_paper}[workload](seed)


def tiny_op():
    """Segre GF(2^5): the op the self-checks run."""
    return code_op("maschietti:segre", ("--m", "5"), "thm-hyperovalDS")


_CONSTRUCT_HEAD = re.compile(rb"^family \S+ over GF\((\d+)\^(\d+)\): (\d+) elements$")
_CASE_LINE = re.compile(r"^(\S+)\s+(pass|fail|skipped)\s+[0-9.]+s$")


def check(op, rc, out, expected):
    """(ops attempted, ops failed, problems) for one finished invocation."""
    if op.kind == "verify":
        return _check_verify(rc, out, expected["verify_paper"])
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    lines = out.decode("utf-8", "replace").splitlines()
    if op.kind == "code":
        if f"expect {op.claim}: pass" not in lines:
            problems.append(f"no passing {op.claim} verdict")
    elif op.kind == "construct":
        head, _, rest = out.partition(b"\n")
        size = _CONSTRUCT_HEAD.match(head)
        if not size or int(size.group(3)) != op.size:
            problems.append(f"size line is not {op.size} elements")
        elif len(rest.partition(b"\n")[0].split()) != op.size:
            problems.append("element count differs from the size line")
    elif op.kind == "walsh":
        amp = 2 ** ((op.m + 1) // 2)
        if f"class semibent, amplitude {amp}" not in lines:
            problems.append(f"no 'class semibent, amplitude {amp}' line")
    digest = expected["digests"].get(op.key)
    if digest is not None and hashlib.sha256(out).hexdigest() != digest:
        problems.append("stdout digest differs from the recorded one")
    return 1, int(bool(problems)), [f"{op.key}: {p}" for p in problems]


def _check_verify(rc, out, want):
    got = {}
    for line in out.decode("utf-8", "replace").splitlines():
        m = _CASE_LINE.match(line)
        if m:
            got[m.group(1)] = m.group(2)
    problems = [f"verify-paper {case}: {got.get(case, 'missing')}, recorded {verdict}"
                for case, verdict in sorted(want.items()) if got.get(case) != verdict]
    problems += [f"verify-paper {case}: not in the recorded registry"
                 for case in sorted(set(got) - set(want))]
    failed = sum(got.get(case) != verdict for case, verdict in want.items())
    if rc != 0 and not problems:
        problems.append(f"verify-paper: exit code {rc}")
    return len(want), max(failed, int(bool(problems))), problems

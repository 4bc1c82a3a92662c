"""Command-line front end.

Exit codes: 0 success, 1 usage/input error, 2 verification mismatch (including
a verify-paper case that raised an unexpected exception).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

# OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, and starts
# that many threads less one, which spin through the import and then sleep.
# dscodes calls no BLAS routine (tests/test_invariants.py::
# test_package_has_no_floating_point bans float dtypes, fft and linalg, and
# integer @ runs numpy's own loops), so the CLI loads numpy with one thread
# and then puts the caller's value back.  Importing a library module leaves
# the variable alone.
_caller_blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _caller_blas_threads is None:
        del os.environ["OPENBLAS_NUM_THREADS"]
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = _caller_blas_threads
del _caller_blas_threads

# each command imports the modules it runs: construct and analyze-design need
# only designs and gf, walsh adds boolfn, code and export-gen add codes (and
# boolfn for the claims that rank a form), and verify-paper adds verify (the
# module docstring is the --help description)
from . import designs
from .designs import AdditiveGroup, CyclicGroup
from .errors import InvariantError, ToolkitError
from .gf import MAX_FIELD_BITS, Field, parse_modulus


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the CI contract reserves 2 for
    # verification mismatches, so route parse errors through exit 1, as a
    # refusal whose message (an f-string, like every refusal's) is argparse's.
    def error(self, message):
        raise ToolkitError(f"{message}")


def _add_field_flags(sp):
    # None lets the family choose: walsh, maschietti and bool fix p = 2, hkm:H
    # fixes GF(3^(3H)), and the rest default to p = 2, m = 1
    sp.add_argument("--p", type=int, default=None, help="characteristic")
    sp.add_argument("--m", type=int, default=None, help="extension degree")
    sp.add_argument("--modulus", default=None,
                    help="field modulus as c0,c1,...,cm (constant first)")
    sp.add_argument("--max-field-bits", type=int, default=MAX_FIELD_BITS,
                    dest="max_field_bits",
                    help=f"refuse fields larger than 2^BITS; can only lower the "
                         f"2^{MAX_FIELD_BITS} exp/log table cap")


def _field(args, what, p=None, m=None):
    """GF(p^m) from the field flags; a flag that disagrees with a p or m that
    `what` fixes is refused before the field is built."""
    for flag, fixed in (("p", p), ("m", m)):
        given = getattr(args, flag)
        if fixed is not None and given is not None and given != fixed:
            raise ToolkitError(f"--{flag} {given} conflicts with {what}, "
                               f"which fixes {flag} = {fixed}")
    mod = parse_modulus(args.modulus) if args.modulus else None
    return Field(p if p is not None else 2 if args.p is None else args.p,
                 m if m is not None else 1 if args.m is None else args.m,
                 mod, max_bits=args.max_field_bits)


def _resolve_family(args):
    """Build the defining set named by --family; returns (set, context), where
    context maps "qf-image" or "bool" to the family's function and its q-point
    table, and "h" to hkm's h."""
    spec = args.family
    name, _, rest = spec.partition(":")
    if name == "paley":
        return designs.paley_set(_field(args, spec)), {}
    if name in ("qf-image", "bool"):
        F = _field(args, spec, p=2 if name == "bool" else None)
        f = designs.parse_func_spec(F, rest)
        table = f.table(F)
        build = designs.image_set if name == "qf-image" else designs.boolean_support
        return build(F, table), {name: (f, table)}
    if name == "maschietti":
        return designs.maschietti_set(_field(args, spec, p=2), rest), {}
    if name == "hkm":
        if not rest.isdecimal() or int(rest) < 1:
            raise ToolkitError(f"hkm index must be a positive integer, got {rest!r}")
        h = int(rest)
        return designs.hkm_set(_field(args, spec, p=3, m=3 * h)), {"h": h}
    raise ToolkitError(f"unknown family {spec!r}")


def _design_str(cls):
    if isinstance(cls, designs.DifferenceSet):
        return f"difference set (v={cls.v}, k={cls.k}, lam={cls.lam})"
    if isinstance(cls, designs.AlmostDifferenceSet):
        return f"almost difference set (v={cls.v}, k={cls.k}, lam={cls.lam}, t={cls.t})"
    return f"irregular (v={cls.v}, k={cls.k}, spectrum={cls.spectrum})"


def _emit(doc):
    print(json.dumps(doc, separators=(",", ":")))


# values formatted per piece: bounds the buffers alive at once
PRINT_CHUNK = 1 << 16
DECIMAL_LIMIT = 10**8  # every element index is below q <= 2^25 = 33554432 (8 digits)
# ASCII of the groups 0000..9999, four bytes read as one uint32 per group
_GROUP_DIGITS = (np.arange(10**4, dtype=np.int16)[:, None]
                 // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
                 + ord("0")).astype(np.uint8)
_GROUP_WORD = _GROUP_DIGITS.view(np.uint32).ravel()
# leading zeros to drop: all four of a zero high group, at most three of the low one
_HI_ZEROS = np.argmax(_GROUP_DIGITS != ord("0"), axis=1).astype(np.uint8)
_HI_ZEROS[0] = 4
_LO_ZEROS = 4 + np.minimum(_HI_ZEROS, 3)
_SPACES = np.frombuffer(b"    ", dtype=np.uint32)[0]
# row s keeps bytes s..8 of the 12-byte record "hi group, lo group, space, pad"
_KEEP = np.arange(12) >= np.arange(9)[:, None]
_KEEP[:, 9:] = False


def decimal_pieces(values):
    """Yield the space-separated decimal line of a 1-D integer array in pieces.

    Each PRINT_CHUNK slice is split as v = hi*10^4 + lo; both halves gather
    their four digits from a table, and a mask by the digit count drops the
    leading zeros.  Only integer arithmetic is used.
    """
    values = np.asarray(values)
    for lo in range(0, values.size, PRINT_CHUNK):
        v = values[lo : lo + PRINT_CHUNK].astype(np.int64)
        if v.min() < 0 or v.max() >= DECIMAL_LIMIT:
            raise InvariantError(f"cannot print values outside [0, {DECIMAL_LIMIT})")
        hi, low = np.divmod(v, 10**4)
        rec = np.empty((v.size, 3), dtype=np.uint32)
        rec[:, 0] = _GROUP_WORD[hi]
        rec[:, 1] = _GROUP_WORD[low]
        rec[:, 2] = _SPACES
        zeros = np.where(hi > 0, _HI_ZEROS[hi], _LO_ZEROS[low])
        text = rec.view(np.uint8).reshape(-1, 12)[np.take(_KEEP, zeros, axis=0)]
        if lo + PRINT_CHUNK >= values.size:
            text = text[:-1]  # no space after the last value
        yield text.tobytes().decode("ascii")


def _write_elements(out, elems):
    """One line of space-separated integers, written to out a piece at a time."""
    for piece in decimal_pieces(elems):
        out.write(piece)
    out.write("\n")


def _classified(D, cyclic, classify=True):
    """D in the group a command names, and its class there (None unless classify).

    cyclic reads D as dlog residues in Z_(q-1), otherwise as elements of
    (GF(q), +).  The work bound is checked before the residues are computed:
    they keep k = len(D).
    """
    if classify:
        designs.check_classify_work(len(D))
    if cyclic:
        elems, group = designs.to_cyclic_residues(D), CyclicGroup(D.field.q - 1)
    else:
        elems, group = D.elems, AdditiveGroup(D.field)
    return elems, designs.classify_design(group, elems) if classify else None


def cmd_construct(args):
    D, _ = _resolve_family(args)
    F = D.field
    elems, cls = _classified(D, args.dlog, args.classify)
    if args.json:
        doc = {"family": args.family, "p": F.p, "m": F.m,
               "size": elems.size, "elements": elems.tolist()}
        if cls is not None:
            doc["classification"] = _design_str(cls)
        _emit(doc)
        return 0
    kind = "dlog residues" if args.dlog else "elements"
    print(f"family {args.family} over GF({F.p}^{F.m}): {elems.size} {kind}")
    _write_elements(sys.stdout, elems)
    if cls is not None:
        print(_design_str(cls))
    return 0


def cmd_analyze_design(args):
    D, _ = _resolve_family(args)
    _, cls = _classified(D, args.group == "cyclic")
    if args.json:
        doc = {"family": args.family, "group": args.group,
               "v": cls.v, "k": cls.k, "classification": _design_str(cls)}
        _emit(doc)
        return 0
    print(f"family {args.family}, {args.group} group: {_design_str(cls)}")
    return 0


def cmd_walsh(args):
    from . import boolfn

    F = _field(args, "walsh", p=2)
    f = designs.parse_func_spec(F, args.func)
    s = boolfn.walsh_transform(F, f)
    cls = boolfn.classify_spectrum(s)
    hist = sorted(s.histogram().items())
    if args.json:
        _emit({"m": F.m, "func": args.func, "n_f": s.n_f,
               "histogram": [[v, c] for v, c in hist],
               "class": cls.variant, "amplitude": cls.amplitude})
        return 0
    print(f"func {args.func} on GF(2^{F.m}): n_f = {s.n_f}")
    print("spectrum " + " ".join(f"{v}:{c}" for v, c in hist))
    print(f"class {cls.variant}" + (f", amplitude {cls.amplitude}" if cls.amplitude else ""))
    return 0


def _prediction_for(claim, D, ctx):
    """codes.predicted_enumerator for a claim id, with every input it may read.

    p, m, n_f = |D| and the hkm index go to every claim; e and r are
    computed from the family's function for the claims that read them.
    """
    from . import codes

    if claim not in codes.CLAIMS:
        raise ToolkitError(f"unknown claim id {claim!r}")
    F = D.field
    kw = {"p": F.p, "m": F.m, "n_f": len(D), "h": ctx.get("h")}
    if claim in ("thm-qfcodes", "thm-CodeQBFs"):
        family = "qf-image" if claim == "thm-qfcodes" else "bool"
        if family not in ctx:
            raise ToolkitError(f"--expect {claim} needs a {family} family")
        f, table = ctx[family]
        from . import boolfn

        if claim == "thm-qfcodes":
            kw["e"] = designs.eto1_check(table)
            if kw["e"] is None:
                raise ToolkitError("the map is not e-to-1 on nonzero elements")
        # thm-CodeQBFs ranks Tr(f), thm-qfcodes the GF(q)-valued f
        kw["r"] = boolfn.quadratic_rank(F, f, traced=claim == "thm-CodeQBFs")
    elif claim == "thm-HKMcodes" and kw["h"] is None:
        raise ToolkitError(f"--expect {claim} needs an hkm family")
    return codes.predicted_enumerator(claim, **kw)


def cmd_code(args):
    from . import codes

    D, ctx = _resolve_family(args)
    # a prediction needs only D and ctx, so a refused claim costs no enumeration
    pred = _prediction_for(args.expect, D, ctx) if args.expect and args.expect != "none" else None
    max_work = codes.DEFAULT_MAX_WORK if args.max_work is None else args.max_work
    E = codes.weight_enumerator(D, max_work=max_work)
    d = codes.minimum_distance(E)
    gries = codes.griesmer_check(E.n, E.k, d, E.p)
    W = codes.dual_distance_witness(D)
    pless = codes.pless_moment_check(E, W)
    rep = None if pred is None else codes.compare_prediction(E, pred)
    if args.json:
        doc = {"family": args.family,
               "enumerator": {"p": E.p, "m": E.m, "n": E.n, "k": E.k,
                              "weights": [{"w": w, "A": E.counts[w]}
                                          for w in sorted(E.counts)]},
               "d": d, "griesmer": gries,
               "dual_ge2": W.at_least_2, "dual_ge3": W.at_least_3,
               "pless": {"first": pless.first, "second": pless.second,
                         "third": pless.third}}
        if rep is not None:
            doc["expect"] = {"claim": args.expect,
                             "verdict": "pass" if rep.ok else "fail",
                             "mismatches": list(rep.mismatches)}
        _emit(doc)
    else:
        print(f"family {args.family}: [{E.n},{E.k},{d}] over GF({E.p})")
        print(f"enumerator {E.poly_str()}")
        print(f"griesmer {gries}")
        print(f"dual distance >= 2: {W.at_least_2}, >= 3: {W.at_least_3}")
        print(f"pless first={pless.first} second={pless.second} third={pless.third}")
        if rep is not None:
            print(f"expect {args.expect}: {'pass' if rep.ok else 'fail'}")
            for msg in rep.mismatches:
                print(f"  {msg}")
    if rep is not None and not rep.ok:
        return 2
    return 0


def cmd_export_gen(args):
    from . import codes

    D, _ = _resolve_family(args)
    F = D.field
    rows = codes.generator_matrix(D)
    # "p m n", then one line per generator row
    dest = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with dest as out:
        out.write(f"{F.p} {F.m} {len(D)}\n")
        for row in rows:
            _write_elements(out, row)
    return 0


def cmd_verify_paper(args):
    from . import verify

    wanted = args.case or None
    if wanted:
        unknown = [c for c in wanted if c not in verify.CASES]
        if unknown:
            raise ToolkitError(f"unknown case ids: {', '.join(unknown)}")
    reports = verify.run_cases(wanted)
    if args.json:
        _emit([{"case": r.case_id, "verdict": r.verdict,
                "expected": r.expected, "actual": r.actual,
                "detail": r.detail, "seconds": round(r.seconds, 3)}
               for r in reports])
    else:
        for r in reports:
            print(f"{r.case_id:<28} {r.verdict:<7} {r.seconds:8.3f}s")
            if r.verdict in ("fail", "error"):
                print(f"    expected: {r.expected}")
                print(f"    actual:   {r.actual}")
                if r.detail:
                    print(f"    detail:   {r.detail}")
        counts = {"pass": 0, "fail": 0, "error": 0}
        for r in reports:
            counts[r.verdict] += 1
        errors = f", {counts['error']} errors" if counts["error"] else ""
        # no case is skipped, but ", 0 skipped" is part of the summary's stdout contract
        print(f"{counts['pass']} passed, {counts['fail']} failed, 0 skipped{errors}")
    return 0 if all(r.verdict == "pass" for r in reports) else 2


def build_parser():
    parser = _Parser(prog="dscodes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="build a defining set")
    _add_field_flags(sp)
    sp.add_argument("--family", required=True)
    sp.add_argument("--dlog", action="store_true", help="print dlog residues")
    sp.add_argument("--classify", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("analyze-design", help="classify difference behavior")
    _add_field_flags(sp)
    sp.add_argument("--family", required=True)
    sp.add_argument("--group", choices=("additive", "cyclic"), default="additive")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_analyze_design)

    sp = sub.add_parser("walsh", help="spectrum of a Boolean function")
    _add_field_flags(sp)
    sp.add_argument("--func", required=True, help="terms c@e, comma separated")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_walsh)

    sp = sub.add_parser("code", help="enumerate a defining-set code")
    _add_field_flags(sp)
    sp.add_argument("--family", required=True)
    sp.add_argument("--expect", default="none", help="claim id to compare against")
    # None stands for codes.DEFAULT_MAX_WORK, which cmd_code reads: the
    # parser is built without importing codes
    sp.add_argument("--max-work", type=int, default=None, dest="max_work",
                    help="refuse an enumeration whose cheaper route costs more "
                         "operations: q*m*p^2 for the transform, n*(q-1)/(p-1) "
                         "for the direct route's table lookups")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_code)

    sp = sub.add_parser("export-gen", help="print the generator matrix")
    _add_field_flags(sp)
    sp.add_argument("--family", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_export_gen)

    sp = sub.add_parser("verify-paper", help="run the verification case suite")
    sp.add_argument("--case", action="append", help="run only this case id")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_verify_paper)

    return parser


def entry(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ToolkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entry())

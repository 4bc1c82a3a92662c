"""Command-line front end.

Exit codes: 0 success, 1 usage/input error, 2 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import boolfn, codes, designs, verify
from .designs import AdditiveGroup, CyclicGroup
from .errors import ToolkitError
from .gf import MAX_FIELD_BITS, Field, parse_modulus


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the CI contract reserves 2 for
    # verification mismatches, so route parse errors through exit 1.
    def error(self, message):
        raise UsageError(message)


def _add_field_flags(sp):
    sp.add_argument("--p", type=int, default=2, help="characteristic")
    sp.add_argument("--m", type=int, default=1, help="extension degree")
    sp.add_argument("--modulus", default=None,
                    help="field modulus as c0,c1,...,cm (constant first)")
    sp.add_argument("--max-field-bits", type=int, default=MAX_FIELD_BITS,
                    dest="max_field_bits",
                    help=f"refuse fields larger than 2^BITS; can only lower the "
                         f"2^{MAX_FIELD_BITS} exp/log table cap")


def _field(args, p=None, m=None):
    mod = parse_modulus(args.modulus) if args.modulus else None
    return Field(p if p is not None else args.p,
                 m if m is not None else args.m,
                 mod, max_bits=args.max_field_bits)


def _resolve_family(args):
    """Build the defining set named by --family; returns (set, context)."""
    spec = args.family
    name, _, rest = spec.partition(":")
    if name == "paley":
        return designs.paley_set(_field(args)), {}
    if name == "qf-image":
        F = _field(args)
        f = designs.parse_func_spec(F, rest)
        return designs.image_set(F, f), {"func": f}
    if name == "maschietti":
        return designs.maschietti_set(_field(args, p=2), rest), {}
    if name == "hkm":
        h = int(rest)
        return designs.hkm_set(h, max_bits=args.max_field_bits), {"h": h}
    if name == "bool":
        F = _field(args, p=2)
        f = designs.parse_func_spec(F, rest, to_prime_subfield=True)
        return designs.boolean_support(F, f), {"func": f}
    raise UsageError(f"unknown family {spec!r}")


def _design_str(cls):
    if isinstance(cls, designs.DifferenceSet):
        return f"difference set (v={cls.v}, k={cls.k}, lam={cls.lam})"
    if isinstance(cls, designs.AlmostDifferenceSet):
        return f"almost difference set (v={cls.v}, k={cls.k}, lam={cls.lam}, t={cls.t})"
    return f"irregular (v={cls.v}, k={cls.k}, spectrum={cls.spectrum})"


def _emit(doc):
    print(json.dumps(doc, separators=(",", ":")))


def cmd_construct(args):
    D, _ = _resolve_family(args)
    F = D.field
    elems = designs.to_cyclic_residues(D) if args.dlog else list(D.elems)
    doc = {"family": args.family, "p": F.p, "m": F.m,
           "size": len(elems), "elements": elems}
    cls = None
    if args.classify:
        if args.dlog:
            cls = designs.classify_design(CyclicGroup(F.q - 1), elems)
        else:
            cls = designs.classify_design(AdditiveGroup(F), elems)
        doc["classification"] = _design_str(cls)
    if args.json:
        _emit(doc)
        return 0
    kind = "dlog residues" if args.dlog else "elements"
    print(f"family {args.family} over GF({F.p}^{F.m}): {len(elems)} {kind}")
    print(" ".join(str(e) for e in elems))
    if cls is not None:
        print(_design_str(cls))
    return 0


def cmd_analyze_design(args):
    D, _ = _resolve_family(args)
    F = D.field
    if args.group == "cyclic":
        elems = designs.to_cyclic_residues(D)
        cls = designs.classify_design(CyclicGroup(F.q - 1), elems)
    else:
        cls = designs.classify_design(AdditiveGroup(F), D.elems)
    if args.json:
        doc = {"family": args.family, "group": args.group,
               "v": cls.v, "k": cls.k, "classification": _design_str(cls)}
        _emit(doc)
        return 0
    print(f"family {args.family}, {args.group} group: {_design_str(cls)}")
    return 0


def cmd_walsh(args):
    F = _field(args, p=2)
    f = designs.parse_func_spec(F, args.func, to_prime_subfield=True)
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
    F = D.field
    if claim in ("thm-part1", "thm-part2"):
        return codes.predicted_enumerator(claim, p=F.p, m=F.m)
    if claim == "thm-qfcodes":
        f = ctx.get("func")
        if f is None:
            raise UsageError(f"--expect {claim} needs a qf-image family")
        e = designs.eto1_check(F, f)
        if e is None:
            raise UsageError("the map is not e-to-1 on nonzero elements")
        r = boolfn.quadratic_rank(F, f).r
        return codes.predicted_enumerator(claim, p=F.p, m=F.m, r=r, e=e)
    if claim in ("thm-hyperovalDS", "glynn2-conjecture"):
        return codes.predicted_enumerator(claim, m=F.m)
    if claim in ("thm-bentcodes", "thm-semibentcodes", "thm-abcodes"):
        return codes.predicted_enumerator(claim, m=F.m, n_f=len(D.elems))
    if claim == "thm-CodeQBFs":
        f = ctx.get("func")
        if f is None:
            raise UsageError(f"--expect {claim} needs a bool family")
        r = boolfn.quadratic_rank(F, f).r
        s = boolfn.walsh_transform(F, f)
        return codes.predicted_enumerator(claim, m=F.m, r=r, walsh0=s.values[0])
    if claim == "thm-HKMcodes":
        if "h" not in ctx:
            raise UsageError(f"--expect {claim} needs an hkm family")
        return codes.predicted_enumerator(claim, h=ctx["h"])
    raise UsageError(f"unknown claim id {claim!r}")


def cmd_code(args):
    D, ctx = _resolve_family(args)
    C = codes.make_code(D)
    E = codes.weight_enumerator(C, max_work=args.max_work)
    d = codes.minimum_distance(E)
    gries = codes.griesmer_check(E.n, E.k, d, E.p)
    W = codes.dual_distance_witness(C)
    pless = codes.pless_moment_check(E, W)
    rep = None
    if args.expect and args.expect != "none":
        pred = _prediction_for(args.expect, D, ctx)
        rep = codes.compare_prediction(E, pred)
    if args.json:
        doc = {"family": args.family,
               "enumerator": codes.enumerator_obj(E),
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
    D, _ = _resolve_family(args)
    text = codes.export_generator(codes.make_code(D))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify_paper(args):
    wanted = args.case or None
    if wanted:
        unknown = [c for c in wanted if c not in verify.CASES]
        if unknown:
            raise UsageError(f"unknown case ids: {', '.join(unknown)}")
    reports = verify.run_cases(wanted)
    if args.json:
        _emit([{"case": r.case_id, "verdict": r.verdict,
                "expected": r.expected, "actual": r.actual,
                "detail": r.detail, "seconds": round(r.seconds, 3)}
               for r in reports])
    else:
        for r in reports:
            print(f"{r.case_id:<28} {r.verdict:<7} {r.seconds:8.3f}s")
            if r.verdict == "fail":
                print(f"    expected: {r.expected}")
                print(f"    actual:   {r.actual}")
                if r.detail:
                    print(f"    detail:   {r.detail}")
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for r in reports:
            counts[r.verdict] += 1
        print(f"{counts['pass']} passed, {counts['fail']} failed, "
              f"{counts['skipped']} skipped")
    return 0 if all(r.verdict in ("pass", "skipped") for r in reports) else 2


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
    sp.add_argument("--max-work", type=int, default=codes.DEFAULT_MAX_WORK,
                    dest="max_work")
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
    except (UsageError, ToolkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entry())

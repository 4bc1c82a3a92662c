"""Run one dscodes CLI invocation with spans around the public functions of each layer.

Usage: python3 perfbench/trace_child.py SPANS_OUT OP_ID -- CLI_ARGS...

The dscodes sources are not modified: this script imports the package, replaces
each traced function with a timing wrapper in every module that binds it by
name, runs ``dscodes.cli.entry`` and exits with its return code.  Spans stay in
memory until the run ends and are then written to SPANS_OUT as JSON:

    {"op": OP_ID, "spans": [[name, start_ns, end_ns, parent, attrs], ...],
     "counts": {counter: n}, "table_bytes": n, "missing_hooks": [...]}

``parent`` is the index of the enclosing span, or -1.  Scalar field arithmetic
is only counted (``gf.scalar.calls``); a span per call would cost more than the
call itself.
"""

from __future__ import annotations

import json
import sys
import weakref
from collections import Counter
from time import perf_counter_ns

from dscodes import boolfn, cli, codes, cyclotomic, designs, gf, verify

# Scalar Field methods whose calls are counted under gf.scalar.calls.
SCALAR_METHODS = ("add", "neg", "sub", "mul", "pow", "inv", "trace",
                  "relative_trace", "dlog", "is_square")

# (module, function name, span name): module-level functions timed as spans.
FUNCTION_SPANS = (
    (gf, "gfp_rank", "gf.rank"),
    (gf, "default_field", "gf.default_field"),
    (codes, "weight_enumerator", "codes.enumerate"),
    (codes, "generator_matrix", "codes.generator"),
    (codes, "predicted_enumerator", "codes.predict"),
    (codes, "compare_prediction", "codes.predict"),
    (codes, "pless_moment_check", "codes.predict"),
    (codes, "griesmer_check", "codes.predict"),
    (codes, "dual_distance_witness", "codes.predict"),
    (designs, "paley_set", "designs.construct"),
    (designs, "maschietti_set", "designs.construct"),
    (designs, "hkm_set", "designs.construct"),
    (designs, "boolean_support", "designs.construct"),
    (designs, "image_set", "designs.construct"),
    (designs, "classify_design", "designs.classify"),
    (boolfn, "walsh_transform", "boolfn.walsh"),
    (boolfn, "walsh_from_table", "boolfn.walsh"),
    (boolfn, "quadratic_rank", "boolfn.quadratic_rank"),
    (boolfn, "is_almost_bent", "boolfn.is_almost_bent"),
    (cyclotomic, "char_sum", "cyclotomic.char_sum"),
    (verify, "run_case", "verify.case"),
)

# lru_cached helpers shared between verify cases; a call that fills the cache
# is a verify.cache_fill span, a call answered from it a verify.cache_hit span.
VERIFY_CACHES = ("_family_enumerator", "_bent_instance", "_semibent_instance",
                 "_hkm_instance", "_qbf_samples")


class Recorder:
    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.table_bytes = 0
        self.missing = []
        self._tables_seen = weakref.WeakKeyDictionary()

    def span(self, name, fn, attrs=None):
        """Wrap fn so that each call records one span."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1,
                   attrs(*args) if attrs else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def table_build(self, name, fn, is_built, nbytes):
        """Span a lazy table builder only when it builds; add the bytes it keeps."""
        timed = self.span(name, fn)

        def wrapper(field):
            if is_built(field):
                return fn(field)
            out = timed(field)
            seen = self._tables_seen.setdefault(field, set())
            if name not in seen:
                seen.add(name)
                self.table_bytes += nbytes(field)
            return out

        return wrapper

    def cache_span(self, fn):
        """Span an lru_cache helper, renamed verify.cache_hit when it filled nothing."""
        timed = self.span("verify.cache_fill", fn)

        def wrapper(*args):
            misses = fn.cache_info().misses
            idx = len(self.spans)  # the index timed() gives its span
            out = timed(*args)
            if fn.cache_info().misses == misses:
                self.spans[idx][0] = "verify.cache_hit"
            return out

        return wrapper

    def dump(self, path):
        doc = {"op": self.op_id, "spans": self.spans, "counts": dict(self.counts),
               "table_bytes": self.table_bytes, "missing_hooks": self.missing}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _rebind(orig, replacement):
    """Point every dscodes module attribute bound to orig at replacement."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dscodes" or name.startswith("dscodes.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def _span_attrs(span_name):
    if span_name == "codes.enumerate":
        return lambda C, *_: {"p": C.field.p, "q": C.field.q}
    if span_name == "verify.case":
        return lambda cid: {"case": cid}
    return None


def install(rec: Recorder):
    """Wrap every hook; a hook the package no longer has is listed, not fatal."""
    Field = gf.Field

    def present(owner, name):
        if hasattr(owner, name):
            return True
        rec.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return False

    for method in SCALAR_METHODS:
        if present(Field, method):
            setattr(Field, method, rec.counted("gf.scalar.calls", getattr(Field, method)))
    Field.__init__ = rec.span("gf.field_init", Field.__init__)
    if present(Field, "_ensure_tables"):
        Field._ensure_tables = rec.table_build(
            "gf.exp_log", Field._ensure_tables,
            lambda F: getattr(F, "_log", None) is not None,
            lambda F: F.exp_table.nbytes + F.log_table.nbytes)
    for prop, cache_attr in (("digit_matrix", "_digit_matrix"),
                             ("trace_table", "_trace_table")):
        if present(Field, prop):
            fget = getattr(Field, prop).fget
            setattr(Field, prop, property(rec.table_build(
                f"gf.{prop}", fget,
                lambda F, a=cache_attr: getattr(F, a, None) is not None,
                lambda F, g=fget: g(F).nbytes)))
    for mod, fname, span_name in FUNCTION_SPANS:
        if present(mod, fname):
            orig = getattr(mod, fname)
            _rebind(orig, rec.span(span_name, orig, _span_attrs(span_name)))
    for helper in VERIFY_CACHES:
        orig = getattr(verify, helper, None)
        if hasattr(orig, "cache_info"):
            _rebind(orig, rec.cache_span(orig))
        else:
            rec.missing.append(f"dscodes.verify.{helper} (an lru_cache)")


def main(argv):
    out_path, op_id = argv[0], argv[1]
    cli_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    rec = Recorder(op_id)
    install(rec)
    try:
        rc = rec.span("cli", cli.entry)(cli_args)
    finally:
        sys.stdout.flush()
        rec.dump(out_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

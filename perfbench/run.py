"""Layered benchmark of the dscodes command line.

Usage, from the root of a dscodes checkout:

    python3 perfbench/run.py --workload enum-ladder --seed 0 --seconds 40 --trace 0

Each op is one ``dscodes`` invocation in a fresh process, as a user runs it, so
lru_caches and field tables start cold every time.  Every op's output is
checked (see workloads.py).  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 repeats the workload until --seconds is spent and reports, as medians
over those repetitions, the end-to-end metrics setup_s, solve_s, cpu_s and
peak_rss_mb.  --trace 1 runs the workload once untraced and once under
trace_child.py, and reports the per-layer metrics taken from the spans.  Run
artifacts (spans, per-run results) go to .perfbench_out/ in the checkout.
See README.md for the rationale behind each workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170  # every child is killed by then; the whole run must end within 180 s

# Metric name -> unit, in the order they are printed.
END_TO_END = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = ("codes.enumerate", "codes.generator", "gf.rank", "codes.predict",
               "gf.exp_log", "gf.digit_matrix", "gf.trace_table", "gf.field_init",
               "designs.construct", "designs.classify", "cli", "boolfn.walsh",
               "boolfn.quadratic_rank", "boolfn.is_almost_bent", "cyclotomic.char_sum",
               "verify.case", "verify.cache_fill")
LAYER_CALLS = ("codes.enumerate", "gf.field_init", "boolfn.quadratic_rank",
               "cyclotomic.char_sum")

# Layers each workload was chosen to stress; the traced run reports whether
# their self time is the largest.
PREDICTED = {"enum-ladder": ("codes.enumerate.s",),
             "big-field": ("gf.exp_log.s", "gf.digit_matrix.s", "gf.trace_table.s"),
             "verify-paper": ("boolfn.quadratic_rank.s",)}

PROBE = r"""
import ctypes, json, platform, sys
import numpy, dscodes.cli
blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
threads, libs = None, set()
try:
    with open("/proc/self/maps") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) >= 6 and "blas" in parts[5]:
                libs.add(parts[5])
except OSError:
    pass
for path in sorted(libs):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            threads = getattr(lib, sym)()
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "blas_config": blas.get("openblas configuration"),
                  "blas_threads": threads, "dscodes": dscodes.cli.__file__}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken interpreter)."""


@dataclass
class Proc:
    rc: int
    out: bytes
    err: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


def run_proc(argv, env, deadline):
    """Run argv to completion and return its rusage; kill it at the deadline."""
    out_path, err_path = OUT / "stdout", OUT / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        # Popen.kill polls first, so a kill after wait4 has reaped the child is a no-op.
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall,
                ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
                time.monotonic() >= deadline)


@dataclass
class Iteration:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    traces: list = field(default_factory=list)  # (spans doc, process wall) per op
    aborted: bool = False


def checked(op, proc, expected):
    try:
        return W.check(op, proc.rc, proc.out, expected)
    except Exception as exc:  # a checker bug must not end the run
        return 1, 1, [f"{op.key}: checker raised {type(exc).__name__}: {exc}"]


def run_ops(ops, env, deadline, expected, traced=False, tag="op", setup=None):
    """Run each op once; with a setup list, time an import-only process before each op."""
    it = Iteration()
    for i, op in enumerate(ops):
        if setup is not None:
            setup.append(run_proc([sys.executable, "-c", "import dscodes.cli"], env, deadline))
        op_id = f"{tag}:{i}"
        spans_path = OUT / f"spans-{op_id.replace(':', '-')}.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans_path), op_id,
                    "--", *op.argv]
        else:
            argv = [sys.executable, "-m", "dscodes.cli", *op.argv]
        proc = run_proc(argv, env, deadline)
        attempted, failed, problems = checked(op, proc, expected)
        it.wall_s += proc.wall_s
        it.cpu_s += proc.cpu_s
        it.rss_mb = max(it.rss_mb, proc.rss_mb)
        it.attempted += attempted
        it.failed += failed
        it.problems += problems
        if problems and proc.err:
            it.problems.append(f"{op.key}: stderr: {proc.err[-400:].decode('utf-8', 'replace')}")
        if traced and spans_path.exists():
            it.traces.append((json.loads(spans_path.read_text()), proc.wall_s))
        if proc.timed_out:
            it.problems.append(f"{op.key}: killed at the {RUN_LIMIT_S} s run limit")
            it.aborted = True
            break
    return it


def child_env(nproc):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # OpenBLAS here is built for up to 64 threads; never run more than the CPUs we have.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(nproc)
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(env, nproc, deadline):
    proc = run_proc([sys.executable, "-c", PROBE], env, deadline)
    if proc.rc != 0:
        raise BenchError("cannot import dscodes.cli from the checkout: "
                         + proc.err.decode("utf-8", "replace")[-400:])
    host = json.loads(proc.out)
    if not Path(host["dscodes"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"dscodes was imported from {host['dscodes']}, not from src/")
    del host["dscodes"]
    return {"nproc": nproc, "cpu": cpu_model(), **host}


def self_check_failure_counting(env, deadline, expected):
    """A wrong expected value must count as a failed op without ending the run."""
    op = W.tiny_op()
    proc = run_proc([sys.executable, "-m", "dscodes.cli", *op.argv], env, deadline)
    problems = []
    if checked(op, proc, expected)[1] != 0:
        problems.append("self-check: the tiny op fails its own check")
    wrong_digest = {**expected, "digests": {op.key: "0" * 64}}
    if checked(op, proc, wrong_digest)[:2] != (1, 1):
        problems.append("self-check: a wrong digest was not counted as a failed op")
    if checked(replace(op, claim="thm-part2"), proc, expected)[:2] != (1, 1):
        problems.append("self-check: a wrong claim was not counted as a failed op")
    return problems


def measure(ops, env, deadline, expected, seconds, t_start):
    """End-to-end metrics: medians over set-up samples and whole-workload repetitions.

    Set-up samples are spread over the run, one before each op, so that a slow
    spell on a shared host moves them no more than it moves the ops.
    """
    setup, its = [], []
    longest = 0.0
    while not its or time.monotonic() + longest <= t_start + seconds:
        t0 = time.monotonic()
        its.append(run_ops(ops, env, deadline, expected, tag=f"it{len(its)}", setup=setup))
        longest = max(longest, time.monotonic() - t0)
        if its[-1].aborted:
            break
    problems = [f"set-up process exited {p.rc}" for p in setup if p.rc != 0]
    median = statistics.median
    metrics = {"setup_s": median([p.wall_s for p in setup]),
               "solve_s": median([i.wall_s for i in its]),
               "cpu_s": median([i.cpu_s for i in its]),
               "peak_rss_mb": median([i.rss_mb for i in its])}
    detail = {"setup_s": [p.wall_s for p in setup],
              "iterations": [{"solve_s": i.wall_s, "cpu_s": i.cpu_s, "peak_rss_mb": i.rss_mb}
                             for i in its]}
    return metrics, its, problems, detail


def layer_metrics(traces):
    """Per-layer self times and counts from the spans of one traced repetition."""
    self_ns, calls = Counter(), Counter()
    enum_ns, enum_q = Counter(), 0
    outside_s, scalar, table_bytes = 0.0, 0, 0
    cases = {}
    for doc, wall in traces:
        spans = doc["spans"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            own = end - start - child_ns[i]
            self_ns[name] += own
            calls[name] += 1
            if name == "codes.enumerate":
                enum_ns["p2" if attrs["p"] == 2 else "podd"] += own
                enum_q += attrs["q"]
            if name == "verify.case":
                cases[attrs["case"]] = cases.get(attrs["case"], 0) + end - start
            if name == "verify.cache_fill":
                j = parent
                while j >= 0 and spans[j][0] != "verify.case":
                    j = spans[j][3]
                if j >= 0:
                    cid = spans[j][4]["case"]
                    cases[cid] = cases.get(cid, 0) - (end - start)
        outside_s += wall - sum(e - s for _, s, e, p, _ in spans if p < 0) / 1e9
        scalar += doc["counts"].get("gf.scalar.calls", 0)
        table_bytes = max(table_bytes, doc["table_bytes"])
    m = {f"{name}.s" if name != "cli" else "cli.self.s": self_ns[name] / 1e9
         for name in LAYER_TIMES}
    m["codes.enumerate.p2.s"] = enum_ns["p2"] / 1e9
    m["codes.enumerate.podd.s"] = enum_ns["podd"] / 1e9
    m["codes.codewords_per_s"] = enum_q / (self_ns["codes.enumerate"] / 1e9) if enum_q else 0.0
    m.update({f"{name}.calls": calls[name] for name in LAYER_CALLS})
    m["gf.scalar.calls"] = scalar
    m["gf.table_mb"] = table_bytes / 2**20
    m["trace.outside_spans.s"] = outside_s
    detail = {"case_seconds_without_cache_fill": {c: ns / 1e9 for c, ns in sorted(cases.items())},
              "missing_hooks": sorted({h for doc, _ in traces for h in doc.get("missing_hooks", [])})}
    return m, detail


LAYER_UNITS = {"codes.codewords_per_s": "1/s", "gf.table_mb": "MB",
               "trace.overhead_ratio": "ratio"}


def layer_unit(name):
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith(".s") else "count"


def tiny_signature(env, deadline, expected):
    """Span-name and call counts of the tiny op under the tracer."""
    it = run_ops([W.tiny_op()], env, deadline, expected, traced=True, tag="tiny")
    if not it.traces:
        return None, it.problems
    doc = it.traces[0][0]
    return (sorted(Counter(s[0] for s in doc["spans"]).items()),
            sorted(doc["counts"].items())), it.problems


def trace(ops, env, deadline, expected, workload):
    plain = run_ops(ops, env, deadline, expected, tag="plain")
    traced = run_ops(ops, env, deadline, expected, traced=True, tag="traced")
    metrics, detail = layer_metrics(traced.traces)
    metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    sigs, problems = [], []
    for _ in range(2):
        sig, probs = tiny_signature(env, deadline, expected)
        sigs.append(sig)
        problems += probs
    if sigs[0] is None or sigs[0] != sigs[1]:
        problems.append(f"self-check: tiny op span counts differ between traced runs: {sigs}")
    names, counts = sigs[0] or ((), ())
    metrics["selfcheck.tiny.spans"] = sum(n for _, n in names)
    metrics["selfcheck.tiny.scalar_calls"] = dict(counts).get("gf.scalar.calls", 0)
    detail.update(untraced_solve_s=plain.wall_s, traced_solve_s=traced.wall_s,
                  prediction=prediction(workload, metrics, traced.wall_s),
                  spans=[doc for doc, _ in traced.traces])
    return metrics, [plain, traced], problems, detail


def prediction(workload, metrics, traced_solve):
    """Whether the predicted layers together outweigh every other layer's self time."""
    predicted = PREDICTED[workload]
    own = sum(metrics[k] for k in predicted)
    others = {k: v for k, v in metrics.items()
              if k.endswith(".s") and k not in predicted
              and not k.startswith("codes.enumerate.p")}
    top = max(others, key=others.get)
    return {"layers": predicted, "self_s": own, "share_of_traced_solve": own / traced_solve,
            "largest_other": top, "largest_other_s": others[top],
            "gf.scalar.calls": metrics["gf.scalar.calls"],
            "verdict": "confirmed" if own >= others[top] else "refuted"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    if not (ROOT / "src" / "dscodes" / "cli.py").is_file():
        raise BenchError(f"no dscodes source tree under {ROOT}; run from a checkout root")
    OUT.mkdir(exist_ok=True)
    expected = json.loads((HERE / "expected.json").read_text())
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = child_env(nproc)
    host = host_record(env, nproc, deadline)
    ops = W.ops_for(args.workload, args.seed)

    problems = self_check_failure_counting(env, deadline, expected)
    if args.trace:
        metrics, its, more, detail = trace(ops, env, deadline, expected, args.workload)
    else:
        metrics, its, more, detail = measure(ops, env, deadline, expected, args.seconds, t_start)
    problems += more
    attempted = sum(i.attempted for i in its)
    failed = sum(i.failed for i in its)
    if args.trace:
        metrics.update(ops=attempted, ops_failed=failed)
        units = {k: layer_unit(k) for k in metrics}
    else:
        units = END_TO_END
    for it in its:
        problems += it.problems
    correct = not problems and failed == 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seed_used": args.workload != "verify-paper", "host": host,
              "ops": [op.key for op in ops], "attempted": attempted, "failed": failed,
              "problems": problems, "metrics": metrics, **detail}
    name = f"{'trace' if args.trace else 'result'}-{args.workload}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print("host " + json.dumps(host))
    print(f"workload {args.workload} seed {args.seed}"
          + (" (ignored: fixed registry)" if args.workload == "verify-paper" else "")
          + f", {len(ops)} invocation(s) x "
          + ("1 untraced and 1 traced repetition" if args.trace else f"{len(its)} repetition(s)"))
    if not args.trace:
        print(f"ops {attempted} count")
        print(f"ops_failed {failed} count")
    for k in (units if not args.trace else sorted(metrics)):
        print(f"{k} {metrics[k]:.6g} {units[k]}")
    if args.trace:
        pr = detail["prediction"]
        print(f"prediction {'+'.join(pr['layers'])}: {pr['self_s']:.3f} s self time, "
              f"{pr['share_of_traced_solve']:.0%} of traced solve; largest other layer "
              f"{pr['largest_other']} {pr['largest_other_s']:.3f} s; "
              f"gf.scalar.calls {pr['gf.scalar.calls']}: {pr['verdict']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

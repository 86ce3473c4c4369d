"""implicitfp benchmark: seeded workloads, correctness-gated, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-euclid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Load is a closed loop: one client, one op in flight at a time.  The library
is imported from ``src/`` next to this directory; without it the benchmark
exits with code 2 and prints no result.

``--trace 0`` runs every op twice, on the library and on ``implicitfp_ref``
(a frozen copy of the library kept in ``reference/``), back to back in
alternating order.  Both see the same machine state, so the ratios of their
timings are the end-to-end metrics; the raw timings are printed beside them.
``--trace 1`` runs each op on the library untraced and then traced, and
prints the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object; earlier lines are a human-readable report.
Results, provenance and spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
OUT = ROOT / ".bench_out"
WORKLOADS = ("solve-euclid", "solve-geodesic", "axioms", "cli")
SETUP_PROBES = 5

# Fixed per workload: the highest of 50/75/90/95/99 with at least ten ops
# beyond it at the op rates of the first benchmarked commit.  Fixed, so that
# a faster program (more ops per run) is not reported at a higher percentile.
TAIL_PERCENTILE = {"solve-euclid": 75, "solve-geodesic": 95, "axioms": 90, "cli": 75}

END_TO_END = {  # name -> unit
    "setup_s": "s", "op_p50_vs_ref": "x", "op_tail_vs_ref": "x",
    "ops_per_s_vs_ref": "x", "peak_rss_mb": "MB",
}
# percentile of the per-op library/reference latency ratios that
# op_tail_vs_ref reports
RATIO_TAIL = 75


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: time one set-up and report it as JSON")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(REFERENCE), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# set-up


def probe(workload: str, seed: int) -> int:
    """Fresh interpreter -> import implicitfp -> inputs built -> first op ready."""
    start = time.perf_counter()
    import implicitfp  # noqa: F401
    import_s = time.perf_counter() - start
    import gen
    import workloads

    workloads.make(workload, seed, str(OUT), child_env())
    gen.case(workload, seed, 0)
    ready = monotonic()
    start = time.perf_counter()
    import implicitfp.cli  # noqa: F401
    cli_import_s = import_s + time.perf_counter() - start
    print(json.dumps({"ready": ready, "cli_import_s": cli_import_s}))
    return 0


def measure_setup(workload: str, seed: int):
    """Median set-up seconds and CLI import ms over SETUP_PROBES fresh processes."""
    from workloads import spawn

    setups, imports = [], []
    out, err = str(OUT / "probe-stdout.txt"), str(OUT / "probe-stderr.txt")
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        spawned = monotonic()
        code, _, _ = spawn(argv, out, err, child_env())
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {Path(err).read_text()[-500:]}")
        rec = json.loads(Path(out).read_text().splitlines()[-1])
        setups.append(rec["ready"] - spawned)
        imports.append(rec["cli_import_s"] * 1e3)
    return statistics.median(setups), statistics.median(imports)


# ---------------------------------------------------------------------------
# measurement


def measure(workload: str, seconds: float, run_op) -> None:
    """Call run_op(i) for whole cycles of ops, ending near `seconds`.

    Whole cycles keep every stratum of the workload equally represented.
    The loop stops at the cycle boundary closest to `seconds` (judged by the
    length of the last cycle); at least one cycle always runs.
    """
    import gen

    cycle = gen.cycle_length(workload)
    i = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for _ in range(cycle):
            run_op(i)
            i += 1
        now = time.perf_counter()
        if now - start + (now - began) / 2.0 >= seconds:
            return


def percentile(sorted_vals, pct: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_vals) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def latency_stats(workload, results):
    """(p50 ms, tail ms, ops per second) of one side of the paired run."""
    ms = sorted(r.seconds * 1e3 for r in results)
    return (statistics.median(ms), percentile(ms, TAIL_PERCENTILE[workload]),
            len(results) / sum(r.seconds for r in results))


def end_to_end(workload, wl, cur, ref, setup_s):
    """Paired ratios against the reference, with the raw timings as notes."""
    p50, tail, rate = latency_stats(workload, cur)
    ref_p50, ref_tail, ref_rate = latency_stats(workload, ref)
    ratios = sorted(a.seconds / b.seconds for a, b in zip(cur, ref))
    if workload == "cli":
        rss = max(r.child_rss_mb for r in cur)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup_s, "op_p50_vs_ref": statistics.median(ratios),
              "op_tail_vs_ref": percentile(ratios, RATIO_TAIL),
              "ops_per_s_vs_ref": rate / ref_rate, "peak_rss_mb": rss}
    pct = TAIL_PERCENTILE[workload]
    beyond = sum(r.seconds * 1e3 > tail for r in cur)
    notes = {"setup_s": f"median of {SETUP_PROBES} fresh interpreters",
             "op_p50_vs_ref": f"median of {len(ratios)} per-op ratios;"
                              f" op_ms_p50 {p50:.4g} ms, reference {ref_p50:.4g} ms",
             "op_tail_vs_ref": f"p{RATIO_TAIL} of the per-op ratios; op_ms_tail p{pct}"
                               f" {tail:.4g} ms ({beyond} of {len(cur)} ops beyond it),"
                               f" reference {ref_tail:.4g} ms",
             "ops_per_s_vs_ref": f"ops_per_s {rate:.4g}, reference {ref_rate:.4g}",
             "peak_rss_mb": "children's peak" if workload == "cli" else "benchmark process"}
    if wl.work is not None:
        unit, per_op = wl.work
        notes["ops_per_s_vs_ref"] += f"; {unit}_per_s {per_op * rate:.1f} ({per_op} {unit} per op)"
    return values, notes


def per_layer(tracer, ops: int, cli_import_ms: float, overhead_pct: float):
    n = max(ops, 1)
    calls, total, self_s = tracer.calls, tracer.total_s, tracer.self_s
    op_s = total.get("op", 0.0)

    def per_op(name):
        return calls.get(name, 0) / n

    def self_ms(name):
        return self_s.get(name, 0.0) * 1e3 / n

    def incl_ms(name):
        return total.get(name, 0.0) * 1e3 / n

    def share(prefix):
        spent = sum(v for k, v in self_s.items() if k.startswith(prefix + "."))
        return 100.0 * spent / op_s if op_s else 0.0

    def mean_ms(name):
        return total.get(name, 0.0) * 1e3 / calls[name] if calls.get(name) else 0.0

    m = {}
    for attr in ("d", "w", "check_point"):
        m[f"spaces.{attr}.calls"] = (per_op(f"spaces.{attr}"), "count/op")
        m[f"spaces.{attr}.self_ms"] = (self_ms(f"spaces.{attr}"), "ms/op")
    m["spaces.check_axioms.ms"] = (incl_ms("spaces.check_axioms"), "ms/op")
    m["spaces.check_point.share_pct"] = (
        100.0 * self_s.get("spaces.check_point", 0.0) / op_s if op_s else 0.0, "%")
    m["spaces.self_share_pct"] = (share("spaces"), "%")
    m["mappings.T.calls"] = (per_op("mappings.T"), "count/op")
    m["mappings.T.self_ms"] = (self_ms("mappings.T"), "ms/op")
    m["mappings.build.ms"] = (incl_ms("mappings.build"), "ms/op")
    m["mappings.self_share_pct"] = (share("mappings"), "%")
    m["schemes.step.calls"] = (per_op("schemes.step"), "count/op")
    m["schemes.step.self_ms"] = (self_ms("schemes.step"), "ms/op")
    m["schemes.run.self_ms"] = (self_ms("schemes.run"), "ms/op")
    m["schemes.inner_iters"] = (tracer.inner_iters / n, "count/op")
    m["schemes.inner_iters_per_step"] = (
        tracer.inner_iters / tracer.solves if tracer.solves else 0.0, "count/step")
    m["schemes.max_residual"] = (tracer.max_residual, "dist")
    m["schemes.nonconvergence"] = (tracer.nonconvergence, "count")
    m["schemes.self_share_pct"] = (share("schemes"), "%")
    for name in ("compute", "berinde_compare", "check_lemma1"):
        m[f"bounds.{name}.ms"] = (incl_ms(f"bounds.{name}"), "ms/op")
    m["bounds.self_share_pct"] = (share("bounds"), "%")
    m["experiments.rate_race.self_ms"] = (self_ms("experiments.rate_race"), "ms/op")
    m["experiments.run_datadep.self_ms"] = (self_ms("experiments.run_datadep"), "ms/op")
    m["experiments.u_step.calls"] = (per_op("experiments.u_step"), "count/op")
    m["experiments.u_step.self_ms"] = (self_ms("experiments.u_step"), "ms/op")
    m["experiments.self_share_pct"] = (share("experiments"), "%")
    m["cli.import_ms"] = (cli_import_ms, "ms")
    for sub in ("table", "compare", "bounds", "datadep", "axiom-check"):
        m[f"cli.{sub}.ms"] = (mean_ms(f"cli.{sub}"), "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m


# ---------------------------------------------------------------------------
# provenance and output


def provenance(args, results) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": len(results),
            "failed": sum(1 for r in results if r.failures)}


def emit(args, results, metrics, notes, extra, ref=()):
    failed = [r for r in results if r.failures]
    prov = provenance(args, results)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(prov))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:14.6g} {unit}{note}")
    print(f"  {'failed_frac':34s} {len(failed) / len(results):14.6g}"
          f"  ({len(failed)} of {len(results)} ops)")
    for r in failed[:5]:
        print("  FAILED: " + "; ".join(r.failures))
    for key, value in extra.items():
        print(f"  {key}: {value}")
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"provenance": prov, "metrics": as_json, "notes": notes, "extra": extra,
              "failures": [r.failures for r in failed[:50]],
              "op_ms": [r.seconds * 1e3 for r in results],
              "ref_op_ms": [r.seconds * 1e3 for r in ref]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": as_json}))


def run_all(args) -> int:
    """Every workload in its own process; their reports, then one merged JSON line."""
    from workloads import spawn

    merged, attempted, failed, ok = {}, 0, 0, True
    for workload in WORKLOADS:
        out, err = str(OUT / f"all-{workload}.txt"), str(OUT / f"all-{workload}.err")
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code, _, _ = spawn(argv, out, err, dict(os.environ), timeout=900)
        lines = Path(out).read_text().splitlines()
        if code != 0 or not lines:
            print(f"{workload}: exit {code}\n{Path(err).read_text()[-2000:]}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        ok &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            merged[f"{workload}.{name}"] = m
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "implicitfp" / "__init__.py").is_file():
        print(f"benchmark: no implicitfp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(REFERENCE))
    if args.probe:
        return probe(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    setup_s, cli_import_ms = measure_setup(args.workload, args.seed)
    import implicitfp
    if Path(implicitfp.__file__).resolve().parent != SRC / "implicitfp":
        print(f"benchmark: imported implicitfp from {implicitfp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer, patched

    wl = workloads.make(args.workload, args.seed, str(OUT), child_env())
    if not args.trace:
        ref_wl = workloads.make(args.workload, args.seed, str(OUT), child_env(),
                                workloads.REFERENCE)
        cur, ref = [], []

        def ab(i):  # library and reference back to back, alternating order
            if i % 2:
                ref.append(ref_wl.op(i))
                cur.append(wl.op(i))
            else:
                cur.append(wl.op(i))
                ref.append(ref_wl.op(i))

        measure(args.workload, args.seconds, ab)
        values, notes = end_to_end(args.workload, wl, cur, ref, setup_s)
        metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
        verdicts = [v for r in cur for v in r.verdicts]
        extra = ({"actual-trace rate verdicts (not gated)":
                  {v: verdicts.count(v) for v in sorted(set(verdicts))}} if verdicts else {})
        emit(args, cur, metrics, notes, extra, ref)
        return 0

    # each op runs untraced, then traced on the same input; the difference
    # is the tracing overhead, free of drift between two separate phases
    untraced, traced = [], []
    tracer = Tracer()
    hooks = tracer.patches()

    def pair(i):
        untraced.append(wl.op(i))
        tracer.begin_op(i)
        with patched(hooks):
            traced.append(wl.op(i, tracer))
        tracer.end_op()

    measure(args.workload, args.seconds, pair)
    base = sum(r.seconds for r in untraced)
    overhead = 100.0 * (sum(r.seconds for r in traced) - base) / base
    metrics = per_layer(tracer, len(traced), cli_import_ms, overhead)
    spans_path = OUT / f"{args.workload}.spans.jsonl"
    tracer.write_spans(spans_path)
    extra = {"op pairs (untraced, traced)": len(traced),
             "spans written": f"{len(tracer.kept)} to {spans_path}"}
    emit(args, untraced + traced, metrics, {}, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())

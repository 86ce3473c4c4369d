"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(HERE / "reference")]
OUT = str(ROOT / ".bench_out")

import gates  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cases(workload, seed, n=30):
    return [gen.case(workload, seed, i) for i in range(n)]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert cases(workload, 7) == cases(workload, 7)
    if workload != "cli":  # only axiom-check's seed varies among CLI ops
        assert cases(workload, 7) != cases(workload, 8)


def test_inputs_identical_in_a_fresh_process():
    code = ("import sys; sys.path[:0] = [sys.argv[1]]; import gen; "
            "print([repr(gen.case(w, 3, i)) for w in gen.WORKLOADS for i in range(30)])")
    out = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out == str([repr(gen.case(w, 3, i)) for w in gen.WORKLOADS for i in range(30)])


def test_affine_maps_are_contractions_with_seeded_norm():
    deltas = []
    for c in cases("solve-euclid", 11, 240):
        if c.kind == "affine":
            deltas.append(np.linalg.norm(np.array(c.A), 2))
    assert deltas and all(0.1 - 1e-12 <= d <= 0.9 + 1e-12 for d in deltas)
    # the low-discrepancy draw covers the range rather than clustering
    assert min(deltas) < 0.2 and max(deltas) > 0.8


def test_reference_case_in_every_cycle():
    cyc = gen.cycle_length("solve-euclid")
    refs = [i for i, c in enumerate(cases("solve-euclid", 5, 3 * cyc)) if c.is_reference]
    assert len(refs) == 3 and all(r // cyc == k for k, r in enumerate(refs))


def _race(case):
    import implicitfp

    space, t, _, schedule, x0 = gen.build_solve(case, implicitfp)
    return schedule, implicitfp.experiments.rate_race(space, t, schedule, x0=x0, n_max=gen.N_MAX)


def test_correct_race_passes_and_tampered_race_fails():
    c = next(c for c in cases("solve-euclid", 1) if c.is_reference)
    oracle = workloads.make("solve-euclid", 1, OUT, {}).oracle
    schedule, race = _race(c)
    assert gates.check_race(c, schedule, race, gen.N_MAX, oracle) == []

    rec = race.traces["implicit-s"].records[100]
    rec.x = rec.x + 1e-6  # a wrong iterate: off the envelope and the oracle
    bad = gates.check_race(c, schedule, race, gen.N_MAX, oracle)
    assert any("envelope" in b for b in bad) and any("oracle" in b for b in bad)

    race.traces["implicit-mann"].records[5].inner_residual = 1e-9
    assert any("residual" in b for b in gates.check_race(c, schedule, race, gen.N_MAX))


def test_wrong_op_result_is_counted_as_failed(monkeypatch):
    from implicitfp import experiments

    real = experiments.run_datadep

    def wrong(*args, **kwargs):
        report = real(*args, **kwargs)
        return replace(report, q=report.q + 1.0, observed=report.observed + 1.0,
                       margin=report.margin - 1.0)

    wl = workloads.make("solve-euclid", 2, OUT, {})
    affine = 3  # first affine stratum of a cycle
    assert gen.case("solve-euclid", 2, affine).kind == "affine"
    assert wl.op(affine).failures == []
    monkeypatch.setattr(experiments, "run_datadep", wrong)
    assert wl.op(affine).failures


def test_reference_copy_is_timed_not_gated():
    import implicitfp_ref

    ref = workloads.make("axioms", 1, OUT, {}, workloads.REFERENCE)
    assert ref.spaces is implicitfp_ref.spaces and not ref.check
    assert ref.op(3).seconds > 0


def test_axiom_and_cli_gates_reject_wrong_verdicts():
    from implicitfp import spaces

    c = gen.case("axioms", 4, 5)
    assert c.space == "broken-demo" and not c.expect_pass
    report = spaces.check_axioms(spaces.from_name(c.space), n_samples=200, seed=c.seed)
    assert gates.check_axioms(c, report, 200) == []
    for result in report.results.values():  # a checker that misses the violation
        result.passed = True
    assert gates.check_axioms(c, report, 200)

    table = gen.case("cli", 1, 0)
    assert gates.check_cli(table, 0, "x\n" * 15, "verify: all table cells match\n") == []
    assert gates.check_cli(table, 0, "x\n" * 15, "")
    assert gates.check_cli(table, 1, "x\n" * 15, "verify: all table cells match\n")


def test_tracer_self_time_excludes_children():
    from tracer import Tracer

    tr = Tracer()
    inner = tr.wrap("inner", lambda: sum(range(20000)))
    outer = tr.wrap("outer", lambda: [inner() for _ in range(3)])
    tr.begin_op(0)
    outer()
    tr.end_op()
    assert tr.calls["inner"] == 3 and tr.calls["outer"] == 1
    assert tr.self_s["outer"] == pytest.approx(tr.total_s["outer"] - tr.total_s["inner"])
    assert [s[3] for s in tr.kept] == [-1, 0, 0, 0]


def _run(workload, trace, cwd=ROOT, seconds="0"):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_exits_nonzero_without_the_library():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "axioms",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=bare, env=env, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""

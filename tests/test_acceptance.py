"""Acceptance suite: one test per shipped guarantee.

Each test records a single PASS/FAIL line, printed in the terminal summary
by conftest's pytest_terminal_summary hook, and then asserts, so a failing
guarantee shows up both in the summary and the pytest report.
"""

import time

import numpy as np

import conftest
from implicitfp import bounds, cli, experiments, mappings, schemes, spaces
from implicitfp.experiments import RationalOracle
from implicitfp.schemes import (InnerSolverConfig, constant_schedule,
                                default_schedule, polynomial_schedule, run)


def report(label, ok):
    conftest.acceptance_lines.append(
        f"criterion {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {label} failed"


def corpus_triples():
    """(space, mapping, schedule) combinations used by the envelope check."""
    factories = [
        mappings.halving(),
        mappings.affine(mappings.AffineMap(np.array([[0.3, 0.1], [0.0, 0.4]]),
                                           np.array([0.1, 0.2]))),
        mappings.tripod_radial(0.5),
        mappings.halfplane_vertical(0.5),
    ]
    schedules = [default_schedule(), constant_schedule(0.5),
                 polynomial_schedule(0.5)]
    for space, t, _sampler in factories:
        for sched in schedules:
            yield space, t, sched


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    table = experiments.reproduce_table()
    elapsed = time.perf_counter() - start
    mismatches = table.verify()
    cli_ok = cli.main(["table", "--verify", "--output", "/dev/null"]) == 0
    report("1 (reference table, 15 decimals, < 1 s)",
           mismatches == [] and elapsed < 1.0 and cli_ok)


def test_criterion_2_oracle_equivalence():
    space, t, _ = mappings.halving()
    sched = default_schedule()
    worst = 0.0
    for scheme in schemes.SCHEME_IDS:
        oracle = RationalOracle(scheme).sequence(50)
        trace = run(space, t, scheme, sched.weights(50), np.array([1.0]))
        for rec, exact in zip(trace.records, oracle):
            worst = max(worst, abs(float(rec.x[0]) - float(exact)))
    report("2 (float trace vs exact-rational oracle, <= 5e-14)", worst <= 5e-14)


def test_criterion_3_convergence_envelope():
    ok = True
    for space, t, sched in corpus_triples():
        x0 = experiments.default_x0(space, t)
        trace = run(space, t, "implicit-s", sched.weights(500), x0)
        d = trace.distances()
        d0 = d[0]
        cum = 1.0
        factors = bounds.step_factors(sched.weights(500), t.delta)[0]
        for i, factor in enumerate(factors):
            cum *= factor
            per_step_slack = factor * d[i] - d[i + 1]
            cumulative_slack = cum * d0 - d[i + 1]
            if per_step_slack < -1e-10 or cumulative_slack < -1e-10:
                ok = False
        if d[-1] >= 1e-8:
            ok = False
    report("3 (per-step and cumulative envelopes, d(x_500, p) < 1e-8)", ok)


def test_criterion_4_rate_ordering_and_comparison():
    ok = True
    schedules = [default_schedule(), constant_schedule(0.5),
                 polynomial_schedule(0.5)]
    for delta in (0.1, 0.5, 0.9):
        for sched in schedules:
            env = bounds.BoundSequences.compute(sched.weights(200), delta, 1.0)
            for an, bn, cn in zip(env.a, env.b, env.c):
                chain = an <= delta * cn * (1 + 1e-12) and delta * cn <= cn and cn <= bn * (1 + 1e-12)
                if not chain:
                    ok = False
            ab = bounds.berinde_compare(env.a, env.b, horizon=200, threshold=1e-6)
            ac = bounds.berinde_compare(env.a, env.c, horizon=200, threshold=1e-6)
            if not (ab.faster and ac.faster):
                ok = False
    report("4 (envelope ordering a <= delta*c <= c <= b; a faster than b and c)", ok)


def datadep_pairs():
    epsilons = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
    bases = [
        mappings.halving(),
        mappings.affine(mappings.AffineMap(np.array([[0.3, 0.1], [0.0, 0.4]]),
                                           np.array([0.1, 0.2]))),
        mappings.affine(mappings.AffineMap(np.array([[0.7]]), np.array([0.2])),
                        name="affine-scalar"),
        mappings.tripod_radial(0.5),
    ]
    for space, t, _sampler in bases:
        for eps in epsilons:
            offset = (eps if isinstance(space, spaces.Tripod)
                      else np.full(getattr(space, "dim", 1), eps)
                      / np.sqrt(getattr(space, "dim", 1)))
            yield space, t, mappings.perturbed(space, t, offset)


def test_criterion_5_data_dependence():
    ok = True
    count = 0
    for space, t, s in datadep_pairs():
        count += 1
        rep = experiments.run_datadep(space, t, s, proof_variant=True)
        if not (rep.holds and rep.margin > 0.0):
            ok = False
        if rep.lemma1 is None or not rep.lemma1.hypothesis_ok:
            ok = False
    report("5 (d(p,q) <= 2*eps/(1-delta)^2 with margin, averaging hypothesis)",
           ok and count == 20)


def test_criterion_6_axiom_suite():
    ok = True
    for name in ("euclidean:1", "euclidean:2", "euclidean:3", "tripod",
                 "halfplane"):
        rep = spaces.check_axioms(spaces.from_name(name), n_samples=10_000,
                                  tol=1e-9, seed=0)
        if not rep.passed:
            ok = False
    broken = spaces.check_axioms(spaces.from_name("broken-demo"),
                                 n_samples=10_000, tol=1e-9, seed=0)
    report("6 (axiom suite passes at 1e-9 over 1e4 tuples; broken space flagged)",
           ok and not broken.passed)


def test_criterion_7_inner_solver():
    ok = True
    cfg = InnerSolverConfig(tolerance=1e-14)
    space, t, _ = mappings.halving()
    for scheme in schemes.SCHEME_IDS:
        trace = run(space, t, scheme, default_schedule().weights(50), np.array([1.0]),
                    cfg)
        for rec in trace.records[1:]:
            if rec.inner_residual is None or rec.inner_residual > 1e-14:
                ok = False
    space_a, t_a, _ = mappings.affine(
        mappings.AffineMap(np.array([[0.3, 0.1], [0.0, 0.4]]),
                           np.array([0.1, 0.2])))
    x0 = experiments.default_x0(space_a, t_a)
    for scheme in schemes.SCHEME_IDS:
        tp = run(space_a, t_a, scheme, default_schedule().weights(100), x0,
                 InnerSolverConfig(tolerance=1e-14, mode="picard"))
        te = run(space_a, t_a, scheme, default_schedule().weights(100), x0,
                 InnerSolverConfig(tolerance=1e-14, mode="exact-affine"))
        for rp, re in zip(tp.records, te.records):
            if space_a.d(rp.x, re.x) > 1e-12:
                ok = False
    report("7 (residual <= 1e-14 each step; Picard vs exact solve <= 1e-12)", ok)

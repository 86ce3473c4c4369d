"""The four workloads: how one op runs, what it costs, how it is checked.

An op runs as ``workload.op(i, tracer)`` and returns an ``OpResult``.  Only
the calls into the library are timed; generating the case and the
correctness gates run outside the timed region.  With a tracer, the op runs
under a root span ``op`` and the objects it builds are instrumented.

A workload runs on one package: ``implicitfp`` (the library under test,
gated) or ``implicitfp_ref`` (the frozen reference copy, timed only).
"""

from __future__ import annotations

import importlib
import os
import select
import signal
import sys
import time
from dataclasses import dataclass, field

import gates
import gen

CHILD_TIMEOUT_S = 60.0
PACKAGE = "implicitfp"
REFERENCE = "implicitfp_ref"


@dataclass
class OpResult:
    seconds: float
    failures: list
    verdicts: list = field(default_factory=list)  # actual-trace rate verdicts
    child_rss_mb: float = 0.0


def spawn(argv, out_path, err_path, env, timeout=CHILD_TIMEOUT_S):
    """Run one child with stdout/stderr to files; (exit code, seconds, peak RSS MB).

    The child is reaped with wait4, which also returns its own peak RSS.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], timeout)[0]:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    elapsed = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss / 1024.0


class Solve:
    """solve-euclid and solve-geodesic: a rate race (+ data dependence)."""

    def __init__(self, name, seed, lib, check):
        self.name, self.seed, self.lib, self.check = name, seed, lib, check
        self.datadep = name == "solve-euclid"
        # steps solved per op: three schemes, plus the x- and u-steps of datadep
        self.work = ("steps", (gen.N_MAX - 1) * (5 if self.datadep else 3))
        self.oracle = None
        if self.datadep and check:
            self.oracle = {s: [float(v) for v in lib.experiments.RationalOracle(s).sequence(gen.N_MAX)]
                           for s in gates.SCHEMES}

    def op(self, i, tracer=None) -> OpResult:
        c = gen.case(self.name, self.seed, i)
        lib, experiments = self.lib, self.lib.experiments
        build = gen.build_solve if tracer is None else tracer.wrap("mappings.build", gen.build_solve)

        def call():
            space, t, s, schedule, x0 = build(c, lib)
            if tracer is not None:
                tracer.instrument_space(space)
                tracer.instrument_map(t, "mappings.T")
                if s is not None:
                    tracer.instrument_map(s, "mappings.S")
            race = experiments.rate_race(space, t, schedule, x0=x0, n_max=gen.N_MAX)
            report = None
            if self.datadep:
                report = experiments.run_datadep(space, t, s, schedule, x0=x0,
                                                 n_max=gen.N_MAX, proof_variant=True)
            return schedule, race, report

        if tracer is not None:
            call = tracer.wrap("op", call)
        start = time.perf_counter()
        try:
            schedule, race, report = call()
        except Exception as exc:  # a raising op is a failed op, not a crash
            return OpResult(time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"])
        elapsed = time.perf_counter() - start
        if not self.check:
            return OpResult(elapsed, [])
        oracle = self.oracle if c.is_reference else None
        failures = gates.check_race(c, schedule, race, gen.N_MAX, oracle)
        if report is not None:
            failures += gates.check_datadep(c, report)
        verdicts = [v.verdict for v in race.actual_verdicts.values()]
        return OpResult(elapsed, failures, verdicts)


class Axioms:
    """One check_axioms call per op, cycling through the six spaces."""

    def __init__(self, name, seed, lib, check):
        self.name, self.seed, self.check = name, seed, check
        self.spaces = lib.spaces
        self.work = ("tuples", gen.AXIOM_SAMPLES)

    def op(self, i, tracer=None) -> OpResult:
        c = gen.case(self.name, self.seed, i)
        spaces = self.spaces

        def call():
            space = spaces.from_name(c.space)
            if tracer is not None:
                tracer.instrument_space(space)
            return spaces.check_axioms(space, n_samples=gen.AXIOM_SAMPLES,
                                       tol=gen.AXIOM_TOL, seed=c.seed)

        if tracer is not None:
            call = tracer.wrap("op", call)
        start = time.perf_counter()
        try:
            report = call()
        except Exception as exc:
            return OpResult(time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"])
        elapsed = time.perf_counter() - start
        if not self.check:
            return OpResult(elapsed, [])
        return OpResult(elapsed, gates.check_axioms(c, report, gen.AXIOM_SAMPLES))


class Cli:
    """One fresh `python -m <package>.cli` process per op, one at a time."""

    def __init__(self, name, seed, package, check, out_dir, env):
        self.name, self.seed, self.package, self.check, self.env = name, seed, package, check, env
        self.work = None
        self.out = os.path.join(out_dir, "cli-stdout.txt")
        self.err = os.path.join(out_dir, "cli-stderr.txt")

    def op(self, i, tracer=None) -> OpResult:
        c = gen.case(self.name, self.seed, i)
        argv = [sys.executable, "-m", f"{self.package}.cli", *c.argv]
        run = spawn if tracer is None else tracer.wrap(f"cli.{c.command}", spawn)
        if tracer is not None:
            run = tracer.wrap("op", run)
        code, elapsed, rss = run(argv, self.out, self.err, self.env)
        if not self.check:
            return OpResult(elapsed, [], child_rss_mb=rss)
        with open(self.out, encoding="utf-8") as fh:
            out = fh.read()
        with open(self.err, encoding="utf-8") as fh:
            err = fh.read()
        return OpResult(elapsed, gates.check_cli(c, code, out, err), child_rss_mb=rss)


def make(name, seed, out_dir, env, package=PACKAGE):
    """The workload on `package`; only the library under test is gated."""
    check = package == PACKAGE
    if name == "cli":
        return Cli(name, seed, package, check, out_dir, env)
    lib = importlib.import_module(package)
    if name in ("solve-euclid", "solve-geodesic"):
        return Solve(name, seed, lib, check)
    if name == "axioms":
        return Axioms(name, seed, lib, check)
    raise ValueError(f"unknown workload {name!r}")

"""Seeded input generator: the only path by which inputs reach the library.

Every case is plain data (strings, floats, tuples) drawn from
``numpy.random.default_rng([seed, workload, ...])``, so the same seed gives
identical inputs in every process.  ``build_solve`` turns a case into
library objects through the public constructors in ``mappings`` and
``schemes``.

Cases come in cycles.  A cycle holds one case per stratum (map kind x
schedule, or space, or subcommand), and the parameters that set the cost of
an op (the contraction constant delta, the perturbation epsilon) follow a
low-discrepancy sequence across cycles, so a run of a few whole cycles
samples them evenly whatever the seed.  This keeps the run-to-run spread of
the timings small while every seed still gives different inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

WORKLOADS = ("solve-euclid", "solve-geodesic", "axioms", "cli")

N_MAX = 200
SCHEDULES = ("default", "constant:0.5", "polynomial:0.5")
EUCLID_KINDS = ("halving", 1, 2, 3)
GEODESIC_MAPS = ("tripod-radial", "halfplane-vertical")
GEODESIC_FACTORS = (0.3, 0.5, 0.7, 0.9)
AXIOM_SPACES = ("euclidean:1", "euclidean:2", "euclidean:3", "tripod",
                "halfplane", "broken-demo")
AXIOM_SAMPLES = 1000
AXIOM_TOL = 1e-9
CLI_COMMANDS = ("table", "compare", "bounds", "datadep", "axiom-check")

# fractional parts of c*GOLDEN and c*SILVER spread evenly over [0, 1) for
# every prefix c = 0, 1, 2, ...; two constants keep delta and epsilon apart
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class SolveCase:
    """One rate race (and, on solve-euclid, one data-dependence run)."""

    kind: str                  # halving | affine | tripod-radial | halfplane-vertical
    schedule: str
    x0: tuple
    A: Optional[tuple] = None  # affine only: rows of the matrix, ||A||_2 = delta
    b: Optional[tuple] = None
    factor: Optional[float] = None
    offset: Optional[tuple] = None  # perturbation S = T + offset (solve-euclid)

    @property
    def is_reference(self) -> bool:
        """The paper's table configuration, checked against the exact oracle."""
        return (self.kind == "halving" and self.schedule == "default"
                and self.x0 == (1.0,))


@dataclass(frozen=True)
class AxiomCase:
    space: str
    seed: int
    expect_pass: bool


@dataclass(frozen=True)
class CliCase:
    command: str
    argv: tuple                # arguments after `python -m implicitfp.cli`


def _rng(seed: int, *key: int) -> np.random.Generator:
    # keys: (workload, case index) per case; offsets of 1e6 and 2e6 keep the
    # per-stratum and per-cycle streams apart from the case streams
    return np.random.default_rng([seed, *key])


def _spread(seed: int, wl: int, stratum: int, cycle: int, step: float) -> float:
    """Low-discrepancy point in [0, 1) for this stratum and cycle."""
    start = _rng(seed, wl, 1_000_000 + stratum).uniform()
    return (start + cycle * step) % 1.0


def cycle_length(workload: str) -> int:
    if workload == "solve-euclid":
        return len(EUCLID_KINDS) * len(SCHEDULES)
    if workload == "solve-geodesic":
        return len(GEODESIC_MAPS) * len(GEODESIC_FACTORS) * len(SCHEDULES)
    if workload == "axioms":
        return len(AXIOM_SPACES)
    if workload == "cli":
        return len(CLI_COMMANDS)
    raise ValueError(f"unknown workload {workload!r}")


def _euclid_case(seed: int, i: int) -> SolveCase:
    wl = WORKLOADS.index("solve-euclid")
    stratum, cycle = i % cycle_length("solve-euclid"), i // cycle_length("solve-euclid")
    kind = EUCLID_KINDS[stratum // len(SCHEDULES)]
    schedule = SCHEDULES[stratum % len(SCHEDULES)]
    rng = _rng(seed, wl, i)
    eps = 10.0 ** (-3.0 + 2.0 * _spread(seed, wl, stratum, cycle, SILVER))
    if kind == "halving":
        dim = 1
        x0 = (1.0,) if schedule == "default" else (float(rng.uniform(0.1, 1.0)),)
        A = b = None
    else:
        dim = kind
        # per schedule and cycle, the three dimensions take one delta from
        # each third of [0.1, 0.9], in a seeded order
        third = _rng(seed, wl, 2_000_000 + cycle, SCHEDULES.index(schedule)).permutation(3)
        u = (third[dim - 1] + _spread(seed, wl, stratum, cycle, GOLDEN)) / 3.0
        delta = 0.1 + 0.8 * u
        m = rng.normal(size=(dim, dim))
        m *= delta / np.linalg.norm(m, 2)
        A = tuple(tuple(float(v) for v in row) for row in m)
        b = tuple(float(v) for v in rng.uniform(-1.0, 1.0, dim))
        x0 = tuple(float(v) for v in rng.uniform(-3.0, 3.0, dim))
    direction = rng.normal(size=dim)
    offset = tuple(float(v) for v in eps * direction / np.linalg.norm(direction))
    return SolveCase("halving" if kind == "halving" else "affine", schedule, x0,
                     A=A, b=b, offset=offset)


def _geodesic_case(seed: int, i: int) -> SolveCase:
    wl = WORKLOADS.index("solve-geodesic")
    stratum = i % cycle_length("solve-geodesic")
    per_map = len(GEODESIC_FACTORS) * len(SCHEDULES)
    kind = GEODESIC_MAPS[stratum // per_map]
    factor = GEODESIC_FACTORS[(stratum % per_map) // len(SCHEDULES)]
    schedule = SCHEDULES[stratum % len(SCHEDULES)]
    rng = _rng(seed, wl, i)
    if kind == "tripod-radial":
        x0 = ("ABC"[int(rng.integers(0, 3))], float(rng.uniform(0.5, 3.0)))
    else:
        # on the geodesic x = 0, at hyperbolic distance 0.3..2 from (0, 1)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        x0 = (0.0, math.exp(sign * float(rng.uniform(0.3, 2.0))))
    return SolveCase(kind, schedule, x0, factor=factor)


def _axiom_case(seed: int, i: int) -> AxiomCase:
    space = AXIOM_SPACES[i % len(AXIOM_SPACES)]
    check_seed = int(_rng(seed, WORKLOADS.index("axioms"), i).integers(0, 2**31))
    return AxiomCase(space, check_seed, expect_pass=space != "broken-demo")


def _cli_case(seed: int, i: int) -> CliCase:
    command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
    if command == "table":
        argv = ("table", "--verify")
    elif command == "compare":
        argv = ("compare", "--assert-faster")
    elif command == "bounds":
        argv = ("bounds", "--n-max", "100")
    elif command == "datadep":
        argv = ("datadep", "--perturb", "0.01", "--proof-variant")
    else:
        s = int(_rng(seed, WORKLOADS.index("cli"), i).integers(0, 2**31))
        argv = ("axiom-check", "--space", "halfplane", "--samples",
                str(AXIOM_SAMPLES), "--seed", str(s))
    return CliCase(command, argv)


def case(workload: str, seed: int, i: int):
    """The i-th op input of a workload; a pure function of (workload, seed, i)."""
    if workload == "solve-euclid":
        return _euclid_case(seed, i)
    if workload == "solve-geodesic":
        return _geodesic_case(seed, i)
    if workload == "axioms":
        return _axiom_case(seed, i)
    if workload == "cli":
        return _cli_case(seed, i)
    raise ValueError(f"unknown workload {workload!r}")


def build_solve(c: SolveCase, lib):
    """Library objects for a solve case: (space, T, S or None, schedule, x0).

    ``lib`` is the package that runs the op: ``implicitfp`` or the frozen
    reference copy ``implicitfp_ref``.
    """
    mappings, schemes = lib.mappings, lib.schemes
    if c.kind == "halving":
        space, t, _ = mappings.halving()
    elif c.kind == "affine":
        space, t, _ = mappings.affine(mappings.AffineMap(np.array(c.A), np.array(c.b)))
    elif c.kind == "tripod-radial":
        space, t, _ = mappings.tripod_radial(c.factor)
    else:
        space, t, _ = mappings.halfplane_vertical(c.factor)
    if c.kind in ("halving", "affine"):
        x0 = np.array(c.x0)
    else:
        x0 = c.x0
    s = None if c.offset is None else mappings.perturbed(space, t, np.array(c.offset))
    return space, t, s, schemes.schedule_from_name(c.schedule), x0

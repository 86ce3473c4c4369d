"""End-to-end experiments: the benchmark comparison table, rate races, the
data-dependence bound check, and the exact-rational oracle backing them.

For Tx = x/2 with alpha_n = beta_n = 1 - 1/n (n >= 2) and x_1 = 1, solving
each implicit step by hand gives exact rational recursions:

    implicit-mann:     x_n = x_{n-1} * 2(n-1)/(2n-1)
    implicit-ishikawa: x_n = x_{n-1} * 4n(n-1)/(4n^2-2n+1)
    implicit-s:        x_n = x_{n-1} * 2n(n-1)/(4n^2-2n+1)

The oracle evaluates these in fractions.Fraction; rounded to 15 decimals
they reproduce the benchmark table exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional

from . import mappings, schemes
from .bounds import BoundSequences, Lemma1Report, berinde_compare, check_lemma1, datadep_bound
from .errors import ConfigError, InvalidPointError, NonconvergenceError
from .mappings import ApproximateOperator, ContractiveLike
from .schemes import InnerSolverConfig, Schedule, default_schedule, run
from .spaces import Euclidean, Space

# ---------------------------------------------------------------------------
# exact-rational oracle


ORACLE_RATIOS = {
    "implicit-mann": lambda n: Fraction(2 * (n - 1), 2 * n - 1),
    "implicit-ishikawa": lambda n: Fraction(4 * n * (n - 1), 4 * n * n - 2 * n + 1),
    "implicit-s": lambda n: Fraction(2 * n * (n - 1), 4 * n * n - 2 * n + 1),
}


@dataclass
class RationalOracle:
    """Exact state of the halving-map recursions under the default schedule."""

    scheme: str
    x: Fraction = Fraction(1)
    n: int = 1

    def step(self) -> Fraction:
        self.n += 1
        self.x *= ORACLE_RATIOS[self.scheme](self.n)
        return self.x

    def sequence(self, n_max: int) -> list:
        """Exact values x_1..x_{n_max} (resets state)."""
        self.x, self.n = Fraction(1), 1
        vals = [self.x]
        for _ in range(2, n_max + 1):
            vals.append(self.step())
        return vals


def format15(value, digits: int = 15) -> str:
    """Fixed-point formatting with round-half-even, 15 decimals by default.

    The rounding is exact: a float or Fraction of any size keeps all its
    integer digits and gets `digits` correctly rounded decimals.  A float
    inf or nan, which has no digits, prints as `inf` or `nan`.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    units = round(Fraction(value) * 10 ** digits)  # an exact tie goes to even
    text = str(abs(units)).rjust(digits + 1, "0")
    if digits:
        text = f"{text[:-digits]}.{text[-digits:]}"
    return "-" + text if units < 0 else text


# ---------------------------------------------------------------------------
# benchmark table

TABLE_ROWS = (2, 5, 7, 10, 13, 16, 20, 25, 30, 35, 40, 43, 46, 50)
# a float's exact decimal expansion ends within 1074 decimals, so more
# digits would only pad zeros, and a huge count would fill the memory
MAX_DIGITS = 1074

# embedded reference values (IMI, III, ISI per row), used by `--verify`
REFERENCE_TABLE = {
    2: ("0.666666666666667", "0.615384615384615", "0.307692307692308"),
    5: ("0.406349206349206", "0.352704628530670", "0.022044039283167"),
    7: ("0.340992340992341", "0.292145335107371", "0.004564770861053"),
    10: ("0.283773192751521", "0.240691952056443", "0.000470101468860"),
    13: ("0.248169351176485", "0.209336831746067", "0.000051107624938"),
    16: ("0.223294138742407", "0.187699995568689", "0.000005728149279"),
    20: ("0.199408653447441", "0.167113839554526", "0.000000318744353"),
    25: ("0.178133771931084", "0.148920204678483", "0.000000008876336"),
    30: ("0.162477710197415", "0.135609685643003", "0.000000000252593"),
    35: ("0.150335628473559", "0.125328510781087", "0.000000000007295"),
    40: ("0.140563343828096", "0.117078595772533", "0.000000000000213"),
    43: ("0.135541774913220", "0.112847389889567", "0.000000000000026"),
    46: ("0.131022580805197", "0.109043978938918", "0.000000000000003"),
    50: ("0.125645129018549", "0.104523598655989", "0.000000000000000"),
}


@dataclass
class ComparisonTable:
    """Rows (n, IMI, III, ISI) formatted to a fixed number of decimals."""

    rows: list  # (n, imi, iii, isi) strings
    digits: int = 15

    def to_csv(self) -> str:
        lines = ["n,imi,iii,isi"]
        lines += [f"{n},{imi},{iii},{isi}" for n, imi, iii, isi in self.rows]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        w = self.digits + 2
        lines = [f"{'n':>4}  {'IMI':>{w}}  {'III':>{w}}  {'ISI':>{w}}"]
        lines += [f"{n:>4}  {imi:>{w}}  {iii:>{w}}  {isi:>{w}}"
                  for n, imi, iii, isi in self.rows]
        return "\n".join(lines) + "\n"

    def verify(self) -> list:
        """The (n, column, got, expected) cells that differ from REFERENCE_TABLE."""
        bad = []
        for n, imi, iii, isi in self.rows:
            if n not in REFERENCE_TABLE:
                continue
            for col, got, exp in zip(("imi", "iii", "isi"), (imi, iii, isi),
                                     REFERENCE_TABLE[n]):
                if got != exp:
                    bad.append((n, col, got, exp))
        return bad


def run_schemes(space: Space, t: ContractiveLike, weights: list, x0,
                cfg: Optional[InnerSolverConfig] = None) -> dict:
    """The three schemes' traces from x0 over one checked weights list
    (`Schedule.weights(n_max)`), by scheme id."""
    return {s: run(space, t, s, weights, x0, cfg) for s in schemes.SCHEME_IDS}


def reproduce_table(traces: Optional[dict] = None, rows=TABLE_ROWS,
                    digits: int = 15) -> ComparisonTable:
    """The traces' distances to p at the rows they reach (n = 1 if none).

    Without traces the schemes run on the reference configuration: the
    halving map from x0 = 1 under the default schedule, up to the last row.
    digits outside [0, MAX_DIGITS] is a ConfigError.
    """
    if not 0 <= digits <= MAX_DIGITS:
        raise ConfigError(f"digits must lie in [0, {MAX_DIGITS}], got {digits}")
    if traces is None:
        space, t, _sampler = mappings.halving()
        traces = run_schemes(space, t, default_schedule().weights(max(rows)),
                             default_x0(space, t))
    cols = [traces[s].distances()  # n = 1..n_max
            for s in ("implicit-mann", "implicit-ishikawa", "implicit-s")]
    rows = tuple(n for n in rows if n <= len(cols[0])) or (1,)
    return ComparisonTable([(n, *(format15(c[n - 1], digits) for c in cols)) for n in rows],
                           digits)


def default_x0(space: Space, t: ContractiveLike):
    """Starting points used by the experiment corpus, as checked points."""
    name = t.name
    if name == "halving":
        return (1.0,)
    if name.startswith("tripod-radial"):
        return ("A", 1.0)
    if name.startswith("halfplane-vertical"):
        return (0.0, 3.0)
    if isinstance(space, Euclidean):
        return (1.0,) * space.dim
    raise ConfigError(f"no default starting point for {name!r} on {space.name!r}")


# ---------------------------------------------------------------------------
# rate race


@dataclass
class RateRace:
    traces: dict                 # scheme id -> IterationTrace
    envelopes: BoundSequences
    actual_verdicts: dict        # ("implicit-s", other) -> RateVerdict
    envelope_verdicts: dict
    converged_exactly: dict      # scheme id -> index of first exact zero (or None)

    @property
    def all_faster(self) -> bool:
        return all(v.faster for v in self.actual_verdicts.values()) and \
            all(v.faster for v in self.envelope_verdicts.values())


def _positive_prefix(seq):
    """Truncate at the first exact zero; returns (prefix, zero_index_or_None)."""
    for i, v in enumerate(seq):
        if v == 0.0:
            return seq[:i], i
    return seq, None


def rate_race(space: Space, t: ContractiveLike, schedule: Schedule, x0=None,
              n_max: int = 200, cfg: Optional[InnerSolverConfig] = None,
              horizon: Optional[int] = None,
              threshold: float = 1e-6) -> RateRace:
    """Run the three schemes and compare rates on actual and envelope sequences.

    The schedule is evaluated once, for the three runs and the envelopes.
    A threshold that is not finite and > 0 is a ConfigError.
    """
    if not 0.0 < threshold < math.inf:  # nan fails too
        raise ConfigError(f"threshold must be finite and > 0, got {threshold!r}")
    if x0 is None:
        x0 = default_x0(space, t)
    p = t.fixed_point
    if p is None:
        raise ConfigError("rate_race requires a mapping with a known fixed point")
    horizon = horizon if horizon is not None else n_max
    if min(horizon, n_max - 1) < 2:
        raise ConfigError("a rate race needs at least two comparison points, "
                          f"min(horizon, n_max - 1); got horizon {horizon}, n_max {n_max}")

    x0 = space.check_point(x0)  # an invalid x0 is reported before the schedule
    weights = schedule.weights(n_max)
    traces = run_schemes(space, t, weights, x0, cfg)
    d0 = space.d(x0, p)
    env = BoundSequences.compute(weights, t.delta, d0)

    # actual distances from n = 2 on, truncated at the first exact zero
    actual, zero_at = {}, {}
    for s, tr in traces.items():
        seq, zi = _positive_prefix(tr.distances()[1:])
        actual[s] = seq
        zero_at[s] = None if zi is None else zi + 2  # back to n-indexing

    # degenerate where a trace hit p exactly before two comparison points
    # (converged_exactly records where) or an envelope underflowed to 0
    def compare(a, b):
        return berinde_compare(a[:len(b)], b[:len(a)], horizon, threshold)

    aseq = actual["implicit-s"]
    actual_verdicts = {("implicit-s", other): compare(aseq, actual[other])
                       for other in ("implicit-ishikawa", "implicit-mann")}
    envelope_verdicts = {
        ("implicit-s", "implicit-ishikawa"): compare(env.a, env.c),
        ("implicit-s", "implicit-mann"): compare(env.a, env.b),
    }
    return RateRace(traces, env, actual_verdicts, envelope_verdicts, zero_at)


# ---------------------------------------------------------------------------
# data dependence


class _PublicPoint:
    """A DataDepReport point field.

    The report keeps the point it is given under `_<name>` (run_datadep
    gives checked points) and reads it back in the space's public form, made
    by the report's `public` when first read and then kept, as
    IterationTrace.records does.  Without `public` the point reads back as
    given.
    """

    def __set_name__(self, owner, name):
        self.name, self.given = name, "_" + name

    def __get__(self, report, owner=None):
        if report is None:  # no class-level default: the field is required
            raise AttributeError(self.name)
        fields = vars(report)
        if self.name not in fields:
            x, public = fields[self.given], report.public
            fields[self.name] = x if public is None else public(x)
        return fields[self.name]

    def __set__(self, report, x):
        fields = vars(report)
        fields[self.given] = x
        fields.pop(self.name, None)


@dataclass
class DataDepReport:
    epsilon: float
    delta: float
    p: object = _PublicPoint()
    q: object = _PublicPoint()
    observed: float
    bound: float
    margin: float
    converged: bool
    lemma1: Optional[Lemma1Report]
    closed_form_q: Optional[object] = None
    public: Optional[Callable] = field(default=None, repr=False, compare=False)

    @property
    def holds(self) -> bool:
        return self.observed <= self.bound

    def to_text(self, space: Space) -> str:
        lines = [
            f"epsilon={self.epsilon!r}",
            f"delta={self.delta!r}",
            f"p={space.format_point(self._p)}",
            f"q={space.format_point(self._q)}",
            f"observed={self.observed!r}",
            f"bound={self.bound!r}",
            f"margin={self.margin!r}",
            f"converged={self.converged}",
            f"holds={self.holds}",
        ]
        if self.closed_form_q is not None:
            lines.append(f"closed_form_q={space.format_point(self.closed_form_q)}")
        if self.lemma1 is not None:
            lines.append(f"lemma1_hypothesis_ok={self.lemma1.hypothesis_ok}")
            lines.append(f"lemma1_max_violation={self.lemma1.max_hypothesis_violation!r}")
        return "\n".join(lines) + "\n"


def datadep_weights(schedule: Schedule, n_max: int) -> list:
    """The checked (alpha_n, beta_n), n = 2..n_max, of a data-dependence run.

    ConfigError unless n_max >= 2 (the averaging lemma needs an index to
    check) and every alpha_n < 1 (mu_n = (1-alpha_n)(1-delta) > 0).
    """
    if n_max < 2:
        raise ConfigError(f"data dependence needs n_max >= 2, got {n_max}")
    weights = schedule.weights(n_max)
    if any(al >= 1.0 for al, _ in weights):
        raise ConfigError("data dependence requires alpha_n < 1")
    return weights


def run_datadep(space: Space, t: ContractiveLike, s: ApproximateOperator,
                schedule: Optional[Schedule] = None, x0=None,
                n_max: int = 200, cfg: Optional[InnerSolverConfig] = None,
                proof_variant: bool = False) -> DataDepReport:
    """Run the paired iterations for T and its approximation S, both from x0.

    The limit q of the u-sequence is accepted when the last ten step
    displacements d(u_n, u_{n-1}) are at most 1e-10 * epsilon (1e-12 at
    epsilon = 0.01; relative, as q lies within about epsilon of p);
    otherwise the report is marked inconclusive (converged=False).  The
    schedule and n_max are checked by datadep_weights before any step.  The report keeps the
    checked p and q and gives them in the space's public form when first
    read.  A step that does not converge raises NonconvergenceError, and a
    point outside the space InvalidPointError, naming the step n and
    whether the x-step (T) or the u-step (S) failed.
    The steps call the maps' raw forms (T.apply, the AffineMap, in an
    exact-affine x-step); the closed form reads A and b from T.apply.  A
    Picard x-step trusts a closed T's outputs only on its chart (`schemes.step_chart`).
    """
    weights = datadep_weights(schedule or default_schedule(), n_max)
    cfg = cfg or InnerSolverConfig()
    if x0 is None:
        x0 = default_x0(space, t)

    p = t.fixed_point
    if p is None:
        raise ConfigError("run_datadep requires T with a known fixed point")

    # the u-step pairs T with S, so it has no closed form and always uses Picard
    u_cfg = replace(cfg, mode="picard")
    check, raw_d = space.check_point, space.raw_d
    x = u = check(x0)
    a_seq = [raw_d(x, u)]   # a_{n+1} = d(x_n, u_n), starting at n = 1
    mu_seq, eta_seq = [], []
    u_steps = []
    delta, phi = t.delta, t.phi
    eps = s.epsilon
    T, S = schemes.step_map(t, cfg), s.raw  # the u-step is Picard, so S.raw
    chart = schemes.step_chart(space, t, cfg)  # the x-step's T only
    for n, (al, be) in enumerate(weights, start=2):
        try:
            step = "x-step"
            if n == 2:
                tx = T(x) if chart is not None else check(T(x))
                step = "u-step"
                su = check(S(u))
                step = "x-step"
            # each step hands back T x_n, T y_n and S u_n, checked
            x_prev, tx_prev, u_prev = x, tx, u
            x, y, stats = schemes.implicit_step(space, T, T, tx, x, al, be, cfg, tx, chart)
            tx, ty = stats.inner_x, stats.outer_y
            step = "u-step"
            u, _, stats = schemes.implicit_step(space, S if proof_variant else t.raw, S,
                                                su, u, al, be, u_cfg, su)
            su = stats.inner_x
            u_steps.append(raw_d(u, u_prev))
            a_seq.append(raw_d(x, u))
            eta = (al / (1.0 - al) * phi(raw_d(x_prev, tx_prev))
                   + phi(raw_d(y, ty))
                   + delta * (1.0 - be) * phi(raw_d(x, tx))
                   + 2.0 * eps) / (1.0 - delta) ** 2
        except NonconvergenceError as exc:
            raise NonconvergenceError(f"{step} n={n}: {exc}", residual=exc.residual) from exc
        except InvalidPointError as exc:
            raise InvalidPointError(f"{step} n={n}: {exc}") from exc
        mu_seq.append((1.0 - al) * (1.0 - delta))
        eta_seq.append(eta)

    converged = len(u_steps) >= 10 and all(d <= 1e-10 * eps for d in u_steps[-10:])
    q = u
    observed = space.d(p, q)
    bound = datadep_bound(eps, delta)
    lemma = check_lemma1(a_seq, mu_seq, eta_seq)

    closed_q = None
    affmap = t.apply
    if isinstance(space, Euclidean) and isinstance(affmap, mappings.AffineMap):
        # S = T + c: q solves q = A q + b + c
        import numpy as np

        zero = (0.0,) * space.dim
        c = np.subtract(s.apply(zero), affmap(zero))
        closed_q = np.linalg.solve(np.eye(affmap.dim) - affmap.A, affmap.b + c)

    return DataDepReport(eps, delta, check(p), q, observed, bound, bound - observed,
                         converged, lemma, closed_q, space.public)

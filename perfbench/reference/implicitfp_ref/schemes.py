"""Implicit S-, Ishikawa- and Mann-type iterations with a Picard inner solver.

Effective recursions (weights written the way the convergence analysis uses
them, i.e. alpha on the first argument):

    implicit-s:        x_n = W(T x_{n-1}, T y_n, alpha_n),  y_n = W(x_n, T x_n, beta_n)
    implicit-ishikawa: x_n = W(x_{n-1},   T y_n, alpha_n),  y_n = W(x_n, T x_n, beta_n)
    implicit-mann:     x_n = W(x_{n-1},   T x_n, alpha_n)

The space's convexity mapping follows the axiom-(i) convention (weight 1-lam
on the first argument), so the steps call w(.., .., 1-alpha) / (.., 1-beta)
to realize the recursions above.  x_n appears on both sides; each step is
solved by Picard iteration on the step map (Lipschitz constant
(1-alpha)*delta*[beta+(1-beta)*delta] < 1 for delta < 1), or in closed form
for affine maps on Euclidean space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NonconvergenceError
from .mappings import AffineMap, ContractiveLike
from .spaces import Euclidean, Space

SCHEME_IDS = ("implicit-s", "implicit-ishikawa", "implicit-mann")


# ---------------------------------------------------------------------------
# schedules


@dataclass
class Schedule:
    """Parameter sequences alpha_n, beta_n in [0, 1], indexed from n = 1.

    `divergent` records whether sum(1 - alpha_n) = infinity (known
    symbolically for presets; asserted by the caller for custom schedules).
    """

    alpha: Callable[[int], float]
    beta: Callable[[int], float]
    name: str = "custom"
    divergent: Optional[bool] = None

    def alpha_at(self, n: int) -> float:
        a = float(self.alpha(n))
        if not (0.0 <= a <= 1.0):
            raise ConfigError(f"alpha_{n} = {a} outside [0, 1]")
        return a

    def beta_at(self, n: int) -> float:
        b = float(self.beta(n))
        if not (0.0 <= b <= 1.0):
            raise ConfigError(f"beta_{n} = {b} outside [0, 1]")
        return b


def default_schedule() -> Schedule:
    """alpha_n = beta_n = 1 - 1/n for n >= 2, zero at n = 1."""
    f = lambda n: 0.0 if n < 2 else 1.0 - 1.0 / n
    return Schedule(f, f, name="default", divergent=True)


def constant_schedule(a: float, b: Optional[float] = None) -> Schedule:
    if b is None:
        b = a
    div = a < 1.0
    return Schedule(lambda n: a, lambda n: b, name=f"constant:{a},{b}", divergent=div)


def polynomial_schedule(q: float) -> Schedule:
    """alpha_n = beta_n = 1 - n^(-q); sum(1-alpha) diverges iff q <= 1."""
    if q <= 0:
        raise ConfigError(f"polynomial exponent must be > 0, got {q}")
    f = lambda n: 0.0 if n < 2 else 1.0 - float(n) ** (-q)
    return Schedule(f, f, name=f"polynomial:{q}", divergent=q <= 1.0)


def schedule_from_name(name: str) -> Schedule:
    if name == "default":
        return default_schedule()
    if name.startswith("constant:"):
        try:
            parts = [float(v) for v in name.split(":", 1)[1].split(",")]
        except ValueError:
            raise ConfigError(f"bad constant schedule {name!r}")
        if not all(0.0 <= p <= 1.0 for p in parts):
            raise ConfigError(f"schedule values outside [0, 1] in {name!r}")
        return constant_schedule(*parts[:2])
    if name.startswith("polynomial:"):
        try:
            return polynomial_schedule(float(name.split(":", 1)[1]))
        except ValueError:
            raise ConfigError(f"bad polynomial schedule {name!r}")
    raise ConfigError(f"unknown schedule {name!r}")


_EXPR_GLOBALS = {"__builtins__": {}, "math": math, "sqrt": math.sqrt,
                 "log": math.log, "exp": math.exp, "min": min, "max": max}


def expression_schedule(alpha_expr: str, beta_expr: Optional[str] = None,
                        divergent: Optional[bool] = None) -> Schedule:
    """Schedule from inline expressions in the variable n, e.g. '1-1/n'.

    n = 1 always yields 0 (the initial index carries no update).
    """
    if beta_expr is None:
        beta_expr = alpha_expr

    def make(expr):
        def f(n):
            if n < 2:
                return 0.0
            return float(eval(expr, _EXPR_GLOBALS, {"n": n}))
        return f

    try:
        make(alpha_expr)(2), make(beta_expr)(2)
    except Exception as exc:
        raise ConfigError(f"bad schedule expression: {exc}")
    return Schedule(make(alpha_expr), make(beta_expr),
                    name=f"expr:{alpha_expr};{beta_expr}", divergent=divergent)


# ---------------------------------------------------------------------------
# inner solver


@dataclass
class InnerSolverConfig:
    tolerance: float = 1e-14
    max_iterations: int = 10_000
    mode: str = "picard"  # picard | exact-affine

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ConfigError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.mode not in ("picard", "exact-affine"):
            raise ConfigError(f"unknown inner solver mode {self.mode!r}")


@dataclass
class InnerStats:
    iterations: int
    residual: float


def _picard_solve(space: Space, step_map, x0, cfg: InnerSolverConfig):
    """Iterate x <- step_map(x) until d(x, step_map(x)) <= tolerance.

    Once within tolerance, keeps polishing while the residual strictly
    decreases, so accepted iterates sit near the machine fixed point; the
    reported residual is always measured at the returned point.
    """
    x = x0
    best = None  # (residual, x, iters)
    for k in range(1, cfg.max_iterations + 1):
        fx = step_map(x)
        res = space.d(x, fx)
        if res <= cfg.tolerance:
            if best is None or res < best[0]:
                best = (res, x, k)
            else:
                return best[1], InnerStats(k, best[0])
            if res == 0.0:
                return x, InnerStats(k, 0.0)
        x = fx
    if best is not None:
        return best[1], InnerStats(cfg.max_iterations, best[0])
    raise NonconvergenceError(
        f"inner solver exceeded {cfg.max_iterations} iterations",
        residual=res)


def _exact_affine(space, t):
    """Return the AffineMap behind t if closed-form solving applies."""
    if isinstance(space, Euclidean) and isinstance(t.apply, AffineMap):
        return t.apply
    raise ConfigError("exact-affine mode requires an affine map on Euclidean space")


# ---------------------------------------------------------------------------
# steps


def implicit_s_step(space: Space, t: ContractiveLike, x_prev, alpha: float,
                    beta: float, cfg: InnerSolverConfig = None):
    """Solve x = W(T x_prev, T y, alpha), y = W(x, T x, beta) for x.

    Returns (x, y, InnerStats).
    """
    cfg = cfg or InnerSolverConfig()
    space.check_point(x_prev)
    tx_prev = t(x_prev)

    def y_of(x):
        return space.w(x, t(x), 1.0 - beta)

    if cfg.mode == "exact-affine":
        m = _exact_affine(space, t)
        A, b, I = m.A, m.b, np.eye(m.dim)
        # x = a*(A x_prev + b) + (1-a)*(A y + b), y = be*x + (1-be)*(A x + b)
        M = (1.0 - alpha) * (beta * A + (1.0 - beta) * (A @ A))
        rhs = (alpha * (A @ np.atleast_1d(x_prev) + b)
               + (1.0 - alpha) * ((1.0 - beta) * (A @ b) + b))
        x = np.linalg.solve(I - M, rhs)
        y = y_of(x)
        res = space.d(x, space.w(tx_prev, t(y), 1.0 - alpha))
        stats = InnerStats(1, res)
    else:
        def step_map(x):
            return space.w(tx_prev, t(y_of(x)), 1.0 - alpha)
        x, stats = _picard_solve(space, step_map, x_prev, cfg)
        y = y_of(x)
    return x, y, stats


def implicit_ishikawa_step(space: Space, t: ContractiveLike, x_prev,
                           alpha: float, beta: float,
                           cfg: InnerSolverConfig = None):
    """Solve x = W(x_prev, T y, alpha), y = W(x, T x, beta) for x."""
    cfg = cfg or InnerSolverConfig()
    space.check_point(x_prev)

    def y_of(x):
        return space.w(x, t(x), 1.0 - beta)

    if cfg.mode == "exact-affine":
        m = _exact_affine(space, t)
        A, b, I = m.A, m.b, np.eye(m.dim)
        M = (1.0 - alpha) * (beta * A + (1.0 - beta) * (A @ A))
        rhs = (alpha * np.atleast_1d(x_prev)
               + (1.0 - alpha) * ((1.0 - beta) * (A @ b) + b))
        x = np.linalg.solve(I - M, rhs)
        y = y_of(x)
        res = space.d(x, space.w(x_prev, t(y), 1.0 - alpha))
        stats = InnerStats(1, res)
    else:
        def step_map(x):
            return space.w(x_prev, t(y_of(x)), 1.0 - alpha)
        x, stats = _picard_solve(space, step_map, x_prev, cfg)
        y = y_of(x)
    return x, y, stats


def implicit_mann_step(space: Space, t: ContractiveLike, x_prev, alpha: float,
                       cfg: InnerSolverConfig = None):
    """Solve x = W(x_prev, T x, alpha) for x."""
    cfg = cfg or InnerSolverConfig()
    space.check_point(x_prev)
    if alpha == 1.0:
        return x_prev, InnerStats(0, 0.0)

    if cfg.mode == "exact-affine":
        m = _exact_affine(space, t)
        A, b, I = m.A, m.b, np.eye(m.dim)
        x = np.linalg.solve(I - (1.0 - alpha) * A,
                            alpha * np.atleast_1d(x_prev) + (1.0 - alpha) * b)
        res = space.d(x, space.w(x_prev, t(x), 1.0 - alpha))
        stats = InnerStats(1, res)
    else:
        def step_map(x):
            return space.w(x_prev, t(x), 1.0 - alpha)
        x, stats = _picard_solve(space, step_map, x_prev, cfg)
    return x, stats


# ---------------------------------------------------------------------------
# full runs


@dataclass
class StepRecord:
    n: int
    x: object
    y: object = None
    inner_iterations: int = 0
    inner_residual: float = 0.0
    dist_to_p: Optional[float] = None


@dataclass
class IterationTrace:
    scheme: str
    schedule: str
    records: list = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def distances(self):
        """dist_to_p sequence, skipping records where p was unknown."""
        return [r.dist_to_p for r in self.records if r.dist_to_p is not None]

    def final(self):
        return self.records[-1]

    def to_csv(self, space: Space) -> str:
        lines = ["n,x,inner_iters,residual,dist_to_p"]
        for r in self.records:
            dist = "" if r.dist_to_p is None else repr(r.dist_to_p)
            lines.append(f"{r.n},{space.format_point(r.x)},"
                         f"{r.inner_iterations},{r.inner_residual!r},{dist}")
        return "\n".join(lines) + "\n"


def run(space: Space, t: ContractiveLike, scheme: str, schedule: Schedule,
        x0, n_max: int, cfg: InnerSolverConfig = None,
        p=None) -> IterationTrace:
    """Full iteration run; record n = 1 is the initial value x0.

    Steps are taken for n = 2..n_max, matching the index origin where the
    n = 1 schedule entries are zero and unused.  If a step fails, the raised
    NonconvergenceError carries the partial trace.
    """
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    if scheme not in SCHEME_IDS:
        raise ConfigError(f"unknown scheme {scheme!r}")
    cfg = cfg or InnerSolverConfig()
    if p is None:
        p = t.fixed_point
    space.check_point(x0)

    trace = IterationTrace(scheme, schedule.name)

    def dist(x):
        return None if p is None else space.d(x, p)

    trace.records.append(StepRecord(1, x0, dist_to_p=dist(x0)))
    x = x0
    for n in range(2, n_max + 1):
        a = schedule.alpha_at(n)
        try:
            if scheme == "implicit-s":
                x, y, stats = implicit_s_step(space, t, x, a, schedule.beta_at(n), cfg)
            elif scheme == "implicit-ishikawa":
                x, y, stats = implicit_ishikawa_step(space, t, x, a, schedule.beta_at(n), cfg)
            else:
                x, stats = implicit_mann_step(space, t, x, a, cfg)
                y = None
        except NonconvergenceError as exc:
            exc.trace = trace
            raise
        trace.records.append(StepRecord(n, x, y, stats.iterations,
                                        stats.residual, dist(x)))
    return trace

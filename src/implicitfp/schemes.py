"""Implicit S-, Ishikawa- and Mann-type iterations with a Picard inner solver.

The three schemes are one recursion (weights written the way the convergence
analysis uses them, i.e. alpha on the first argument):

    x_n = W(anchor_n, T y_n, alpha_n),  y_n = W(x_n, T x_n, beta_n)

    implicit-s:        anchor_n = T x_{n-1}
    implicit-ishikawa: anchor_n = x_{n-1}
    implicit-mann:     anchor_n = x_{n-1}, beta_n = 1, so y_n = x_n

`implicit_step` solves one step for any outer and inner map; the
data-dependence u-step uses it with T and its approximation S.  `_steps`,
the step loop of `run` and of the data-dependence x-sequence, checks each
step's weights and calls `_picard_solve` itself.  Maps are
treated as pure functions and evaluated once per point, across steps too:
the step hands back y_n and T x_n from the Picard iteration that produced
x_n, and T x_n carries over as the next implicit-S anchor and into the next
step's first Picard iteration.  The space's
convexity mapping follows the axiom-(i) convention (weight 1-lam on the
first argument), so the step calls w(.., .., 1-alpha) / (.., 1-beta).  x_n
appears on both sides; the step is solved by Picard iteration on the step
map, or in closed form for affine maps on Euclidean space.  When phi == 0,
T is delta-Lipschitz and the step map's Lipschitz constant is
(1-alpha)*delta*[beta+(1-beta)*delta] < 1.  For phi != 0 the
contractive-like inequality gives no such bound, and a step that does not
converge within the budget raises NonconvergenceError.

Halving and tripod-radial certify a chart factor c: on points that differ
only in the last coordinate s (one tripod ray), T is s -> c*s, W is
(1-lam)*a + lam*b and d is |a - b|, the expressions raw, raw_w and raw_d
evaluate there.  halfplane-vertical certifies ("log", c): on the line x = 0,
s = log y is an isometry onto the line, and in s T, W and d are the same
expressions.  A step on a chart is linear in s, so its Picard loop on s as
a float starts at the closed-form solution and only polishes it; the log
chart is taken only for e**-2 < y < e**2, where s is no coarser than the
floats near y = 1.  A certified map is trusted only there: off its chart
(as with `--x0 7,1e300`) every map output is checked.  `_steps` enters the
chart once per run, then carries s from step to step and solves each step
inline, on floats.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional

from .errors import ConfigError, InvalidPointError, NonconvergenceError
from .mappings import AffineMap, ContractiveLike
from .spaces import Euclidean, Space, check_lambda

SCHEME_IDS = ("implicit-s", "implicit-ishikawa", "implicit-mann")


# ---------------------------------------------------------------------------
# schedules


@dataclass
class Schedule:
    """Parameter sequences alpha_n, beta_n in [0, 1], indexed from n = 1."""

    alpha: Callable[[int], float]
    beta: Callable[[int], float]
    name: str = "custom"

    def weights(self, n_max: int) -> list:
        """[(alpha_n, beta_n) for n = 2..n_max]: the one place a schedule is
        evaluated and checked.  ConfigError unless n_max >= 1, then alpha_n
        before beta_n, stopping at the first value outside [0, 1].  Where
        beta is alpha (one function for both), it is evaluated once per n."""
        if n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {n_max}")
        alpha, beta, out = self.alpha, self.beta, []
        for n in range(2, n_max + 1):
            a = float(alpha(n))
            if not (0.0 <= a <= 1.0):
                raise ConfigError(f"alpha_{n} = {a} outside [0, 1]")
            b = a if beta is alpha else float(beta(n))
            if not (0.0 <= b <= 1.0):
                raise ConfigError(f"beta_{n} = {b} outside [0, 1]")
            out.append((a, b))
        return out


def default_schedule() -> Schedule:
    """alpha_n = beta_n = 1 - 1/n for n >= 2, zero at n = 1."""
    f = lambda n: 0.0 if n < 2 else 1.0 - 1.0 / n
    return Schedule(f, f, name="default")


def constant_schedule(a: float, b: Optional[float] = None) -> Schedule:
    if b is None:
        b = a
    return Schedule(lambda n: a, lambda n: b, name=f"constant:{a},{b}")


def polynomial_schedule(q: float) -> Schedule:
    """alpha_n = beta_n = 1 - n^(-q); sum(1-alpha) diverges iff q <= 1."""
    if q <= 0:
        raise ConfigError(f"polynomial exponent must be > 0, got {q}")
    f = lambda n: 0.0 if n < 2 else 1.0 - float(n) ** (-q)
    return Schedule(f, f, name=f"polynomial:{q}")


def schedule_from_name(name: str) -> Schedule:
    if name == "default":
        return default_schedule()
    if name.startswith("constant:"):
        try:
            parts = [float(v) for v in name.split(":", 1)[1].split(",")]
        except ValueError:
            raise ConfigError(f"bad constant schedule {name!r}")
        if len(parts) > 2:
            raise ConfigError(f"constant schedule takes one or two values, got {name!r}")
        if not all(0.0 <= p <= 1.0 for p in parts):
            raise ConfigError(f"schedule values outside [0, 1] in {name!r}")
        return constant_schedule(*parts)
    if name.startswith("polynomial:"):
        try:
            return polynomial_schedule(float(name.split(":", 1)[1]))
        except ValueError:
            raise ConfigError(f"bad polynomial schedule {name!r}")
    raise ConfigError(f"unknown schedule {name!r}")


_EXPR_FUNCTIONS = {"sqrt": math.sqrt, "log": math.log, "exp": math.exp,
                   "min": min, "max": max}
_EXPR_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
                   ast.Mult: operator.mul, ast.Div: operator.truediv,
                   ast.Pow: operator.pow}


def _expr_function(node):
    if isinstance(node, ast.Name) and node.id in _EXPR_FUNCTIONS:
        return _EXPR_FUNCTIONS[node.id]
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and not node.attr.startswith("_")
            and callable(getattr(math, node.attr, None))):
        return getattr(math, node.attr)
    raise ConfigError(f"schedule expressions cannot call {ast.unparse(node)!r}")


def _compile_expr(node):
    """A function of n for an expression tree, or ConfigError.

    Allowed: numbers, n, + - * / **, unary minus, and calls to sqrt, log,
    exp, min, max and public math.<name>.  Nothing else is evaluated, so an
    expression cannot reach attributes or builtins.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = float(node.value)  # OverflowError for an int past the floats
        return lambda n: value
    if isinstance(node, ast.Name) and node.id == "n":
        return lambda n: n
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        f = _compile_expr(node.operand)
        return lambda n: -f(n)
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPERATORS:
        op = _EXPR_OPERATORS[type(node.op)]
        f, g = _compile_expr(node.left), _compile_expr(node.right)
        return lambda n: op(f(n), g(n))
    if isinstance(node, ast.Call) and not node.keywords:
        fn = _expr_function(node.func)
        args = [_compile_expr(a) for a in node.args]
        return lambda n: fn(*[a(n) for a in args])
    raise ConfigError(f"schedule expressions allow numbers, n, + - * / ** and "
                      f"math functions, not {ast.unparse(node)!r}")


def expression_schedule(alpha_expr: str, beta_expr: Optional[str] = None) -> Schedule:
    """Schedule from inline expressions in the variable n, e.g. '1-1/n'.

    n = 1 always yields 0 (the initial index carries no update).  It is
    evaluated in floats, n and integer literals included, so no integer
    grows without bound: a power past the floats raises OverflowError and
    factorial or comb a TypeError, either one a ConfigError.
    """
    if beta_expr is None:
        beta_expr = alpha_expr

    def make(expr):
        try:
            g = _compile_expr(ast.parse(expr, "<string>", "eval").body)
        except (SyntaxError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad schedule expression: {exc}")

        def f(n):
            if n < 2:
                return 0.0
            try:
                return float(g(float(n)))
            except (ArithmeticError, ValueError, TypeError) as exc:
                raise ConfigError(f"bad schedule expression {expr!r} at n={n}: {exc}")
        return f

    alpha, beta = make(alpha_expr), make(beta_expr)
    alpha(2), beta(2)
    return Schedule(alpha, beta, name=f"expr:{alpha_expr};{beta_expr}")


# ---------------------------------------------------------------------------
# inner solver


@dataclass
class InnerSolverConfig:
    tolerance: float = 1e-14
    max_iterations: int = 10_000
    mode: str = "picard"  # picard | exact-affine

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:  # nan fails too
            raise ConfigError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.mode not in ("picard", "exact-affine"):
            raise ConfigError(f"unknown inner solver mode {self.mode!r}")


@dataclass(slots=True)
class InnerStats:
    iterations: int
    residual: float
    # y, inner(x) and outer(y) at the returned x, as the step map computed them
    y: object = None
    inner_x: object = None
    outer_y: object = None


def _picard_solve(space: Space, outer, inner, anchor, x0, la: float, lb,
                  cfg: InnerSolverConfig, ix0):
    """Solve x = W(anchor, outer(y), 1-la), y = W(x, inner(x), 1-lb) by Picard iteration.

    Each iteration evaluates the step map at x inline: ix = inner(x), then
    y = raw_w(x, ix, lb), oy = outer(y) and fx = raw_w(anchor, oy, la).
    lb None marks a Mann step: y = x and oy = ix, so inner, which the caller
    passes as outer, is the only map called.  ix0, unless None, is inner(x0)
    and stands in for the first call.  anchor, x0 and ix0 must be checked;
    each map output is checked, and a non-finite residual d(x, fx) re-checks
    both points (InvalidPointError for an invalid one).  Once within
    tolerance, keeps polishing while the residual strictly decreases, so
    accepted iterates sit near the machine fixed point.  Returns
    (x, InnerStats) with the residual, y, ix and oy at that x.  A step on a
    map's chart is solved by the same loop on floats, inline in `_steps`.
    """
    x, ix, best, tol = x0, ix0, None, cfg.tolerance  # best: (residual, x, y, ix, oy)
    check, isfinite, raw_d, raw_w = space.check_point, math.isfinite, space.raw_d, space.raw_w
    for k in range(1, cfg.max_iterations + 1):
        if ix is None:
            ix = check(inner(x))
        if lb is None:
            y, oy = x, ix
        else:
            y = raw_w(x, ix, lb)
            oy = check(outer(y))
        fx = raw_w(anchor, oy, la)
        try:
            res = raw_d(x, fx)
        except (ArithmeticError, ValueError):  # e.g. a half-plane point with y <= 0
            res = math.nan
        if res <= tol:
            if best is not None and res >= best[0]:
                break
            best = (res, x, y, ix, oy)
            if res == 0.0:
                break
        elif not isfinite(res):
            check(x)
            check(fx)
        x, ix = fx, None
    if best is None:
        raise NonconvergenceError(
            f"inner solver exceeded {cfg.max_iterations} iterations",
            residual=res)
    res, x, y, ix, oy = best
    return x, InnerStats(k, res, y, ix, oy)


# ---------------------------------------------------------------------------
# the implicit step


def step_chart(space: Space, t: ContractiveLike, cfg: InnerSolverConfig):
    """The chart of t's closed certificate on space if cfg's mode is Picard,
    where steps call t.raw, else None.  `_steps` enters it."""
    cert = cfg.mode == "picard" and t.closed_on(space)
    return cert[3] if cert else None


def check_mode(cfg: InnerSolverConfig, space: Space, outer, inner):
    """ConfigError unless cfg's mode can solve a step with these maps.

    Picard mode takes any maps.  exact-affine mode needs one AffineMap, as
    both outer and inner, on Euclidean space.
    """
    if cfg.mode == "exact-affine" and not (
            outer is inner and isinstance(space, Euclidean)
            and isinstance(outer, AffineMap)):
        raise ConfigError("exact-affine mode requires an affine map on Euclidean space")


def implicit_step(space: Space, outer, inner, anchor, x_prev, alpha: float,
                  beta: float, cfg: InnerSolverConfig = None, inner_x_prev=None):
    """Solve x = W(anchor, outer(y), alpha), y = W(x, inner(x), beta) for x.

    outer and inner are plain callables on checked points, such as a map's
    `raw` (`run` passes T.raw for both in Picard mode); the solver calls
    them only on points in the form check_point returns and checks each
    output.  Checks x_prev, anchor and the weights
    once, then hands the solve to `_picard_solve`, started at x_prev with
    inner_x_prev (the caller's checked inner(x_prev), if given) for its
    first inner call.  alpha == 1 returns the anchor without iterating, and
    mode "exact-affine" solves an affine map on Euclidean space in closed
    form: it needs the AffineMap itself (a map's `apply`) as outer and
    inner, for A and b (see `check_mode`).  beta == 1 takes y = x itself
    rather than W(x, inner(x), 0), which is not bit-exact x on every space.  The maps are treated as pure
    functions and evaluated once per point, each output checked.  Returns
    (x, y, InnerStats); y, stats.inner_x = inner(x) and stats.outer_y =
    outer(y) come from the step map evaluation at x, so a caller reuses
    them: T x_n is the next implicit-S anchor and the next inner_x_prev.
    Points are passed and returned in the form check_point gives (tuples of
    floats on Euclidean space), so no array is built in the iteration.
    Every map output is checked: the chart of a certified map is entered by
    `_steps`, not here.  `_steps` takes its Picard steps at alpha < 1 to
    `_picard_solve` directly, and this function only its steps at
    alpha == 1 and in exact-affine mode.
    """
    cfg = cfg or InnerSolverConfig()
    check, raw_w = space.check_point, space.raw_w
    # Ishikawa and Mann pass x_prev itself as the anchor: one check covers both
    anchor_is_x_prev = anchor is x_prev
    x_prev = check(x_prev)
    check_mode(cfg, space, outer, inner)
    exact = cfg.mode == "exact-affine"
    anchor = x_prev if anchor_is_x_prev else check(anchor)
    la, lb = 1.0 - alpha, 1.0 - beta
    check_lambda(la)
    check_lambda(lb)
    # at beta == 1, y = x and only outer is called, giving inner(x) if outer is inner
    mann = beta == 1.0
    if mann and outer is not inner:
        inner_x_prev = None
    step_inner = outer if mann else inner
    if alpha != 1.0 and not exact:
        x, stats = _picard_solve(space, outer, step_inner, anchor, x_prev, la,
                                 None if mann else lb, cfg, inner_x_prev)
    else:  # x is known: evaluate the step map there once
        x = anchor
        if alpha != 1.0:
            # x = a*anchor + (1-a)*(A y + b), y = be*x + (1-be)*(A x + b)
            import numpy as np

            A, b = outer.A, outer.b
            M = la * (beta * A + lb * (A @ A))
            rhs = alpha * np.array(anchor) + la * (lb * (A @ b) + b)
            x = check(np.linalg.solve(np.eye(len(b)) - M, rhs))
        if x is x_prev and inner_x_prev is not None:
            ix = inner_x_prev
        else:
            ix = check(step_inner(x))
        if mann:
            y, oy = x, ix
        else:
            y = raw_w(x, ix, lb)
            oy = check(outer(y))
        stats = (InnerStats(0, 0.0, y, ix, oy) if alpha == 1.0 else
                 InnerStats(1, space.d(x, raw_w(anchor, oy, la)), y, ix, oy))
    if mann and outer is not inner:
        stats.inner_x = check(inner(x))
    return x, stats.y, stats


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


class IterationTrace:
    """The iterates of one run, record n = 1 being x0.

    The run keeps one row per record: n, the checked points x and y (None at
    n = 1), the inner iterations and residual, and the distance to p.
    `records` builds the StepRecords from the rows when first read, points
    in the space's public form (float arrays on Euclidean space), and keeps
    them, so a change to a record persists.  `distances()` and `len` read
    the rows and build no record.
    """

    def __init__(self, scheme: str, space: Space, rows: list):
        self.scheme = scheme
        self._public, self._rows, self._records = space.public, rows, None

    @property
    def records(self) -> list:
        if self._records is None:
            public = self._public
            self._records = [StepRecord(n, public(x), None if y is None else public(y),
                                        iters, res, dist)
                             for n, x, y, iters, res, dist in self._rows]
        return self._records

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self.records)

    def distances(self):
        """dist_to_p sequence as the run computed it, skipping rows where p
        was unknown."""
        return [r[5] for r in self._rows if r[5] is not None]

    def to_csv(self, space: Space) -> str:
        lines = ["n,x,inner_iters,residual,dist_to_p"]
        for r in self.records:
            dist = "" if r.dist_to_p is None else repr(r.dist_to_p)
            lines.append(f"{r.n},{space.format_point(r.x)},"
                         f"{r.inner_iterations},{r.inner_residual!r},{dist}")
        return "\n".join(lines) + "\n"


# the log chart's domain e**-2 < y < e**2: there |log y| <= 2, so no s is
# coarser than the floats near y = 1 (ulp(s) <= ulp(1.0))
_LOG_CHART_Y = (math.exp(-2.0), math.exp(2.0))


def _on_vertical(p) -> bool:
    """Whether p is a tuple of two floats (x, y) with x == 0.0 (or -0.0) and y
    in the log chart's domain."""
    return (type(p) is tuple and len(p) == 2 and type(p[0]) is float and p[0] == 0.0
            and type(p[1]) is float and _LOG_CHART_Y[0] < p[1] < _LOG_CHART_Y[1])


def _chart_head(chart, x, tx):
    """The head of the checked points x and tx = T x, which cover a step's
    anchor, if both lie on a certified map's chart, else None: the point at
    coordinate s is head + (s,) on a factor chart (x[:-1], whose objects
    T x shares) and head + (exp(s),) = (0.0, exp(s)) on the log chart, as
    raw_w builds them."""
    if type(chart) is tuple:  # ("log", c): s = log y on the line x = 0, near y = 1
        if _on_vertical(x) and _on_vertical(tx):
            return (0.0,)
    elif type(x) is type(tx) is tuple and len(tx) == len(x) and all(map(operator.is_, x[:-1], tx)):
        return x[:-1]
    return None


def _steps(space: Space, t: ContractiveLike, scheme: str, weights: list, x0,
           cfg: InnerSolverConfig, images: bool = False):
    """Yield (x, y, stats) for x0, record n = 1 (stats (0, 0.0) with inner_x =
    T x0), then for each step n = 2, 3, ... of scheme, one per (alpha_n, beta_n).

    x and y are checked points.  Each step first checks its weights, as
    implicit_step does (Mann's beta is 1).  The steps call t.raw, or t.apply
    (the AffineMap) in exact-affine mode.  Each step tests entry to the
    chart of a certified map (`step_chart`) only until its x_{n-1} and
    T x_{n-1} lie on it.  From there the run never leaves it: it carries s
    and T s across steps (on the log chart, the anchor's read off its point)
    and solves each step here, by `_picard_solve`'s loop on floats that
    starts at the step's closed form, calls no map and checks no point
    unless the residual is not finite.  With images its stats carry y,
    T x_n and T y_n as points, as off the chart.  Off the chart a Picard
    step checks x_{n-1} and calls `_picard_solve`, its anchor T x_{n-1}
    (S) already checked as the last step's map output, or as T x0 where
    the run starts off its chart; a step at alpha == 1 or in exact-affine
    mode is `implicit_step` on points.  A failed step raises unlabelled,
    for the caller to name.
    """
    T = t.apply if cfg.mode == "exact-affine" else t.raw
    chart = step_chart(space, t, cfg)
    implicit_s, mann = scheme == "implicit-s", scheme == "implicit-mann"
    logy, picard = type(chart) is tuple, cfg.mode == "picard"
    c = chart[1] if logy else chart
    check, isfinite, exp, log = space.check_point, math.isfinite, math.exp, math.log
    tol, budget = cfg.tolerance, range(1, cfg.max_iterations + 1)
    tx = T(x0)
    if chart is None or _chart_head(chart, x0, tx) is None:
        tx = check(tx)  # T x0 is trusted only where the run starts on its chart
    x, head = x0, None
    yield x0, None, InnerStats(0, 0.0, inner_x=tx)
    for a, b in weights:
        if mann:
            b = 1.0
        la, lb = 1.0 - a, 1.0 - b
        if not 0.0 <= la <= 1.0 >= lb >= 0.0:
            check_lambda(la)
            check_lambda(lb)
        if head is None and chart is not None:
            head = _chart_head(chart, x, tx)
            if head is not None:
                s, ts = (log(x[1]), log(tx[1])) if logy else (x[-1], tx[-1])
        lb = None if b == 1.0 else lb
        if head is None or a == 1.0:  # off the chart, or x is the anchor
            if tx is None:
                tx = head + (exp(ts) if logy else ts,)
            if a == 1.0 or not picard:
                x, y, stats = implicit_step(space, T, T, tx if implicit_s else x, x, a, b, cfg, tx)
            else:
                x = check(x)
                x, stats = _picard_solve(space, T, T, tx if implicit_s else x, x, la, lb, cfg, tx)
                y = stats.y
            tx = stats.inner_x
            if head is not None:
                s, ts = (log(x[1]), log(tx[1])) if logy else (x[-1], tx[-1])
            yield x, y, stats
            continue
        # the step is linear in s: start at its closed form (bounds.step_factors'
        # denominator), at s_{n-1} only where that is not a finite float
        ma, mb, sa = 1.0 - la, None if lb is None else 1.0 - lb, ts if implicit_s else s
        den = 1.0 - la * c * (1.0 if lb is None else mb + lb * c)
        z, iz, best = ma * sa / den if den > 0.0 else math.nan, None, None
        if not isfinite(z):
            z, iz = s, ts
        for k in budget:  # T is c*s, W (1-lam)*a + lam*b and d abs(a - b)
            if iz is None:
                iz = c * z
            if lb is None:
                y, oy = z, iz
            else:
                y = mb * z + lb * iz
                oy = c * y
            fz = ma * sa + la * oy
            res = abs(z - fz)
            if res <= tol:
                if best is not None and res >= best[0]:
                    break
                best = (res, z, y, iz, oy)
                if res == 0.0:
                    break
            elif not isfinite(res):
                check(head + (exp(z) if logy else z,))
                check(head + (exp(fz) if logy else fz,))
            z, iz = fz, None
        if best is None:
            raise NonconvergenceError(f"inner solver exceeded {cfg.max_iterations} iterations",
                                      residual=res)
        res, s, y, ts, oy = best
        x = head + (exp(s) if logy else s,)
        y = x if lb is None else head + (exp(y) if logy else y,)
        tx = head + (exp(ts) if logy else ts,) if images or logy and implicit_s else None
        ty = (tx if lb is None else head + (exp(oy) if logy else oy,)) if images else None
        if logy:  # the next anchor is read off its point, as off the chart
            if implicit_s:
                ts = log(tx[1])
            else:
                s = log(x[1])
        yield x, y, InnerStats(k, res, y, tx, ty)


def run(space: Space, t: ContractiveLike, scheme: str, weights: list, x0,
        cfg: InnerSolverConfig = None) -> IterationTrace:
    """Full iteration run; record n = 1 is the initial value x0.

    Step n = 2..n_max takes (alpha_n, beta_n) from weights, a schedule's
    checked list `Schedule.weights(n_max)`, so the trace has len(weights) + 1
    records.  If a step fails, the raised
    NonconvergenceError names the scheme and the step and carries the inner
    solver's residual and the partial trace, and an InvalidPointError names
    the step.  The distances are to t.fixed_point, where it is known.  The
    steps come from `_steps`, which trusts the map's outputs only on the
    chart from `step_chart`, and the trace keeps them as they are; its
    records turn them into the space's public form when first read.
    """
    if scheme not in SCHEME_IDS:
        raise ConfigError(f"unknown scheme {scheme!r}")
    cfg = cfg or InnerSolverConfig()
    p, x0 = t.fixed_point, space.check_point(x0)
    if p is not None:
        p = space.check_point(p)
    raw_d = space.raw_d
    rows = [(1, x0, None, 0, 0.0, None if p is None else raw_d(x0, p))]
    trace = IterationTrace(scheme, space, rows)
    try:
        # record n = 1 is rows[0]; the generator's first resume gives T x0
        for x, y, stats in islice(_steps(space, t, scheme, weights, x0, cfg), 1, None):
            rows.append((len(rows) + 1, x, y, stats.iterations, stats.residual,
                         None if p is None else raw_d(x, p)))
    except NonconvergenceError as exc:
        raise NonconvergenceError(f"{scheme} step n={len(rows) + 1}: {exc}",
                                  residual=exc.residual, trace=trace) from exc
    except InvalidPointError as exc:
        raise InvalidPointError(f"step n={len(rows) + 1}: {exc}") from exc
    return trace

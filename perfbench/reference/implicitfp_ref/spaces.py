"""W-hyperbolic spaces: a metric d plus a convexity mapping w.

The convexity mapping follows the axiom-(i) convention: the weight (1-lam)
attaches to the FIRST argument, so w(x, y, 0) = x and w(x, y, 1) = y.

Built-in instances:
  * Euclidean(dim)  -- R^dim with the usual metric, w = linear interpolation
  * Tripod          -- three rays glued at a hub (an R-tree), path metric
  * HalfPlane       -- Poincare upper half-plane, geodesic interpolation
  * BrokenDemo      -- deliberate counterexample (w(x,y,lam) := y) used to
                       self-test the axiom checker
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidPointError

TRIPOD_RAYS = ("A", "B", "C")


class Space:
    """Base interface: d(x, y), w(x, y, lam), domain check, sampling."""

    name = "abstract"

    def d(self, x, y):
        raise NotImplementedError

    def w(self, x, y, lam):
        raise NotImplementedError

    def check_point(self, x):
        """Raise InvalidPointError if x is outside the domain."""
        raise NotImplementedError

    def sample(self, rng):
        raise NotImplementedError

    def format_point(self, x) -> str:
        raise NotImplementedError


def _check_lambda(lam):
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"interpolation parameter {lam} outside [0, 1]")


class Euclidean(Space):
    def __init__(self, dim=1):
        if dim < 1:
            raise ConfigError(f"euclidean dimension must be >= 1, got {dim}")
        self.dim = dim
        self.name = f"euclidean:{dim}"

    def as_array(self, x):
        v = np.atleast_1d(np.asarray(x, dtype=float))
        if v.shape != (self.dim,):
            raise InvalidPointError(f"expected {self.dim} coordinates, got {v.shape}")
        return v

    def check_point(self, x):
        v = self.as_array(x)
        if not np.all(np.isfinite(v)):
            raise InvalidPointError(f"non-finite coordinates: {x}")

    def d(self, x, y):
        self.check_point(x)
        self.check_point(y)
        return float(np.linalg.norm(self.as_array(x) - self.as_array(y)))

    def w(self, x, y, lam):
        self.check_point(x)
        self.check_point(y)
        _check_lambda(lam)
        return (1.0 - lam) * self.as_array(x) + lam * self.as_array(y)

    def sample(self, rng):
        return rng.uniform(-5.0, 5.0, size=self.dim)

    def format_point(self, x) -> str:
        return ";".join(repr(float(c)) for c in self.as_array(x))


class Tripod(Space):
    """Three labeled rays glued at a hub.

    Points are (ray, r) with ray in {"A","B","C"} and r >= 0; r = 0 is the
    hub regardless of ray label.  d((A,r),(A,s)) = |r-s|, d((A,r),(B,s)) =
    r+s for distinct rays.
    """

    name = "tripod"

    def check_point(self, x):
        ray, r = x
        if ray not in TRIPOD_RAYS:
            raise InvalidPointError(f"unknown ray {ray!r}")
        if not (math.isfinite(r) and r >= 0.0):
            raise InvalidPointError(f"radius must be finite and >= 0, got {r}")

    def d(self, x, y):
        self.check_point(x)
        self.check_point(y)
        (rx, a), (ry, b) = x, y
        if rx == ry or a == 0.0 or b == 0.0:
            return abs(a - b)
        return a + b

    def w(self, x, y, lam):
        self.check_point(x)
        self.check_point(y)
        _check_lambda(lam)
        (rx, a), (ry, b) = x, y
        if rx == ry or a == 0.0 or b == 0.0:
            # single ray (the hub belongs to every ray)
            ray = ry if a == 0.0 else rx
            return (ray, (1.0 - lam) * a + lam * b)
        # geodesic runs through the hub; arc length from x is lam*(a+b)
        t = lam * (a + b)
        if t <= a:
            return (rx, a - t)
        return (ry, t - a)

    def sample(self, rng):
        return (TRIPOD_RAYS[rng.integers(0, 3)], float(rng.uniform(0.0, 3.0)))

    def format_point(self, x) -> str:
        return f"{x[0]}:{x[1]!r}"


class HalfPlane(Space):
    """Poincare upper half-plane {(x, y) : y > 0} with its hyperbolic metric.

    Distance: d = 2*asinh(|z1-z2| / (2*sqrt(y1*y2))), the stable form of
    arccosh(1 + |z1-z2|^2/(2*y1*y2)).

    Interpolation conjugates the pair by an isometry taking the geodesic to
    the imaginary axis (translate/scale sending x to i, then a rotation about
    i), interpolates i*s^lam there, and maps back.
    """

    name = "halfplane"

    def check_point(self, z):
        x, y = z
        if not (math.isfinite(x) and math.isfinite(y) and y > 0.0):
            raise InvalidPointError(f"half-plane requires finite coords with y > 0, got {z}")

    def d(self, z1, z2):
        self.check_point(z1)
        self.check_point(z2)
        (x1, y1), (x2, y2) = z1, z2
        q = math.hypot(x1 - x2, y1 - y2) / (2.0 * math.sqrt(y1 * y2))
        return 2.0 * math.asinh(q)

    def w(self, z1, z2, lam):
        self.check_point(z1)
        self.check_point(z2)
        _check_lambda(lam)
        (x1, y1), (x2, y2) = z1, z2
        # normalize: z1 -> i
        a = (x2 - x1) / y1
        b = y2 / y1
        # rotate about i so the image of z2 lands on the imaginary axis;
        # rotations are z -> (z cos + sin)/(-z sin + cos), t = tan(theta)
        # solves a*t^2 + (|z|^2 - 1)*t - a = 0 (roots t and -1/t)
        if a == 0.0:
            t = 0.0
        else:
            B = a * a + b * b - 1.0
            qroot = -(B + math.copysign(math.sqrt(B * B + 4.0 * a * a), B)) / 2.0
            if qroot == 0.0:  # B == 0 and a == 0 handled above
                t = math.copysign(1.0, a)
            else:
                t = -a / qroot
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = t * c
        # image of z2 under the rotation (z1 maps to i, which is fixed)
        zr = complex(a, b)
        img = (zr * c + s) / (-zr * s + c)
        height = abs(img)  # img is (numerically) i*height
        if height <= 0.0:
            raise InvalidPointError("degenerate half-plane interpolation")
        wim = complex(0.0, math.exp(lam * math.log(height)))
        # undo the rotation, then the translate/scale
        back = (wim * c - s) / (wim * s + c)
        return (x1 + y1 * back.real, y1 * back.imag)

    def sample(self, rng):
        return (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.1, 5.0)))

    def format_point(self, z) -> str:
        return f"{z[0]!r};{z[1]!r}"


class BrokenDemo(Space):
    """Euclidean line with w(x, y, lam) := y; violates axiom (ii)."""

    name = "broken-demo"

    def __init__(self):
        self._base = Euclidean(1)

    def check_point(self, x):
        self._base.check_point(x)

    def d(self, x, y):
        return self._base.d(x, y)

    def w(self, x, y, lam):
        self.check_point(x)
        self.check_point(y)
        _check_lambda(lam)
        return self._base.as_array(y)

    def sample(self, rng):
        return self._base.sample(rng)

    def format_point(self, x) -> str:
        return self._base.format_point(x)


def from_name(name: str) -> Space:
    """Resolve a space by its CLI/config identifier."""
    if name.startswith("euclidean:"):
        try:
            dim = int(name.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad euclidean dimension in {name!r}")
        return Euclidean(dim)
    if name == "euclidean":
        return Euclidean(1)
    if name == "tripod":
        return Tripod()
    if name == "halfplane":
        return HalfPlane()
    if name == "broken-demo":
        return BrokenDemo()
    raise ConfigError(f"unknown space {name!r}")


# ---------------------------------------------------------------------------
# convex subsets

class ConvexSubset:
    def contains(self, point) -> bool:
        raise NotImplementedError

    def sample(self, rng):
        raise NotImplementedError


@dataclass
class Interval(ConvexSubset):
    """[lo, hi] on the Euclidean line."""

    lo: float
    hi: float
    space: Euclidean = field(default_factory=lambda: Euclidean(1), repr=False)

    def contains(self, point) -> bool:
        v = float(self.space.as_array(point)[0])
        return self.lo <= v <= self.hi

    def sample(self, rng):
        return np.array([rng.uniform(self.lo, self.hi)])


@dataclass
class Ball(ConvexSubset):
    """Closed Euclidean ball."""

    center: object
    radius: float
    space: Euclidean = field(default_factory=lambda: Euclidean(1), repr=False)

    def contains(self, point) -> bool:
        return self.space.d(point, self.center) <= self.radius

    def sample(self, rng):
        c = self.space.as_array(self.center)
        v = rng.normal(size=self.space.dim)
        v /= np.linalg.norm(v)
        return c + v * self.radius * rng.uniform() ** (1.0 / self.space.dim)


@dataclass
class TripodBall(ConvexSubset):
    """Points of the tripod within distance R of the hub (convex in R-trees)."""

    radius: float
    space: Tripod = field(default_factory=Tripod, repr=False)

    def contains(self, point) -> bool:
        self.space.check_point(point)
        return point[1] <= self.radius

    def sample(self, rng):
        return (TRIPOD_RAYS[rng.integers(0, 3)], float(rng.uniform(0.0, self.radius)))


@dataclass
class VerticalLine(ConvexSubset):
    """A vertical geodesic {x = x0} of the half-plane."""

    x0: float
    y_lo: float = 0.05
    y_hi: float = 20.0
    space: HalfPlane = field(default_factory=HalfPlane, repr=False)

    def contains(self, point) -> bool:
        self.space.check_point(point)
        return abs(point[0] - self.x0) <= 1e-9

    def sample(self, rng):
        return (self.x0, float(math.exp(rng.uniform(math.log(self.y_lo), math.log(self.y_hi)))))


# ---------------------------------------------------------------------------
# axiom checker

AXIOM_NAMES = ("metric", "axiom_i", "axiom_ii", "axiom_iii", "axiom_iv")


@dataclass
class AxiomResult:
    name: str
    max_violation: float
    worst_tuple: object
    passed: bool


@dataclass
class AxiomReport:
    space: str
    n_samples: int
    tol: float
    results: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def failing(self):
        return [r.name for r in self.results.values() if not r.passed]


def check_axioms(space: Space, sampler=None, n_samples: int = 1000,
                 tol: float = 1e-9, seed: int = 0) -> AxiomReport:
    """Sample tuples (x, y, z, w, u, lam, mu) and measure axiom violations.

    Inequalities report the positive part of LHS-RHS; equalities report the
    absolute deviation.  Each axiom passes iff its max violation <= tol.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    rng = np.random.default_rng(seed)
    draw = sampler if sampler is not None else space.sample

    worst = {name: (0.0, None) for name in AXIOM_NAMES}

    def note(name, violation, tup):
        if violation > worst[name][0]:
            worst[name] = (violation, tup)

    for _ in range(n_samples):
        pts = [draw(rng) for _ in range(5)]
        for p in pts:
            space.check_point(p)
        x, y, z, v, u = pts
        lam = float(rng.uniform())
        mu = float(rng.uniform())

        dxy = space.d(x, y)
        # metric: identity, symmetry, triangle
        m = max(abs(space.d(x, x)),
                abs(dxy - space.d(y, x)),
                max(0.0, dxy - (space.d(x, z) + space.d(z, y))))
        note("metric", m, (x, y, z))

        wl = space.w(x, y, lam)
        wm = space.w(x, y, mu)
        # (i) d(u, w(x,y,lam)) <= (1-lam) d(u,x) + lam d(u,y)
        vi = space.d(u, wl) - ((1.0 - lam) * space.d(u, x) + lam * space.d(u, y))
        note("axiom_i", max(0.0, vi), (x, y, u, lam))
        # (ii) d(w(x,y,lam), w(x,y,mu)) = |lam-mu| d(x,y)
        vii = abs(space.d(wl, wm) - abs(lam - mu) * dxy)
        note("axiom_ii", vii, (x, y, lam, mu))
        # (iii) w(x,y,lam) = w(y,x,1-lam)
        viii = space.d(wl, space.w(y, x, 1.0 - lam))
        note("axiom_iii", viii, (x, y, lam))
        # (iv) d(w(x,z,lam), w(y,v,lam)) <= (1-lam) d(x,y) + lam d(z,v)
        viv = (space.d(space.w(x, z, lam), space.w(y, v, lam))
               - ((1.0 - lam) * space.d(x, y) + lam * space.d(z, v)))
        note("axiom_iv", max(0.0, viv), (x, y, z, v, lam))

    results = {
        name: AxiomResult(name, val, tup, val <= tol)
        for name, (val, tup) in worst.items()
    }
    return AxiomReport(space.name, n_samples, tol, results)


def interpolate(space: Space, x, y, lam):
    """Convexity-mapping evaluation; endpoint weights per axiom (i)."""
    return space.w(x, y, lam)

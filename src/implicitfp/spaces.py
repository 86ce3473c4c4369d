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
import sys
from dataclasses import dataclass

from .errors import ConfigError, InvalidPointError

TRIPOD_RAYS = ("A", "B", "C")
_FLOAT_MIN = sys.float_info.min  # smallest normal float
_HALF_MAX = sys.float_info.max / 2.0  # 2*x overflows above it
_INF = math.inf
_LOG2 = math.log(2.0)


class Space:
    """Base interface: d(x, y), w(x, y, lam), domain check, sampling.

    A space provides `check_point`, which validates a point and returns it in
    the form its raw primitives take, and the raw primitives `raw_d(x, y)`
    and `raw_w(x, y, lam)`, which trust their arguments.  The public `d` and
    `w` are the validating wrappers: they check every point (and lam) and
    then call the raw form.  Code that has already checked its points, such
    as the inner solver of `schemes.implicit_step`, calls the raw form.
    `public(x)` turns a raw point into the form results are reported in; it
    is the identity unless the space overrides it.

    The batched primitives work on a *batch*, the space's own array form of a
    sequence of points built by `pack`: row k of d_many(X, Y) is d(x_k, y_k)
    and row k of w_many(X, Y, lam) is w(x_k, y_k, lam_k) as a batch.  Only
    `pack` and `from_coords` validate; d_many and w_many trust their batches.

    Sampling is described once per space: `sample_box()` gives the box
    [lo, hi) of k uniform coordinates, `from_coords(C)` maps an (m, k) array
    of them to a validated batch (the batch `pack` would return), and
    `point_from_coords(c)` maps one row to a point.  `sample(rng)` draws one
    point as `point_from_coords(rng.uniform(lo, hi))`, and `check_axioms`
    draws whole blocks of coordinates through `from_coords`.

    A new space provides check_point, raw_d, raw_w, d_many, w_many,
    sample_box, from_coords, point_from_coords and format_point, and may
    override pack and public.
    """

    name = "abstract"

    def d(self, x, y):
        return self.raw_d(self.check_point(x), self.check_point(y))

    def w(self, x, y, lam):
        x, y = self.check_point(x), self.check_point(y)
        check_lambda(lam)
        return self.raw_w(x, y, lam)

    def check_point(self, x):
        """x in the form raw_d/raw_w take; InvalidPointError outside the domain."""
        raise NotImplementedError

    def raw_d(self, x, y):
        """d(x, y) for points already returned by check_point."""
        raise NotImplementedError

    def raw_w(self, x, y, lam):
        """w(x, y, lam) for checked points and lam in [0, 1]."""
        raise NotImplementedError

    def public(self, x):
        """A checked point in the form traces and reports hold."""
        return x

    def pack(self, points):
        """Batch a sequence of points: from_coords of the check_point-ed points."""
        import numpy as np

        k = len(self.sample_box()[0])  # an empty batch keeps its k columns
        return self.from_coords(np.array([self.check_point(p) for p in points],
                                         dtype=float).reshape(len(points), k))

    def d_many(self, X, Y):
        """Row-wise distances of two equal-length batches, as a float array."""
        raise NotImplementedError

    def w_many(self, X, Y, lam):
        """Row-wise convexity mapping; lam is a scalar or one weight per row."""
        raise NotImplementedError

    def sample_box(self):
        """(lo, hi): float arrays of the k coordinates a sample draws uniformly."""
        raise NotImplementedError

    def from_coords(self, C):
        """The batch of the points of an (m, k) coordinate array; InvalidPointError
        as in pack when a row maps outside the domain."""
        raise NotImplementedError

    def point_from_coords(self, c):
        """The point of one row of k coordinates drawn from the sampling box."""
        raise NotImplementedError

    def sample(self, rng):
        lo, hi = self.sample_box()
        return self.point_from_coords(rng.uniform(lo, hi))

    def format_point(self, x) -> str:
        raise NotImplementedError


def check_lambda(lam):
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"interpolation parameter {lam} outside [0, 1]")


class Euclidean(Space):
    """R^dim with the Euclidean metric and w = linear interpolation.

    A checked point is a tuple of dim Python floats, which `check_point` reads
    from any sequence of dim finite reals (a scalar at dim 1); the solver and
    the maps run on it.  `public` turns it into a float64 array of shape
    (dim,), the form of trace and report points.  `raw_d` is `math.dist`,
    which has the bits of `math.hypot` of the coordinate differences.
    `raw_w` is `(1 - lam)*x[i] + lam*y[i]` for each coordinate, computed by
    a function chosen by dim at construction: at dims 1-3 it writes each
    coordinate out as one expression, above that it is a comprehension.
    `raw_w` is a property that returns that function, so a subclass that
    defines a raw_w method still overrides it.  `check_point` is chosen the
    same way: at dims 1-3 the constructor sets a written-out check of a
    tuple of dim finite floats as an instance attribute, which sends any
    other input to the same reader as the loop above dim 3.  It does so only
    when the class's check_point is Euclidean's own, so a subclass override
    or a class-level patch made before the space is built wins, and a later
    instance attribute replaces it.
    """

    def __init__(self, dim=1):
        if dim < 1:
            raise ConfigError(f"euclidean dimension must be >= 1, got {dim}")
        self.dim = dim
        self.name = f"euclidean:{dim}"
        self._w = _EUCLIDEAN_W[dim - 1] if dim <= 3 else _w_any
        if dim <= 3 and type(self).check_point is _check_any:
            self.check_point = _EUCLIDEAN_CHECK[dim - 1]

    def check_point(self, x):
        if type(x) is tuple and len(x) == self.dim:
            # already a checked point: dim finite Python floats
            for c in x:
                if type(c) is not float or not math.isfinite(c):
                    break
            else:
                return x
        return _read_point(x, self.dim)

    raw_d = staticmethod(math.dist)

    @property
    def raw_w(self):
        """w(x, y, lam) for checked points: the function chosen for this dim."""
        return self._w

    def public(self, x):
        import numpy as np

        return np.array(x)

    def d_many(self, X, Y):
        import numpy as np

        D = X - Y
        if self.dim >= 8:  # numpy sums 8 or more columns pairwise
            return np.linalg.norm(D, axis=1)
        # below that, norm's own left-to-right sum of squares, without its
        # wrapper and its axis=1 reduce
        s = D[:, 0] * D[:, 0]
        for j in range(1, self.dim):
            s += D[:, j] * D[:, j]
        return np.sqrt(s)

    def w_many(self, X, Y, lam):
        import numpy as np

        lam = np.reshape(lam, (-1, 1))
        return (1.0 - lam) * X + lam * Y

    def sample_box(self):
        import numpy as np

        return np.full(self.dim, -5.0), np.full(self.dim, 5.0)

    def from_coords(self, C):
        import numpy as np

        if not np.isfinite(C).all():
            finite = np.isfinite(C).all(axis=1)
            raise InvalidPointError(f"non-finite coordinates: {C[np.argmin(finite)]}")
        return np.ascontiguousarray(C)

    def point_from_coords(self, c):
        return c

    def format_point(self, x) -> str:
        return ";".join(repr(float(c)) for c in x)


_check_any = Euclidean.check_point  # the loop, at any dim


def _read_point(x, dim):
    """Any sequence of dim finite reals (a scalar at dim 1) as a tuple of floats."""
    import numpy as np

    try:
        v = np.atleast_1d(np.asarray(x, dtype=float))
    except (TypeError, ValueError):  # ragged or non-numeric
        raise InvalidPointError(f"expected {dim} real coordinates, got {x!r}") from None
    except OverflowError:  # an int past the floats
        raise InvalidPointError(f"expected {dim} reals, got an int past the floats") from None
    if v.shape != (dim,):
        raise InvalidPointError(f"expected {dim} coordinates, got {v.shape}")
    v = v.tolist()
    if not all(map(math.isfinite, v)):
        raise InvalidPointError(f"non-finite coordinates: {x}")
    return tuple(v)


# Euclidean.check_point written out at dims 1, 2, 3: a tuple of dim floats
# whose differences a - a sum to 0.0, which holds iff every one is finite
# (inf - inf and nan - nan are nan), is already checked

def _check1(x):
    if type(x) is tuple and len(x) == 1:
        a, = x
        if type(a) is float and a - a == 0.0:
            return x
    return _read_point(x, 1)


def _check2(x):
    if type(x) is tuple and len(x) == 2:
        a, b = x
        if type(a) is float and type(b) is float and (a - a) + (b - b) == 0.0:
            return x
    return _read_point(x, 2)


def _check3(x):
    if type(x) is tuple and len(x) == 3:
        a, b, c = x
        if (type(a) is float and type(b) is float and type(c) is float
                and (a - a) + (b - b) + (c - c) == 0.0):
            return x
    return _read_point(x, 3)


_EUCLIDEAN_CHECK = (_check1, _check2, _check3)


def _w_any(x, y, lam):
    m = 1.0 - lam
    return tuple([m * a + lam * b for a, b in zip(x, y)])


def _w1(x, y, lam):
    m = 1.0 - lam
    return (m * x[0] + lam * y[0],)


def _w2(x, y, lam):
    m = 1.0 - lam
    return (m * x[0] + lam * y[0], m * x[1] + lam * y[1])


def _w3(x, y, lam):
    m = 1.0 - lam
    return (m * x[0] + lam * y[0], m * x[1] + lam * y[1], m * x[2] + lam * y[2])


_EUCLIDEAN_W = (_w1, _w2, _w3)  # Euclidean.raw_w written out at dims 1, 2, 3


class Tripod(Space):
    """Three labeled rays glued at a hub.

    Points are (ray, r) with ray in {"A","B","C"} and r >= 0; r = 0 is the
    hub regardless of ray label.  d((A,r),(A,s)) = |r-s|, d((A,r),(B,s)) =
    r+s for distinct rays.
    """

    name = "tripod"

    def check_point(self, x):
        try:
            ray, r = x
            if ray in TRIPOD_RAYS and math.isfinite(r) and r >= 0.0:
                return x
        except (TypeError, ValueError):  # no (ray, r) pair, or r no real
            raise InvalidPointError(f"expected a tripod point (ray, r), got {x!r}") from None
        except OverflowError:  # an int r past the floats
            raise InvalidPointError("radius is an int past the floats") from None
        if ray not in TRIPOD_RAYS:
            raise InvalidPointError(f"unknown ray {ray!r}")
        raise InvalidPointError(f"radius must be finite and >= 0, got {r}")

    def raw_d(self, x, y):
        (rx, a), (ry, b) = x, y
        if rx == ry or a == 0.0 or b == 0.0:
            return abs(a - b)
        return a + b

    def raw_w(self, x, y, lam):
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

    def pack(self, points):
        """(ray codes, radii): index into TRIPOD_RAYS, and r, as two arrays."""
        import numpy as np

        for p in points:
            self.check_point(p)
        codes = np.array([TRIPOD_RAYS.index(ray) for ray, _ in points], dtype=np.int8)
        return codes, np.array([r for _, r in points], dtype=float)

    def d_many(self, X, Y):
        import numpy as np

        (rx, a), (ry, b) = X, Y
        one_ray = (rx == ry) | (a == 0.0) | (b == 0.0)
        return np.where(one_ray, np.abs(a - b), a + b)

    def w_many(self, X, Y, lam):
        import numpy as np

        (rx, a), (ry, b) = X, Y
        one_ray = (rx == ry) | (a == 0.0) | (b == 0.0)
        t = lam * (a + b)
        near = t <= a  # through the hub: still on x's ray
        ray = np.where(one_ray, np.where(a == 0.0, ry, rx), np.where(near, rx, ry))
        r = np.where(one_ray, (1.0 - lam) * a + lam * b, np.where(near, a - t, t - a))
        return ray, r

    def sample_box(self):
        import numpy as np

        # (ray, r): ray code int(c) of a uniform c in [0, 3), radius in [0, 3)
        return np.zeros(2), np.full(2, 3.0)

    def from_coords(self, C):
        import numpy as np

        codes, r = np.floor(C[:, 0]), C[:, 1]
        ok = (codes >= 0.0) & (codes <= 2.0) & np.isfinite(r) & (r >= 0.0)
        if not ok.all():
            raise InvalidPointError(f"coordinates {C[np.argmin(ok)]} are no tripod point")
        return codes.astype(np.int8), np.ascontiguousarray(r)

    def point_from_coords(self, c):
        if not 0.0 <= c[0] < 3.0:  # no ray code; int() would still index one
            raise InvalidPointError(f"ray coordinate {c[0]} outside [0, 3)")
        return (TRIPOD_RAYS[int(c[0])], float(c[1]))

    def format_point(self, x) -> str:
        return f"{x[0]}:{x[1]!r}"


class HalfPlane(Space):
    """Poincare upper half-plane {(x, y) : y > 0} with its hyperbolic metric.

    Distance: d = 2*asinh(|z1-z2| / (2*sqrt(y1*y2))), the stable form of
    arccosh(1 + |z1-z2|^2/(2*y1*y2)).  When y1*y2 over- or underflows the
    root is taken as sqrt(y1)*sqrt(y2), and when 2*root then overflows q is
    0.5*(|z1-z2|/root); when |z1-z2| overflows it is taken from the halved
    coordinates, and when the asinh argument q leaves the floats, asinh(q)
    is log(2q) from the logs of its numerator and denominator.

    Points on one vertical geodesic (x2 == x1) interpolate in closed form,
    w = (x1, y1*(y2/y1)^lam), whenever y2/y1 is a positive finite float,
    and as (x1, y1^(1-lam) * y2^lam) when it is not.  Other pairs follow the
    hyperboloid model's geodesic, pulled back: with d = raw_d(z1, z2), the
    weights u1 = sinh((1-lam)d)/sinh(d) and u2 = sinh(lam d)/sinh(d) of
    `_weights`, a = u1/y1 and b = u2/y2, w = ((a*x1 + b*x2)/(a + b), 1/(a + b)).
    Every term is positive, so nothing cancels.  Where a weight or y2/y1 is
    no normal float, the weights are taken in logs, relative to the larger.
    lam = 0 and 1 give the endpoints exactly (on the vertical, a zero x
    comes back as +0.0).  w raises InvalidPointError only where the point
    itself is no normal float.

    d_many and w_many run the common formula on every row; the rows it does
    not cover go through raw_d and raw_w one at a time, so they get the
    scalar bits, and w_many gives nan where raw_w raises.
    """

    name = "halfplane"

    def check_point(self, z):
        try:
            x, y = z
            if math.isfinite(x) and math.isfinite(y) and y > 0.0:
                return z
        except (TypeError, ValueError):  # no (x, y) pair, or no reals
            pass
        except OverflowError:  # an int past the floats
            raise InvalidPointError("half-plane coordinate is an int past the floats") from None
        raise InvalidPointError(f"half-plane requires finite coords with y > 0, got {z}")

    def raw_d(self, z1, z2):
        (x1, y1), (x2, y2) = z1, z2
        yy = y1 * y2
        if _FLOAT_MIN <= yy < math.inf:
            root = math.sqrt(yy)
        else:  # the product over- or underflowed
            root = math.sqrt(y1) * math.sqrt(y2)
            if root > _HALF_MAX:  # 2*root overflows: q = 0.5*(h/root) instead
                # both y exceed a quarter of the float range; h from the halved
                # coordinates stays finite and q stays small
                return 2.0 * math.asinh(
                    math.hypot(0.5 * x1 - 0.5 * x2, 0.5 * y1 - 0.5 * y2) / root)
        h, den = math.hypot(x1 - x2, y1 - y2), 2.0 * root
        if h == _INF:  # a difference overflowed: halve the coordinates
            h, den = math.hypot(0.5 * x1 - 0.5 * x2, 0.5 * y1 - 0.5 * y2), root
        q = h / den
        if q == _INF:  # q left the floats; asinh(q) = log(2q) to double precision there
            return 2.0 * (math.log(h) + (_LOG2 - math.log(den)))
        return 2.0 * math.asinh(q)

    def raw_w(self, z1, z2, lam):
        (x1, y1), (x2, y2) = z1, z2
        b = y2 / y1
        if x2 == x1:
            # on z1's vertical geodesic: the closed form (x1 = -0.0 turns 0.0);
            # where y2/y1 leaves the floats, each power below stays inside them.
            # At lam = 1, exp(log(y2/y1)) need not give y2/y1 back: take y2
            if lam == 1.0:
                return (x1 + 0.0, y2)
            if 0.0 < b < math.inf:
                return (x1 + 0.0, y1 * math.exp(lam * math.log(b)))
            return (x1 + 0.0, y1 ** (1.0 - lam) * y2 ** lam)
        d = self.raw_d(z1, z2)
        if lam == 0.0 or lam == 1.0 or d < _FLOAT_MIN:  # an endpoint, to double precision
            return z2 if lam == 1.0 else z1
        u1, u2, r1, r2 = _weights(math, d, lam)
        if u1 >= _FLOAT_MIN and u2 >= _FLOAT_MIN and _FLOAT_MIN <= b < _INF:
            m, p, q = 0.0, u1, u2 / b  # a and b times y1
        else:  # the log route: log p and log q, relative to the larger; r = 0 weighs 0
            p = (math.log(r1) if r1 else -_INF) - lam * d
            q = (math.log(r2) if r2 else -_INF) + (lam - 1.0) * d + math.log(y1) - math.log(y2)
            m = max(p, q)
            p, q = math.exp(p - m), math.exp(q - m)
        x, y = p / (p + q) * x1 + q / (p + q) * x2, y1 / (p + q)
        try:  # y * e^-m, in logs where e^-m leaves the floats
            y = y * math.exp(-m) if abs(m) < 700.0 else math.exp(math.log(y) - m)
        except OverflowError:
            y = _INF
        if _FLOAT_MIN <= y < _INF and abs(x) < _INF:
            return (x, y)
        raise InvalidPointError(f"half-plane interpolation of {z1} and {z2} leaves the floats")

    def d_many(self, Z1, Z2):
        import numpy as np

        y1, y2 = Z1.imag, Z2.imag
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            yy = y1 * y2
            q = np.abs(Z1 - Z2) / (2.0 * np.sqrt(yy))
            out = 2.0 * np.arcsinh(q)
        # the rows raw_d takes off its common branch
        for i in np.flatnonzero((yy < _FLOAT_MIN) | (yy == _INF) | (q == _INF)).tolist():
            out[i] = self.raw_d((float(Z1.real[i]), float(y1[i])),
                                (float(Z2.real[i]), float(y2[i])))
        return out

    def w_many(self, Z1, Z2, lam):
        import numpy as np

        # raw_w's common formula, row by row
        x1, y1, x2 = Z1.real, Z1.imag, Z2.real
        d = self.d_many(Z1, Z2)
        with np.errstate(all="ignore"):
            b = Z2.imag / y1
            u1, u2, _, _ = _weights(np, d, lam)
            q = u2 / b
            x, y = u1 / (u1 + q) * x1 + q / (u1 + q) * x2, y1 / (u1 + q)
            out = x + 1j * y
        common = ((x2 != x1) & (np.minimum(np.minimum(u1, u2), np.minimum(b, d)) >= _FLOAT_MIN)
                  & (b < _INF) & (y >= _FLOAT_MIN) & (y < _INF) & (np.abs(x) < _INF))
        lam = np.broadcast_to(lam, out.shape)  # one weight per row
        for i in np.flatnonzero(~common).tolist():
            try:
                out[i] = complex(*self.raw_w((float(x1[i]), float(y1[i])),
                                             (float(x2[i]), float(Z2.imag[i])), float(lam[i])))
            except InvalidPointError:
                out[i] = complex(math.nan, math.nan)
        return out

    def sample_box(self):
        import numpy as np

        return np.array([-3.0, 0.1]), np.array([3.0, 5.0])

    def from_coords(self, C):
        import numpy as np

        ok = np.isfinite(C).all(axis=1) & (C[:, 1] > 0.0)
        if not ok.all():
            raise InvalidPointError(f"half-plane requires finite coords with y > 0, "
                                    f"got {C[np.argmin(ok)]}")
        return C[:, 0] + 1j * C[:, 1]

    def point_from_coords(self, c):
        return (float(c[0]), float(c[1]))

    def format_point(self, z) -> str:
        return f"{z[0]!r};{z[1]!r}"


def _weights(m, d, lam):
    """u1 = sinh((1-lam)d)/sinh(d) and u2 = sinh(lam d)/sinh(d) over the math or
    numpy module m, as u1 = e^(-lam d)*r1, r1 = expm1(-2(1-lam)d)/expm1(-2d),
    and its mirror, so that no sinh overflows; returns u1, u2, r1, r2."""
    e = m.expm1(-2.0 * d)
    r1, r2 = m.expm1(2.0 * (lam - 1.0) * d) / e, m.expm1(-2.0 * lam * d) / e
    return m.exp(-lam * d) * r1, m.exp((lam - 1.0) * d) * r2, r1, r2


class BrokenDemo(Euclidean):
    """Euclidean line with w(x, y, lam) := y; violates axiom (ii)."""

    def __init__(self):
        super().__init__(1)
        self.name = "broken-demo"

    def raw_w(self, x, y, lam):
        return y

    def w_many(self, X, Y, lam):
        return Y


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
# convex subsets, as samplers of their points

@dataclass
class Interval:
    """[lo, hi] on the Euclidean line."""

    lo: float
    hi: float

    def sample(self, rng):
        import numpy as np

        return np.array([rng.uniform(self.lo, self.hi)])


@dataclass
class VerticalLine:
    """A vertical geodesic {x = x0} of the half-plane."""

    x0: float
    y_lo: float = 0.05
    y_hi: float = 20.0

    def sample(self, rng):
        return (self.x0, float(math.exp(rng.uniform(math.log(self.y_lo), math.log(self.y_hi)))))


# ---------------------------------------------------------------------------
# axiom checker

AXIOM_NAMES = ("metric", "axiom_i", "axiom_ii", "axiom_iii", "axiom_iv")

# a sampled tuple, and the part of it that AxiomResult.worst_tuple holds per
# axiom; lam and mu are floats, the rest points
_TUPLE_FIELDS = ("x", "y", "z", "v", "u", "lam", "mu")
WORST_FIELDS = {
    "metric": ("x", "y", "z"),
    "axiom_i": ("x", "y", "u", "lam"),
    "axiom_ii": ("x", "y", "lam", "mu"),
    "axiom_iii": ("x", "y", "lam"),
    "axiom_iv": ("x", "y", "z", "v", "lam"),
}

# tuples evaluated per batched pass: a default check (1000 tuples) is one
# block, and larger checks hold at most this many tuples' arrays at once
AXIOM_BLOCK = 4096


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


def _violations(space, x, y, z, v, u, lam, mu) -> dict:
    """Per-tuple violation of each axiom over one block of packed tuples."""
    import numpy as np

    d, w = space.d_many, space.w_many
    dxy = d(x, y)
    wl = w(x, y, lam)
    return {
        # identity, symmetry, triangle
        "metric": np.maximum.reduce([np.abs(d(x, x)), np.abs(dxy - d(y, x)),
                                     np.maximum(0.0, dxy - (d(x, z) + d(z, y)))]),
        # (i) d(u, w(x,y,lam)) <= (1-lam) d(u,x) + lam d(u,y)
        "axiom_i": np.maximum(0.0, d(u, wl) - ((1.0 - lam) * d(u, x) + lam * d(u, y))),
        # (ii) d(w(x,y,lam), w(x,y,mu)) = |lam-mu| d(x,y)
        "axiom_ii": np.abs(d(wl, w(x, y, mu)) - np.abs(lam - mu) * dxy),
        # (iii) w(x,y,lam) = w(y,x,1-lam)
        "axiom_iii": d(wl, w(y, x, 1.0 - lam)),
        # (iv) d(w(x,z,lam), w(y,v,lam)) <= (1-lam) d(x,y) + lam d(z,v)
        "axiom_iv": np.maximum(0.0, d(w(x, z, lam), w(y, v, lam))
                               - ((1.0 - lam) * dxy + lam * d(z, v))),
    }


def _rank(violation):
    """Order violations with nan as the worst value."""
    import numpy as np

    return np.where(np.isnan(violation), np.inf, violation)


def check_axioms(space: Space, sampler=None, n_samples: int = 1000,
                 tol: float = 1e-9, seed: int = 0) -> AxiomReport:
    """Sample tuples (x, y, z, v, u, lam, mu) and measure axiom violations.

    Inequalities report the positive part of LHS-RHS; equalities report the
    absolute deviation.  Each axiom passes iff its max violation <= tol; a
    non-finite violation (nan, e.g. from distances that overflow) fails.

    Tuples are checked in blocks of AXIOM_BLOCK (4096) with the space's
    d_many and w_many, so a default check of 1000 tuples is one batched pass,
    and a larger one holds the arrays of at most one block at a time.  Rows
    are drawn in stream order and a later block replaces an axiom's worst
    tuple only when strictly worse, so the block size never changes a report.
    Without a sampler, each block is one `rng.random((m, 5k + 2))`:
    row i holds tuple i's coordinates in the order x, y, z, v, u (k each,
    scaled into `space.sample_box()`), then lam and mu.  That is the stream
    of five `space.sample(rng)` calls and two `rng.uniform()` per tuple, so
    the reports equal those of `sampler=space.sample`; only the worst tuple
    of each axiom is turned into point objects.  A custom sampler is called
    five times per tuple, then lam and mu are drawn, and each column goes
    through `pack`; worst_tuple holds the points as the sampler returned
    them.  Either way a seed always yields the same tuples.
    """
    import numpy as np

    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not tol > 0:  # nan too
        raise ValueError("tol must be > 0")
    rng = np.random.default_rng(seed)
    if sampler is None:
        lo, hi = space.sample_box()
        k = len(lo)
        lo5, span5 = np.tile(lo, 5), np.tile(hi - lo, 5)

    worst = {name: (0.0, None) for name in AXIOM_NAMES}
    for start in range(0, n_samples, AXIOM_BLOCK):
        m = min(AXIOM_BLOCK, n_samples - start)
        if sampler is None:
            R = rng.random((m, 5 * k + 2))
            C = lo5 + span5 * R[:, :5 * k]
            coords = [C[:, j * k:(j + 1) * k] for j in range(5)]
            points = [space.from_coords(c) for c in coords]
            # contiguous, like the per-tuple path's arrays, so numpy runs the
            # same kernels and the reports agree bit for bit
            lam, mu = np.ascontiguousarray(R[:, 5 * k:].T)

            def drawn(i):
                return ([space.point_from_coords(c[i].copy()) for c in coords]
                        + [float(lam[i]), float(mu[i])])
        else:
            # one tuple at a time, in the order (x, y, z, v, u, lam, mu)
            tuples = [(sampler(rng), sampler(rng), sampler(rng), sampler(rng), sampler(rng),
                       float(rng.uniform()), float(rng.uniform()))
                      for _ in range(m)]
            columns = list(zip(*tuples))
            points = [space.pack(col) for col in columns[:5]]
            lam, mu = np.array(columns[5]), np.array(columns[6])
            drawn = tuples.__getitem__
        with np.errstate(over="ignore", invalid="ignore"):
            block = _violations(space, *points, lam, mu)
        for name, violation in block.items():
            rank = _rank(violation)
            i = int(np.argmax(rank))
            if rank[i] > _rank(worst[name][0]):
                fields = dict(zip(_TUPLE_FIELDS, drawn(i)))
                worst[name] = (float(violation[i]),
                               tuple(fields[f] for f in WORST_FIELDS[name]))

    results = {
        name: AxiomResult(name, val, tup, val <= tol)
        for name, (val, tup) in worst.items()
    }
    return AxiomReport(space.name, n_samples, tol, results)

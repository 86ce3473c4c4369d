"""Self-maps with contraction certificates.

The central class of maps satisfies

    d(Tx, Ty) <= delta * d(x, y) + phi(d(x, Tx)),   delta in [0, 1),

with phi strictly increasing, continuous, phi(0) = 0.  ContractiveLike holds
such a map with its certificate (delta, phi), ApproximateOperator a map S
with d(Tx, Sx) <= epsilon.  The corpus returns (space, T, sampler), the
sampler drawing points of the map's domain.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from . import spaces
from .errors import CertificateError, ConfigError, InvalidPointError
from .spaces import Euclidean, HalfPlane, Space, Tripod

if TYPE_CHECKING:
    import numpy as np

# ---------------------------------------------------------------------------
# phi family


class LinearPhi:
    """phi(t) = L*t.  L = 0 is admitted as a degenerate (constant-zero) case."""

    def __init__(self, L: float):
        if L < 0:
            raise CertificateError(f"L must be >= 0, got {L}")
        self.L = float(L)

    def __call__(self, t):
        return self.L * t


def validate_phi(phi) -> bool:
    """Check phi(0) = 0 and strict monotonicity on the grid i/1000, i = 0..1000.

    Returns False (rather than raising) for the admitted degenerate phi == 0;
    LinearPhi(0.0), the corpus maps' phi, is that one and skips the grid.
    """
    if type(phi) is LinearPhi and phi.L == 0.0:
        return False
    if phi(0.0) != 0.0:
        raise CertificateError("phi(0) must be 0")
    vals = [phi(i / 1000) for i in range(1001)]
    if all(v == 0.0 for v in vals):
        return False
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise CertificateError("phi must be strictly increasing")
    return True


# ---------------------------------------------------------------------------
# the mapping types


@dataclass
class ContractiveLike:
    """A self-map T with certificate (delta, phi) and optional known fixed point.

    `apply` is the map on any point the space's check_point accepts; `raw`
    is the same map on points in the form check_point returns, which it may
    trust without reading them again (the solver's Picard loop calls it).
    raw defaults to apply's own `raw` where apply has one (an AffineMap),
    else to apply.

    The map is *closed* on a space when, for every x that the space's
    check_point returns, check_point(raw(x)) accepts raw(x) and returns it
    unchanged.  Only the corpus constructors `halving`, `tripod_radial` and
    `halfplane_vertical` certify that, each with its proof and a chart, and
    `closed_on` holds only while `raw` is the function they certified:
    reassigning raw drops it.  The solver trusts raw only on the chart.
    """

    apply: Callable
    delta: float
    phi: Callable = field(default_factory=lambda: LinearPhi(0.0))
    fixed_point: Optional[object] = None
    name: str = "anonymous"
    raw: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        if not (0.0 <= self.delta < 1.0):
            raise CertificateError(f"delta must lie in [0, 1), got {self.delta}")
        validate_phi(self.phi)
        if self.raw is None:
            self.raw = getattr(self.apply, "raw", self.apply)
        self._closed = None  # (raw, space class, space name, chart) where certified

    def closed_on(self, space: Space):
        """The certificate (raw, space class, space name, chart) if raw is
        certified closed on space (a space of the class and name its
        constructor proved it on), else None.  chart is the map's scalar
        form, a factor c or ("log", c) (see `_closed_map`); the solver
        trusts raw on that chart only and checks every output off it."""
        c = self._closed
        ok = c is not None and self.raw is c[0] and type(space) is c[1] and space.name == c[2]
        return c if ok else None

    def __reduce__(self):  # AffineMap.raw is a closure: take it again from the copied apply
        raw = None if self.raw is getattr(self.apply, "raw", self.apply) else self.raw
        return (type(self), (self.apply, self.delta, self.phi, self.fixed_point, self.name, raw),
                {"_closed": self._closed})


@dataclass
class ApproximateOperator:
    """S with certified sup-distance bound d(Tx, Sx) <= epsilon.

    `apply` and `raw` are S on any point and on checked points, as in
    ContractiveLike; raw defaults to apply.
    """

    apply: Callable
    epsilon: float
    name: str = "approximate"
    raw: Optional[Callable] = field(default=None, repr=False)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise CertificateError(f"epsilon must be > 0, got {self.epsilon}")
        if self.raw is None:
            self.raw = self.apply


# ---------------------------------------------------------------------------
# built-in corpus


@dataclass
class AffineMap:
    """x -> A x + b on Euclidean space; contraction certificate is ||A||_2.

    A and b are float arrays.  `raw` is the map on a checked point (a tuple
    of dim floats) and returns a tuple of floats: coordinate i is
    fsum(A[i, j] * x[j]) + b[i].  It is chosen by dim at construction (see
    `_affine_kernel`); an image whose fsum overflows raises InvalidPointError.
    A call is raw on x read by `Euclidean(dim).check_point` (dim finite
    reals, a scalar at dim 1; InvalidPointError on anything else).
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        import numpy as np

        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        rows = tuple(zip(map(tuple, self.A.tolist()), self.b.tolist()))
        self.raw = _affine_kernel(rows)
        self._check = Euclidean(self.dim).check_point

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def norm(self) -> float:
        import numpy as np

        return float(np.linalg.norm(self.A, 2))

    def fixed_point(self) -> np.ndarray:
        import numpy as np

        return np.linalg.solve(np.eye(self.dim) - self.A, self.b)

    def __call__(self, x):
        return self.raw(self._check(x))

    def __reduce__(self):  # raw is a closure, so pickle rebuilds it from A and b
        return type(self), (self.A, self.b)


def _affine_kernel(rows):
    """x -> A x + b on a checked point x, written out by dim; rows holds (A[i] as a tuple, b[i]).

    x is trusted to be a tuple of dim finite floats (AffineMap.__call__
    checks it first).  Coordinate i is fsum(A[i, j]*x[j]) + b[i].  At dims
    1 and 2 the sum of the products is one IEEE expression, which is fsum's
    correctly rounded sum of one or two terms; `+ 0.0` turns a -0.0 sum
    into 0.0, as fsum does.  Where the products overflow there, the image
    is inf or nan, and the caller's check rejects it.  At dim 3 the row is an fsum of a tuple,
    and at dim >= 4 of the zipped row; where fsum overflows (OverflowError,
    or ValueError on inf - inf), the call raises InvalidPointError.
    """
    fsum = math.fsum
    if len(rows) == 1:
        ((a,), b0), = rows

        def kernel(x):
            return (a * x[0] + 0.0 + b0,)
    elif len(rows) == 2:
        ((a00, a01), b0), ((a10, a11), b1) = rows

        def kernel(x):
            x0, x1 = x
            return (a00 * x0 + a01 * x1 + 0.0 + b0, a10 * x0 + a11 * x1 + 0.0 + b1)
    elif len(rows) == 3:
        ((a00, a01, a02), b0), ((a10, a11, a12), b1), ((a20, a21, a22), b2) = rows

        def kernel(x):
            x0, x1, x2 = x
            try:
                return (fsum((a00 * x0, a01 * x1, a02 * x2)) + b0,
                        fsum((a10 * x0, a11 * x1, a12 * x2)) + b1,
                        fsum((a20 * x0, a21 * x1, a22 * x2)) + b2)
            except (OverflowError, ValueError):
                raise InvalidPointError(f"affine image of {x} overflows") from None
    else:
        mul = operator.mul

        def kernel(x):
            try:
                return tuple([fsum(map(mul, row, x)) + bi for row, bi in rows])
            except (OverflowError, ValueError):
                raise InvalidPointError(f"affine image of {x} overflows") from None
    return kernel


def _closed_map(space: Space, raw: Callable, delta: float, fixed_point, name: str, chart):
    """ContractiveLike with raw, apply = raw on x read by the space's
    check_point, phi == 0, certified closed on space: the caller proves it.
    chart is the map's scalar form, on which the solver trusts raw and
    iterates on one float; off it every output is checked (`schemes._steps`):
    - a float c: raw(head + (s,)) = head + (c*s,), where the space's raw_w
      and raw_d on points of one head are (1-lam)*a + lam*b and abs(a - b) in s;
    - ("log", c), on HalfPlane only: raw((x, y)) = (0.0, y ** c) for x == 0,
      which in s = log y is s -> c*s, with W and d linear and abs(a - b) in s."""
    check = space.check_point
    t = ContractiveLike(lambda x: raw(check(x)), delta, LinearPhi(0.0),
                        fixed_point=fixed_point, name=name, raw=raw)
    t._closed = (raw, type(space), space.name, chart)
    return t


def halving() -> tuple[Space, ContractiveLike, Callable]:
    """Tx = x/2 on [0, 1]; delta = 1/2, phi == 0, fixed point (0.0,).

    raw is (0.5 * x[0],) on a checked point, and apply is raw on x read by
    the space's check_point.  Closed: 0.5*x of a finite float is finite.
    Chart factor 0.5: at dim 1, math.dist is abs(a - b) and `_w1` is linear.
    """
    space = Euclidean(1)

    def raw(x):
        return (0.5 * x[0],)

    t = _closed_map(space, raw, 0.5, (0.0,), "halving", chart=0.5)
    subset = spaces.Interval(0.0, 1.0)
    return space, t, subset.sample


def affine(affmap: AffineMap, name="affine") -> tuple[Space, ContractiveLike, Callable]:
    space = Euclidean(affmap.dim)
    for i, (row, bi) in enumerate(zip(affmap.A.tolist(), affmap.b.tolist())):
        for entry, v in [(f"A[{i}, {j}]", a) for j, a in enumerate(row)] + [(f"b[{i}]", bi)]:
            if not math.isfinite(v):  # before the SVD, which fails on it
                raise CertificateError(f"affine map entry {entry} = {v} is not finite")
    delta = affmap.norm
    if delta >= 1.0:
        raise CertificateError(f"affine map has ||A|| = {delta} >= 1")
    p = affmap.fixed_point()
    if not all(map(math.isfinite, p.tolist())):
        raise CertificateError(f"affine map's fixed point {p} is not finite")
    t = ContractiveLike(affmap, delta, LinearPhi(0.0), fixed_point=p, name=name)
    return space, t, space.sample


def tripod_radial(factor: float) -> tuple[Space, ContractiveLike, Callable]:
    """(ray, r) -> (ray, factor*r); contracts toward the hub with delta = factor.

    Closed: factor = delta in [0, 1) times a finite r >= 0 is finite and
    >= 0, and an underflow to 0.0 is the hub, which is valid on any ray.
    Chart factor `factor`: on one ray, raw_w and raw_d act on r alone.
    """
    space = Tripod()
    factor += 0.0  # a -0.0 factor would certify delta = -0.0

    def raw(p):
        return (p[0], factor * p[1])

    t = _closed_map(space, raw, factor, ("A", 0.0), f"tripod-radial:{factor}", chart=factor)
    return space, t, space.sample


def halfplane_vertical(factor: float) -> tuple[Space, ContractiveLike, Callable]:
    """(0, y) -> (0, y**factor) on the vertical line x = 0; delta = factor.

    Distances along the line are |ln(y1) - ln(y2)|, so the map contracts them
    by exactly `factor`; the line is a geodesic, hence convex, and the
    iteration stays on it.  Closed: for finite y > 0 and factor in [0, 1),
    y**factor lies between min(y, 1) and max(y, 1), so it is finite and > 0.
    Chart ("log", factor): on x = 0 near y = 1 the solver iterates on
    s = log y, where T is s -> factor*s and W and d are linear and |a - b|.
    """
    space = HalfPlane()
    factor += 0.0  # a -0.0 factor would certify delta = -0.0
    line = spaces.VerticalLine(0.0)

    def raw(z):
        return (0.0, z[1] ** factor)

    t = _closed_map(space, raw, factor, (0.0, 1.0), f"halfplane-vertical:{factor}",
                    chart=("log", factor))
    return space, t, line.sample


def _parse_affine_spec(spec: str) -> AffineMap:
    """`affine:<matrix>|<offset>`; rows split by ';', entries by ','.

    A bare scalar like `affine:0.9` means the 1-D map x -> 0.9*x.
    """
    import numpy as np

    if "|" in spec:
        mat_s, off_s = spec.split("|", 1)
    else:
        mat_s, off_s = spec, ""
    try:
        rows = [[float(v) for v in row.split(",")] for row in mat_s.split(";")]
        A = np.array(rows)
        if off_s:
            b = np.array([float(v) for v in off_s.split(",")])
        else:
            b = np.zeros(A.shape[0])
    except ValueError:
        raise ConfigError(f"bad affine spec {spec!r}")
    if A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
        raise ConfigError(f"affine spec {spec!r} has inconsistent shapes")
    return AffineMap(A, b)


def from_name(name: str):
    """Resolve `(space, mapping, sampler)` from a CLI/config identifier.

    Identifiers: `halving`, `affine:<spec>`, `tripod-radial:<factor>`,
    `halfplane-vertical:<factor>`.
    """
    if name == "halving":
        return halving()
    if name.startswith("affine:"):
        return affine(_parse_affine_spec(name.split(":", 1)[1]), name=name)
    for prefix, build in (("tripod-radial:", tripod_radial),
                          ("halfplane-vertical:", halfplane_vertical)):
        if name.startswith(prefix):
            try:
                factor = float(name[len(prefix):])
            except ValueError:
                raise ConfigError(f"bad factor in {name!r}")
            return build(factor)
    raise ConfigError(f"unknown mapping {name!r}")


def perturbed(space: Space, t: ContractiveLike, offset) -> ApproximateOperator:
    """S = T + offset with certified epsilon = d(Tx, Tx + offset).

    Euclidean spaces: offset is a constant vector that the space's
    check_point accepts (a tuple, list or array of dim finite entries; a
    scalar at dim 1), not all zero, with a finite epsilon = raw_d(0, offset),
    the space's own distance from the origin to the offset.
    S's raw is T.raw x plus the offset, coordinate by coordinate, as a
    tuple of floats (one expression per coordinate at dims 1-3).  T's
    output is checked first unless T is closed on the space or T.raw is the
    kernel of an AffineMap of the space's dim, which returns dim floats (an
    inf or nan stays one after the finite offset, and the solver's check
    of S's output rejects it); a user's T may return any sequence.
    Tripod: offset is a finite radius shift > 0 along the same ray,
    epsilon = offset, and S's raw is built on T.raw.  Any other offset
    raises CertificateError.  On both, S's apply is raw on x read by
    check_point.
    """
    check = space.check_point
    if isinstance(space, Euclidean):
        try:
            off = check(offset)
        except InvalidPointError:
            raise CertificateError(f"offset must have {space.dim} finite entries, "
                                   f"got {offset}") from None
        eps = space.raw_d((0.0,) * space.dim, off)
        if eps == 0.0:
            raise CertificateError("offset must be nonzero (epsilon > 0)")
        if not math.isfinite(eps):
            raise CertificateError(f"epsilon = d(0, offset) overflows for offset {offset}")
        T, affmap = t.raw, t.apply
        if not (t.closed_on(space) or (isinstance(affmap, AffineMap)
                                       and T is affmap.raw and affmap.dim == space.dim)):
            unchecked = T

            def T(x):
                return check(unchecked(x))
        raw = _shifted(T, off)
    elif isinstance(space, Tripod):
        eps = off = float(offset)
        if not (math.isfinite(off) and off > 0.0):
            raise CertificateError("tripod offset must be finite and > 0")

        def raw(p):
            ray, r = t.raw(p)
            return (ray, r + off)
    else:
        raise ConfigError(f"perturbation not supported on space {space.name!r}")
    return ApproximateOperator(lambda x: raw(check(x)), eps, name=f"perturb:{t.name}:{off}",
                               raw=raw)


def _shifted(T, off):
    """x -> T(x) + off coordinate by coordinate, written out at dims 1-3."""
    if len(off) == 1:
        o0, = off

        def s(x):
            return (T(x)[0] + o0,)
    elif len(off) == 2:
        o0, o1 = off

        def s(x):
            a0, a1 = T(x)
            return (a0 + o0, a1 + o1)
    elif len(off) == 3:
        o0, o1, o2 = off

        def s(x):
            a0, a1, a2 = T(x)
            return (a0 + o0, a1 + o1, a2 + o2)
    else:
        def s(x):
            return tuple([a + c for a, c in zip(T(x), off)])
    return s

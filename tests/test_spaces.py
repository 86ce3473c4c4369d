import decimal
import math
import re
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from implicitfp import mappings, spaces
from implicitfp.errors import ConfigError, InvalidPointError
from implicitfp.schemes import default_schedule, run
from implicitfp.spaces import (BrokenDemo, Euclidean, HalfPlane, Interval,
                               Tripod, VerticalLine, check_axioms)


class TestEuclideanInterpolate:
    def test_endpoint(self):
        sp = Euclidean(1)
        assert sp.w([0.0], [1.0], 0.0) == pytest.approx([0.0])

    def test_quarter(self):
        sp = Euclidean(1)
        assert sp.w([0.0], [1.0], 0.25) == pytest.approx([0.25])

    def test_degenerate_x_equals_y(self):
        sp = Euclidean(2)
        x = np.array([1.0, 2.0])
        for lam in (0.0, 0.3, 1.0):
            assert sp.w(x, x, lam) == pytest.approx(x)

    def test_rejects_nonfinite(self):
        sp = Euclidean(1)
        with pytest.raises(InvalidPointError):
            sp.d([math.inf], [0.0])


class TestEuclideanWideScales:
    @pytest.mark.parametrize("dim,x,y,expected", [
        (2, (1e200, 0), (0, 0), 1e200),             # the square overflows
        (2, (3e-200, 0), (0, 4e-200), 5e-200),      # the squares underflow
        (1, (1e-170,), (0.0,), 1e-170),
        (3, (1e308, -1e308, 0.0), (0.0, 0.0, 0.0), math.hypot(1e308, 1e308)),
    ])
    def test_distance_at_every_finite_scale(self, dim, x, y, expected):
        assert Euclidean(dim).d(x, y) == expected
        assert Euclidean(dim).d(y, x) == expected

    def test_points_and_results(self):
        sp = Euclidean(2)
        p = sp.check_point(np.array([1.0, 2.0]))
        assert type(p) is tuple and p == (1.0, 2.0) and all(type(c) is float for c in p)
        assert sp.check_point(p) is p  # a checked point is returned as it is
        assert type(sp.w(p, p, 0.5)) is tuple
        pub = sp.public(p)
        assert isinstance(pub, np.ndarray) and pub.dtype == np.float64 and pub.shape == (2,)
        assert pub.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("space,point", [(Tripod(), ("B", 1.5)), (HalfPlane(), (0.5, 2.0))])
def test_public_is_the_identity_off_euclidean_space(space, point):
    assert space.public(point) is point
    assert space.public(space.check_point(point)) is point


class TestTripod:
    def test_same_ray_distance(self):
        sp = Tripod()
        assert sp.d(("A", 1.0), ("A", 0.25)) == pytest.approx(0.75)

    def test_cross_ray_distance(self):
        sp = Tripod()
        assert sp.d(("A", 1.0), ("B", 2.0)) == pytest.approx(3.0)

    def test_midpoint_through_hub(self):
        # geodesic from (A,1) to (B,1) has length 2 and passes the hub;
        # the midpoint is the hub itself (brute-force concatenation of the
        # two radial segments)
        sp = Tripod()
        mid = sp.w(("A", 1.0), ("B", 1.0), 0.5)
        assert mid[1] == pytest.approx(0.0, abs=1e-15)
        assert sp.d(("A", 1.0), mid) == pytest.approx(1.0)
        assert sp.d(mid, ("B", 1.0)) == pytest.approx(1.0)

    def test_interpolation_crosses_hub(self):
        sp = Tripod()
        p = sp.w(("A", 1.0), ("B", 3.0), 0.75)  # arc length 3 from x
        assert p[0] == "B"
        assert p[1] == pytest.approx(2.0)

    def test_invalid_radius(self):
        with pytest.raises(InvalidPointError):
            Tripod().d(("A", -0.5), ("B", 1.0))


class TestHalfPlane:
    def test_vertical_distance(self):
        sp = HalfPlane()
        assert sp.d((0.0, 1.0), (0.0, math.e)) == pytest.approx(1.0)

    def test_vertical_midpoint_geometric_mean(self):
        sp = HalfPlane()
        mid = sp.w((0.0, 1.0), (0.0, math.e), 0.5)
        assert mid[0] == pytest.approx(0.0, abs=1e-12)
        assert mid[1] == pytest.approx(math.sqrt(math.e))

    def test_semicircle_geodesic_property(self):
        sp = HalfPlane()
        x, y = (-1.0, 1.5), (2.0, 0.5)
        d = sp.d(x, y)
        for lam in (0.1, 0.5, 0.9):
            w = sp.w(x, y, lam)
            assert sp.d(x, w) == pytest.approx(lam * d, abs=1e-12)
            assert sp.d(w, y) == pytest.approx((1 - lam) * d, abs=1e-12)

    def test_rejects_lower_half(self):
        with pytest.raises(InvalidPointError):
            HalfPlane().d((0.0, -1.0), (0.0, 1.0))
        with pytest.raises(InvalidPointError):
            HalfPlane().w((0.0, 1.0), (1.0, 0.0), 0.5)


# ---------------------------------------------------------------------------
# half-plane primitives at wide scales, against the formulas they replaced

def conjugation_w(z1, z2, lam):
    """HalfPlane.raw_w before vertical pairs had a closed form, verbatim."""
    (x1, y1), (x2, y2) = z1, z2
    a = (x2 - x1) / y1
    b = y2 / y1
    if a == 0.0:
        t = 0.0
    else:
        B = a * a + b * b - 1.0
        qroot = -(B + math.copysign(math.sqrt(B * B + 4.0 * a * a), B)) / 2.0
        if qroot == 0.0:
            t = math.copysign(1.0, a)
        else:
            t = -a / qroot
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    zr = complex(a, b)
    img = (zr * c + s) / (-zr * s + c)
    height = abs(img)
    if height <= 0.0:
        raise InvalidPointError("degenerate half-plane interpolation")
    wim = complex(0.0, math.exp(lam * math.log(height)))
    back = (wim * c - s) / (wim * s + c)
    return (x1 + y1 * back.real, y1 * back.imag)


def vertical_reference_w(z1, z2, lam):
    """The vertical w: the conjugation, except the exact endpoint (x1 + 0.0, y2) at lam = 1."""
    return (z1[0] + 0.0, z2[1]) if lam == 1.0 else conjugation_w(z1, z2, lam)


def product_d(z1, z2):
    """HalfPlane.raw_d before it guarded the product y1*y2, verbatim."""
    (x1, y1), (x2, y2) = z1, z2
    q = math.hypot(x1 - x2, y1 - y2) / (2.0 * math.sqrt(y1 * y2))
    return 2.0 * math.asinh(q)


def w_outcome(w, z1, z2, lam):
    """The bits of w's point (so the sign of zero counts), or the error it raised."""
    try:
        return struct.pack("<2d", *w(z1, z2, lam))
    except InvalidPointError as exc:
        return type(exc), str(exc)


WIDE_Y = st.floats(-300, 300).map(lambda e: 10.0 ** e)
SIGNED_ZERO = st.sampled_from([0.0, -0.0])


class TestHalfPlaneWideScales:
    @settings(max_examples=400, deadline=None)
    @given(x1=SIGNED_ZERO, x2=SIGNED_ZERO, y1=WIDE_Y, y2=WIDE_Y,
           lam=st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    def test_vertical_closed_form_is_the_conjugation_at_zero(self, x1, x2, y1, y2, lam):
        assume(0.0 < y2 / y1 < math.inf)  # the conjugation's domain
        z1, z2 = (x1, y1), (x2, y2)
        assert (w_outcome(HalfPlane().raw_w, z1, z2, lam)
                == w_outcome(vertical_reference_w, z1, z2, lam))

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-1e300, 1e300) | st.sampled_from([5e-324, -5e-324]),
           y1=WIDE_Y, y2=WIDE_Y, lam=st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    def test_vertical_closed_form_is_the_conjugation(self, x, y1, y2, lam):
        assume(0.0 < y2 / y1 < math.inf)  # the conjugation's domain
        z1, z2 = (x, y1), (x, y2)
        assert (w_outcome(HalfPlane().raw_w, z1, z2, lam)
                == w_outcome(vertical_reference_w, z1, z2, lam))

    # y2/y1 under- or overflows; the conjugation gives no point there
    @pytest.mark.parametrize("y1,y2", [(1e300, 1e-300), (1e-300, 1e300),
                                       (1e-320, 5.2e-10), (1.7e308, 5e-324)])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_vertical_w_when_the_ratio_leaves_the_floats(self, y1, y2, lam):
        assert not 0.0 < y2 / y1 < math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, y = HalfPlane().w((-0.0, y1), (0.0, y2), lam)
        assert struct.pack("<d", x) == struct.pack("<d", 0.0)
        assert y == pytest.approx(decimal_vertical_w(y1, y2, lam), rel=1e-13)

    @pytest.mark.parametrize("y1,y2", [(1e300, 1e-300), (1e-300, 1e300),
                                       (1e-320, 5.2e-10), (1.7e308, 5e-324)])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_w_many_when_the_ratio_leaves_the_floats(self, y1, y2, lam):
        sp = HalfPlane()
        # the vertical pair between two rows that take the conjugation
        xs = [(0.3, 0.7), (-0.0, y1), (0.0, 1.0)]
        ys = [(1.1, 2.5), (0.0, y2), (0.0, 3.0)]
        lams = np.array([0.4, lam, 0.6])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = sp.w_many(sp.pack(xs), sp.pack(ys), lams)
        got = [(z.real, z.imag) for z in W.tolist()]
        assert got[1] == sp.raw_w(xs[1], ys[1], lam)
        assert struct.pack("<d", got[1][0]) == struct.pack("<d", 0.0)
        for i in (0, 2):  # the other rows keep the bits they have on their own
            alone = sp.w_many(sp.pack([xs[i]]), sp.pack([ys[i]]), lams[i:i + 1])
            assert W[i] == alone[0]

    # pairs the rotate-and-conjugate w refused: a*a overflows, y2/y1
    # underflows, (x2 - x1)/y1 overflows, and the image's height overflows
    # (d > 709); their points are normal floats
    @pytest.mark.parametrize("z1,z2", [((0.0, 1.0), (1e300, 1.0)),
                                       ((0.0, 1e200), (1e210, 1e-200)),
                                       ((0.0, 1e-10), (1e300, 1e-10)),
                                       ((0.0, 1.0), (1e30, 1e-300))])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_w_that_leaves_the_floats(self, z1, z2, lam):
        sp = HalfPlane()
        for a, b in ((z1, z2), (z2, z1)):
            assert backward_error(sp.w(a, b, lam), a, b, lam) <= 64.0
        # so do the rows of w_many, and the other row keeps its bits
        xs, ys = [z1, (0.3, 0.7), z2], [z2, (1.1, 2.5), z1]
        lams = np.array([lam, 0.4, lam])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = sp.w_many(sp.pack(xs), sp.pack(ys), lams)
        for i in (0, 2):
            assert backward_error((W[i].real, W[i].imag), xs[i], ys[i], lam) <= 64.0
        assert W[1] == sp.w_many(sp.pack(xs[1:2]), sp.pack(ys[1:2]), lams[1:2])[0]

    def test_w_when_only_the_discriminant_overflows(self):
        # the pair whose rotation's discriminant alone overflowed
        sp = HalfPlane()
        z1, z2 = (0.0, 1.0), (1.0, 1e200)
        x, y = sp.w(z1, z2, 0.5)
        assert x == pytest.approx(1e-200, rel=1e-13) and y == pytest.approx(1e100, rel=1e-13)
        assert backward_error((x, y), z1, z2, 0.5) <= 64.0
        W = sp.w_many(sp.pack([z1]), sp.pack([z2]), 0.5)
        assert backward_error((W[0].real, W[0].imag), z1, z2, 0.5) <= 64.0

    def test_w_many_is_nan_where_w_refuses(self):
        sp, rng = HalfPlane(), np.random.default_rng(9)
        m = 3000
        x1, x2 = (rng.uniform(-1, 1, (2, m)) * 10.0 ** rng.uniform(-300, 300, (2, m)))
        x2[::3] = x1[::3]  # vertical rows too
        y1, y2 = 10.0 ** rng.uniform(-300, 300, (2, m))
        lams = rng.random(m)
        xs, ys = list(zip(x1.tolist(), y1.tolist())), list(zip(x2.tolist(), y2.tolist()))
        xs[::100], ys[::100] = zip(*REFUSED_PAIRS * 15)  # and rows that refuse
        refused = []
        for x, y, lam in zip(xs, ys, lams.tolist()):
            try:
                w = sp.w(x, y, lam)
                assert math.isfinite(w[0]) and 0.0 < w[1] < math.inf
                refused.append(False)
            except InvalidPointError:
                refused.append(True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = sp.w_many(sp.pack(xs), sp.pack(ys), lams)
        assert 0 < sum(refused) < m
        assert np.isnan(W.real).tolist() == refused == np.isnan(W.imag).tolist()

    def test_batch_rows_off_the_common_formula_are_the_scalar_results(self):
        sp, rng = HalfPlane(), np.random.default_rng(20)
        m = 50_000
        x1, x2 = rng.choice([-1.0, 1.0], (2, m)) * 10.0 ** rng.uniform(-300, 300, (2, m))
        x2[::3] = x1[::3]  # every third pair vertical
        y1, y2 = 10.0 ** rng.uniform(-300, 300, (2, m))
        # and 50 rows that refuse
        x1[::1000], y1[::1000], x2[::1000], y2[::1000] = np.array(
            [(*a, *b) for a, b in REFUSED_PAIRS * 25]).T
        lams = rng.random(m)
        xs, ys = list(zip(x1.tolist(), y1.tolist())), list(zip(x2.tolist(), y2.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z1, Z2 = sp.pack(xs), sp.pack(ys)
            D, W = sp.d_many(Z1, Z2), sp.w_many(Z1, Z2, lams)
        # the rows the common formulas do not cover: for d, y1*y2 outside the
        # normal floats or an infinite asinh argument; for w, vertical pairs
        # and the rows where a weight, y2/y1 or the point is no normal float
        with np.errstate(all="ignore"):
            yy = y1 * y2
            q = np.abs(Z1 - Z2) / (2.0 * np.sqrt(yy))
            e = np.expm1(-2.0 * D)
            u1 = np.exp(-lams * D) * np.expm1(-2.0 * (1.0 - lams) * D) / e
            u2 = np.exp(-(1.0 - lams) * D) * np.expm1(-2.0 * lams * D) / e
            b = y2 / y1
            y = y1 / (u1 + u2 / b)
        tiny = sys.float_info.min
        common_w = ((x1 != x2) & (D >= tiny) & (u1 >= tiny) & (u2 >= tiny) & (b >= tiny)
                    & (b < math.inf) & (y >= tiny) & (y < math.inf))
        off_d = np.flatnonzero((yy < tiny) | (yy == math.inf) | (q == math.inf))
        off_w = np.flatnonzero(~common_w)
        assert 1000 < len(off_d) < m and 1000 < len(off_w) < m
        assert np.isnan(W[off_w].real).sum() >= 25  # the pairs below the normal floats
        for i in off_d.tolist():
            assert bits(D[i]) == bits(sp.raw_d(xs[i], ys[i])), (xs[i], ys[i])
        for i in off_w.tolist():
            try:
                want = sp.raw_w(xs[i], ys[i], float(lams[i]))
            except InvalidPointError:
                assert math.isnan(W[i].real) and math.isnan(W[i].imag), (xs[i], ys[i])
            else:
                assert (bits(W[i].real), bits(W[i].imag)) == tuple(map(bits, want)), (xs[i], ys[i])

    # x = +-10^U and y = 10^U with U uniform in [-e, e]: 300 seeded pairs per
    # box, whose exact points are all normal floats
    @pytest.mark.parametrize("e", [1, 8, 30, 100, 300])
    def test_w_backward_error_at_every_scale(self, e):
        sp, rng = HalfPlane(), np.random.default_rng(e)
        n = 300
        x1, x2 = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(-e, e, (2, n))
        y1, y2 = 10.0 ** rng.uniform(-e, e, (2, n))
        lams = rng.random(n)
        xs, ys = list(zip(x1.tolist(), y1.tolist())), list(zip(x2.tolist(), y2.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W = sp.w_many(sp.pack(xs), sp.pack(ys), lams)
        for z1, z2, lam, wz in zip(xs, ys, lams.tolist(), W.tolist()):
            assert backward_error(sp.w(z1, z2, lam), z1, z2, lam) <= 64.0, (z1, z2, lam)
            assert backward_error((wz.real, wz.imag), z1, z2, lam) <= 64.0, (z1, z2, lam)

    def test_w_endpoints_are_exact(self):
        sp, rng = HalfPlane(), np.random.default_rng(21)
        for draw in (sp.sample, VerticalLine(0.0).sample):  # off and on the vertical
            pairs = [(draw(rng), draw(rng)) for _ in range(2000)]
            for z1, z2 in pairs:
                assert sp.raw_w(z1, z2, 0.0) == z1 and sp.raw_w(z1, z2, 1.0) == z2
            Z1, Z2 = sp.pack([a for a, _ in pairs]), sp.pack([b for _, b in pairs])
            assert np.array_equal(sp.w_many(Z1, Z2, 0.0), Z1)
            assert np.array_equal(sp.w_many(Z1, Z2, 1.0), Z2)

    # distinct pairs at distance 0, and at a distance below the normal floats
    @pytest.mark.parametrize("z1,z2", [((0.0, 1.0), (5e-324, 1.0)),
                                       ((0.0, 1.0), (-5e-324, 1.0)),
                                       ((0.0, 1e10), (1e-300, 1e10))])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
    def test_w_of_a_distinct_pair_closer_than_the_floats_is_its_first_point(self, z1, z2, lam):
        sp = HalfPlane()
        assert sp.d(z1, z2) < sys.float_info.min
        assert sp.w(z1, z2, lam) == z1
        W = sp.w_many(sp.pack([z1]), sp.pack([z2]), lam)
        assert (W[0].real, W[0].imag) == z1

    @pytest.mark.parametrize("y", [1e-200, 1e200, 5e-324, 1e308])
    def test_distance_to_itself_is_zero(self, y):
        assert HalfPlane().d((0.0, y), (0.0, y)) == 0.0
        assert HalfPlane().d((3.0, y), (3.0, y)) == 0.0

    @pytest.mark.parametrize("y", [1e200, 1e-200])
    def test_distance_is_scale_invariant(self, y):
        # (x, y) -> (k x, k y) is an isometry; the product y1*y2 leaves the floats
        assert HalfPlane().d((0.0, y), (y, y)) == pytest.approx(2.0 * math.asinh(0.5),
                                                              rel=1e-15)

    @pytest.mark.parametrize("z1,z2", [((-1e308, 1.0), (1e308, 1.0)),
                                       ((1e308, 1.0), (-1e308, 1.0))])
    def test_distance_when_the_difference_overflows(self, z1, z2):
        assert math.isinf(z1[0] - z2[0])
        sp = HalfPlane()
        assert sp.d(z1, z2) == 2.0 * math.asinh(1e308) == 1419.778711645452
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sp.d_many(sp.pack([z1, (0.0, 1.0)]), sp.pack([z2, (0.0, 1.0)]))
        assert got[0] == pytest.approx(1419.778711645452, rel=1e-15) and got[1] == 0.0

    def test_distance_on_the_default_box_keeps_its_bits(self):
        sp = HalfPlane()
        rng = np.random.default_rng(11)
        for _ in range(2000):
            z1, z2 = sp.sample(rng), sp.sample(rng)
            assert repr(sp.raw_d(z1, z2)) == repr(product_d(z1, z2))

    # 2*asinh(|z1-z2| / (2*sqrt(y1*y2))) to 40 digits (mpmath), rounded to a float
    @pytest.mark.parametrize("z1,z2,want", [
        ((-1e308, 0.5), (1e308, 0.5), 1421.165006006572),
        ((-1e307, 1e-10), (1e307, 1e-10), pytest.approx(1461.2252433193448, rel=1e-15)),
    ])
    def test_distance_when_the_quotient_overflows(self, z1, z2, want):
        # asinh's argument (2e308, 1e317) is past the largest float
        sp = HalfPlane()
        assert sp.d(z1, z2) == want
        assert sp.d(z2, z1) == want
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sp.d_many(sp.pack([z1, z2, (0.0, 1.0)]), sp.pack([z2, z1, (0.0, 1.0)]))
        assert got[:2].tolist() == pytest.approx([sp.d(z1, z2)] * 2, rel=1e-15)
        assert got[2] == 0.0

    def test_batched_distance_at_wide_scales(self):
        sp = HalfPlane()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sp.d_many(sp.pack([(0.0, 1e200), (0.0, 1e-200)]),
                            sp.pack([(1e200, 1e200), (0.0, 1e-200)]))
        assert got.tolist() == [2.0 * math.asinh(0.5), 0.0]

    def test_batched_distance_on_the_default_box_keeps_its_bits(self):
        sp = HalfPlane()
        lo, hi = sp.sample_box()
        rng = np.random.default_rng(12)
        Z1, Z2 = (sp.from_coords(rng.uniform(lo, hi, (2000, 2))) for _ in range(2))
        # d_many before it guarded the product y1*y2, verbatim
        old = 2.0 * np.arcsinh(np.abs(Z1 - Z2) / (2.0 * np.sqrt(Z1.imag * Z2.imag)))
        assert list(map(repr, sp.d_many(Z1, Z2))) == list(map(repr, old))

    # both y near the float limit, so sqrt(y1)*sqrt(y2) is above half of it
    # and 2*root would overflow
    @pytest.mark.parametrize("z1,z2", [
        ((0.0, 1e308), (1e307, 1.7e308)),
        ((1e307, 1.7e308), (0.0, 1e308)),
        ((-3.0, 1.7e308), (5.0, 1.79e308)),
    ])
    def test_distance_when_twice_the_root_overflows(self, z1, z2):
        sp = HalfPlane()
        assert math.sqrt(z1[1]) * math.sqrt(z2[1]) > sys.float_info.max / 2
        want = decimal_halfplane_d(z1, z2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sp.d(z1, z2) == pytest.approx(want, rel=1e-15)
            got = sp.d_many(sp.pack([z1, (0.0, 1.0)]), sp.pack([z2, (0.0, 1.0)]))
        assert got[0] == pytest.approx(want, rel=1e-15) and got[1] == 0.0

    def test_distance_when_twice_the_root_and_the_difference_overflow(self):
        z1, z2 = (-1e308, 1e308), (1e308, 1.7e308)
        assert math.isinf(z1[0] - z2[0])
        assert HalfPlane().d(z1, z2) == pytest.approx(decimal_halfplane_d(z1, z2), rel=1e-15)


def decimal_vertical_w(y1, y2, lam):
    """y1**(1 - lam) * y2**lam, the height of w on a vertical geodesic, in
    50-digit decimal arithmetic."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return float((D(y1).ln() * (1 - D(lam)) + D(y2).ln() * D(lam)).exp())


def decimal_halfplane_d(z1, z2, prec=50):
    """2*asinh(|z1-z2| / (2*sqrt(y1*y2))) in prec-digit decimal arithmetic;
    the coordinates are floats or Decimals."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        (x1, y1), (x2, y2) = [(D(x), D(y)) for x, y in (z1, z2)]
        q = ((x1 - x2) ** 2 + (y1 - y2) ** 2).sqrt() / (2 * (y1 * y2).sqrt())
        return float(2 * (q + (q * q + 1).sqrt()).ln())


def decimal_halfplane_w(z1, z2, lam):
    """w(z1, z2, lam) on the half-plane in 60-digit decimal arithmetic, with d
    from ln and sqrt and sinh from exp: the weights u1 = sinh((1-lam)d)/sinh(d)
    and u2 = sinh(lam d)/sinh(d), a = u1/y1, b = u2/y2 and
    w = ((a*x1 + b*x2)/(a + b), 1/(a + b)).  Returns (x, y, d) as Decimals."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        (x1, y1), (x2, y2) = [(D(x), D(y)) for x, y in (z1, z2)]
        q = ((x1 - x2) ** 2 + (y1 - y2) ** 2).sqrt() / (2 * (y1 * y2).sqrt())
        d = 2 * (q + (q * q + 1).sqrt()).ln()
        lam = D(lam)
        sinh_d = (d.exp() - (-d).exp()) / 2
        u1 = ((1 - lam) * d).exp() - (-(1 - lam) * d).exp()
        u2 = (lam * d).exp() - (-lam * d).exp()
        a, b = u1 / (2 * sinh_d) / y1, u2 / (2 * sinh_d) / y2
        return (a * x1 + b * x2) / (a + b), 1 / (a + b), d


FLOAT_MAX = decimal.Decimal(sys.float_info.max)


def backward_error(w, z1, z2, lam):
    """The distance from w to the exact point, as a multiple of the floor
    2.3e-16*(1 + d) + 4e-16*(1 + max |x|/y over z1, z2 and the exact point):
    the rounding of d and of the point, and one ulp of each input, in
    hyperbolic units.  The exact point must be a normal float."""
    x, y, d = decimal_halfplane_w(z1, z2, lam)
    assert decimal.Decimal(sys.float_info.min) <= y <= FLOAT_MAX and abs(x) <= FLOAT_MAX
    slope = max(abs(z1[0]) / z1[1], abs(z2[0]) / z2[1], float(abs(x) / y))
    return decimal_halfplane_d(w, (x, y), prec=60) / (2.3e-16 * (1 + float(d))
                                                      + 4e-16 * (1 + slope))


# pairs whose point is no normal float: above the float max (where lam is
# not near 0 or 1), and below the smallest normal float (at every lam)
REFUSED_PAIRS = [((-1.7e308, 1e308), (1.7e308, 1e308)), ((0.0, 5e-324), (1e-323, 5e-324))]


@pytest.mark.parametrize("name", ["euclidean:1", "euclidean:2", "euclidean:3",
                                  "tripod", "halfplane"])
def test_axiom_suite_builtin(name):
    report = check_axioms(spaces.from_name(name), n_samples=1000, tol=1e-9)
    assert report.passed, report.results


def test_axiom_checker_flags_broken_space():
    report = check_axioms(BrokenDemo(), n_samples=200, tol=1e-9)
    assert not report.passed
    assert "axiom_ii" in report.failing()


def test_check_axioms_rejects_bad_args():
    with pytest.raises(ValueError):
        check_axioms(Euclidean(1), n_samples=0)
    with pytest.raises(ValueError):
        check_axioms(Euclidean(1), tol=0.0)
    with pytest.raises(ValueError):
        check_axioms(Euclidean(1), tol=math.nan)


def test_check_axioms_invalid_sampler():
    with pytest.raises(InvalidPointError):
        check_axioms(HalfPlane(), sampler=lambda rng: (0.0, -1.0), n_samples=1)


def test_check_axioms_nonfinite_violation_fails():
    # d overflows to inf, so the symmetry and triangle terms are nan
    report = check_axioms(Euclidean(1), n_samples=50,
                          sampler=lambda r: np.array([r.uniform(-1, 1) * 1.7e308]))
    res = report.results["metric"]
    assert not report.passed
    assert not res.passed and math.isnan(res.max_violation)
    assert res.worst_tuple is not None and len(res.worst_tuple) == 3


def test_worst_tuple_holds_sampled_points():
    seen = []

    def sampler(rng):
        seen.append(rng.uniform(-5.0, 5.0, size=1))
        return seen[-1]

    report = check_axioms(BrokenDemo(), sampler=sampler, n_samples=300)
    x, y, lam, mu = report.results["axiom_ii"].worst_tuple
    assert any(x is p for p in seen) and any(y is p for p in seen)
    assert isinstance(lam, float) and isinstance(mu, float)


# ---------------------------------------------------------------------------
# batched primitives against the scalar ones

ALL_SPACES = ["euclidean:1", "euclidean:2", "euclidean:3", "tripod", "halfplane",
              "broken-demo"]

# (x, y, lam) cases that take the less common branches of d and w
EDGE_CASES = {
    "tripod": [
        (("A", 0.0), ("B", 2.0), 0.3),    # the hub
        (("B", 2.0), ("A", 0.0), 0.3),
        (("C", 0.0), ("C", 0.0), 0.5),
        (("B", 1.0), ("B", 2.5), 0.4),    # same ray
        (("B", 2.5), ("B", 1.0), 0.4),
        (("A", 1.0), ("B", 3.0), 0.25),   # t == a: lands on the hub
        (("A", 1.0), ("B", 3.0), 0.75),   # through the hub
    ],
    "halfplane": [
        ((0.0, 1.0), (0.0, 3.0), 0.3),    # vertical pair, x2 == x1
        ((1.0, 2.0), (1.0, 2.0), 0.6),    # identical points
        ((0.0, 1.0), (0.6, 0.8), 0.5),    # (x2 - x1)^2 + y2^2 == y1^2
        ((0.6, 0.8), (0.0, 1.0), 0.5),
        ((0.0, 1.0), (1e-170, 1.0), 0.5),  # a horizontal step of 1e-170
    ],
}


@pytest.mark.parametrize("name", ALL_SPACES)
def test_batched_primitives_match_scalar(name):
    space = spaces.from_name(name)
    rng = np.random.default_rng(3)
    cases = [(space.sample(rng), space.sample(rng), float(rng.uniform())) for _ in range(200)]
    cases += [(x, x, lam) for x, _, lam in cases[:5]]
    cases += EDGE_CASES.get(name, [])
    xs, ys, lams = zip(*cases)
    X, Y = space.pack(list(xs)), space.pack(list(ys))
    expected = [space.d(x, y) for x, y, _ in cases]
    assert space.d_many(X, Y) == pytest.approx(expected, rel=1e-13, abs=1e-15)
    # each batched w, mapped back through pack, is the scalar w's point
    W = space.w_many(X, Y, np.array(lams))
    Wref = space.pack([space.w(x, y, lam) for x, y, lam in cases])
    assert np.all(space.d_many(W, Wref) <= 1e-12)


@pytest.mark.parametrize("name", ALL_SPACES)
def test_pack_of_no_points_is_an_empty_batch(name):
    space = spaces.from_name(name)
    X = space.pack([])
    assert len(space.d_many(X, X)) == 0
    assert len(space.d_many(space.w_many(X, X, np.array([])), X)) == 0


def test_tripod_w_many_edge_values():
    sp = Tripod()
    xs, ys, lams = zip(*EDGE_CASES["tripod"])
    rays, r = sp.w_many(sp.pack(list(xs)), sp.pack(list(ys)), np.array(lams))
    got = [(spaces.TRIPOD_RAYS[c], float(v)) for c, v in zip(rays, r)]
    assert got == [sp.w(x, y, lam) for x, y, lam in EDGE_CASES["tripod"]]


# ---------------------------------------------------------------------------
# raw primitives against the validating ones

def exact(value):
    """A value's exact form: dtype, shape and bytes of an array, else its type
    and repr (a tuple's repr is exact for Python floats, the sign of zero
    included)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value).__name__, repr(value)


@pytest.mark.parametrize("name", ALL_SPACES)
def test_raw_primitives_match_public_bit_for_bit(name):
    space = spaces.from_name(name)
    rng = np.random.default_rng(5)
    cases = [(space.sample(rng), space.sample(rng), float(rng.uniform())) for _ in range(300)]
    cases += [(x, x, lam) for x, _, lam in cases[:5]]
    cases += EDGE_CASES.get(name, [])
    if isinstance(space, Euclidean):  # wide scales, up to overflow in the distance
        cases += [(x * 10.0 ** rng.uniform(-300, 300), y * 10.0 ** rng.uniform(-300, 300), lam)
                  for x, y, lam in cases[:50]]
    for x, y, lam in cases:
        cx, cy = space.check_point(x), space.check_point(y)
        with np.errstate(over="ignore"):
            assert exact(space.raw_d(cx, cy)) == exact(space.d(x, y))
            assert exact(space.raw_w(cx, cy, lam)) == exact(space.w(x, y, lam))
        if isinstance(space, Euclidean):
            # the written formulas: hypot of the differences, and numpy's
            # (1 - lam) x + lam y coordinate by coordinate
            X, Y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                D, W = X - Y, (1.0 - lam) * X + lam * Y
            assert repr(space.raw_d(cx, cy)) == repr(math.hypot(*D.tolist()))
            if name != "broken-demo":
                assert exact(space.raw_w(cx, cy, lam)) == exact(tuple(W.tolist()))


def bits(v):
    return struct.pack("<d", v)


# finite floats, with the edges drawn often: signed zeros, subnormals, the
# smallest normal and +-max (whose differences overflow to inf)
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.min,
                     sys.float_info.max, -sys.float_info.max]),
    st.floats(allow_nan=False, allow_infinity=False))
LAMBDA = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=500, deadline=None)
@given(pair=st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.tuples(FINITE, FINITE)] * n)))
def test_euclidean_raw_d_has_the_bits_of_hypot_of_differences(pair):
    x, y = tuple(a for a, _ in pair), tuple(b for _, b in pair)
    assert bits(Euclidean(len(x)).raw_d(x, y)) == bits(math.hypot(*(a - b for a, b in pair)))


@settings(max_examples=500, deadline=None)
@given(pair=st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.tuples(FINITE, FINITE)] * n)), lam=LAMBDA)
def test_euclidean_raw_w_has_the_bits_of_the_comprehension(pair, lam):
    x, y = tuple(a for a, _ in pair), tuple(b for _, b in pair)
    got = Euclidean(len(x)).raw_w(x, y, lam)
    want = tuple([(1.0 - lam) * u + lam * v for u, v in zip(x, y)])
    assert type(got) is tuple and len(got) == len(x)
    assert struct.pack(f"<{len(x)}d", *got) == struct.pack(f"<{len(x)}d", *want)


@given(a=FINITE, b=FINITE, lam=LAMBDA)
def test_broken_demo_raw_w_still_returns_y(a, b, lam):
    y = (b,)
    assert BrokenDemo().raw_w((a,), y, lam) is y
    assert BrokenDemo().w((a,), y, lam) is y


def previous_euclidean_check(dim, x):
    """Euclidean.check_point before its shape fast path: the accept/reject reference."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (dim,):
        raise InvalidPointError(f"expected {dim} coordinates, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidPointError(f"non-finite coordinates: {x}")
    return v


CHECK_INPUTS = [
    0.5, -3, np.float64(2.0), np.array(0.5), [0.5], (0.5,), np.array([0.5]),
    [1.0, 2.0], (1, 2), np.array([1.0, 2.0]), np.array([1, 2], dtype=np.int64),
    [0.1, 0.2, 0.3], [[1.0]], [[1.0, 2.0]], np.zeros((2, 1)), np.zeros((1, 3)), [],
    math.inf, -math.inf, math.nan, [1.0, math.inf], [-math.inf, 0.0], [math.nan, 1.0],
    np.array([0.0, 1.0, math.nan]), [True, False], "1.5", "abc", [1.0, "x"],
]


def outcome(check, x):
    try:
        return "ok", exact(check(x))
    except Exception as exc:  # the exception type is part of the contract
        return "raises", type(exc)


def as_point(check):
    """A reference check whose accepted array is given as the tuple of its
    elements, the form Euclidean.check_point returns."""
    return lambda x: tuple(check(x).tolist())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_euclidean_check_point_accepts_as_before(dim):
    space = Euclidean(dim)
    for x in CHECK_INPUTS:
        got = outcome(space.check_point, x)
        want = outcome(as_point(lambda v: previous_euclidean_check(dim, v)), x)
        if want[1] in (TypeError, ValueError):  # non-numeric input is now an invalid point
            want = ("raises", InvalidPointError)
        assert got == want, x
        if got[0] == "ok":
            point = space.check_point(x)
            assert len(point) == dim and all(type(c) is float for c in point)


def isfinite_euclidean_check(dim, x):
    """Euclidean.check_point with np.isfinite(v).all(): the reference for its finite test."""
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        v = np.atleast_1d(v)
        if v.shape != (dim,):
            raise InvalidPointError(f"expected {dim} coordinates, got {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidPointError(f"non-finite coordinates: {x}")
    return v


SPECIAL_COORDINATES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e308, -1e308,
                       1.7976931348623157e308, math.inf, -math.inf, math.nan]


def finite_test_inputs(dim):
    base = np.linspace(-1.0, 1.0, dim)
    out = [base, base.tolist(), np.array(SPECIAL_COORDINATES[:8] * dim)[:dim]]
    for c in SPECIAL_COORDINATES:
        for k in {0, dim // 2, dim - 1}:
            v = base.copy()
            v[k] = c
            out += [v, v.tolist()]
        out.append(np.full(dim, c))
    if dim == 1:
        out += SPECIAL_COORDINATES + [np.float64(c) for c in SPECIAL_COORDINATES]
        out += [np.array(c) for c in SPECIAL_COORDINATES] + [[c] for c in SPECIAL_COORDINATES]
    return out


def outcome_with_message(check, x):
    try:
        return "ok", exact(check(x))
    except Exception as exc:
        return "raises", type(exc), str(exc)


@pytest.mark.parametrize("dim", [1, 2, 3, 64])
def test_euclidean_finite_test_matches_isfinite(dim):
    space = Euclidean(dim)
    inputs = finite_test_inputs(dim)
    rejected = 0
    for x in inputs + [tuple(v) for v in inputs if isinstance(v, list)]:
        got = outcome_with_message(space.check_point, x)
        assert got == outcome_with_message(as_point(lambda v: isfinite_euclidean_check(dim, v)),
                                           x), x
        rejected += got[0] == "raises"
    assert 0 < rejected < len(inputs)


# a point with an int coordinate past the floats: float() of it overflows
POINTS_WITH_A_BIG_INT = {
    "halfplane-y": (HalfPlane(), lambda big: (0, big)),
    "halfplane-x": (HalfPlane(), lambda big: (big, 1.0)),
    "tripod": (Tripod(), lambda big: ("A", big)),
    "euclidean:1-scalar": (Euclidean(1), lambda big: big),
    "euclidean:1": (Euclidean(1), lambda big: (big,)),
    "euclidean:2": (Euclidean(2), lambda big: (0, big)),
    "euclidean:4": (Euclidean(4), lambda big: [0.5, 0, big, 1]),
}


@pytest.mark.parametrize("name", sorted(POINTS_WITH_A_BIG_INT))
@pytest.mark.parametrize("big", [10**400, -10**400, 10**5000], ids=["1e400", "-1e400", "1e5000"])
def test_an_int_past_the_floats_is_an_invalid_point(name, big):
    # 10**5000 has more digits than str() of an int may print, so the message omits it
    space, point = POINTS_WITH_A_BIG_INT[name]
    with pytest.raises(InvalidPointError, match="an int past the floats"):
        space.check_point(point(big))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
def test_euclidean_check_point_is_written_out_at_dims_1_to_3(dim):
    space = Euclidean(dim)
    if dim <= 3:
        assert space.check_point is spaces._EUCLIDEAN_CHECK[dim - 1]
    else:  # the loop, Euclidean's own method
        assert "check_point" not in vars(space)
        assert space.check_point.__func__ is Euclidean.check_point


def test_a_subclass_that_keeps_check_point_gets_the_written_out_one():
    assert BrokenDemo().check_point is spaces._EUCLIDEAN_CHECK[0]


def d_w_and_run(space):
    """d, w and an S run of a 2-D affine map on space, as plain values."""
    t = mappings.affine(mappings.AffineMap([[0.3, 0.1], [0.0, 0.4]], [0.1, 0.2]))[1]
    trace = run(space, t, "implicit-s", default_schedule().weights(10), (1.0, -1.0))
    return (space.d((0.0, 1.0), [3.0, 5.0]), tuple(space.w((0.0, 1.0), (2.0, 2.0), 0.25)),
            [tuple(r.x.tolist()) for r in trace])


@pytest.mark.parametrize("how", ["subclass", "class patch", "instance attribute"])
def test_euclidean_check_point_override_wins(monkeypatch, how):
    """A subclass's check_point, a class-level patch made before the space is
    built, and an instance attribute each replace the written-out check, in
    d, in w and in the solver."""
    want = d_w_and_run(Euclidean(2))
    seen = []
    check = Euclidean.check_point

    def counted(self, x):
        seen.append(x)
        return check(self, x)

    if how == "subclass":
        space = type("Counting", (Euclidean,), {"check_point": counted})(2)
    elif how == "class patch":
        monkeypatch.setattr(Euclidean, "check_point", counted)
        space = Euclidean(2)
    else:
        space = Euclidean(2)
        space.check_point = counted.__get__(space)
    assert space.check_point is not spaces._EUCLIDEAN_CHECK[1]
    space.d((0.0, 1.0), (1.0, 1.0))
    assert len(seen) == 2
    space.w((0.0, 1.0), (1.0, 1.0), 0.5)
    assert len(seen) == 4
    assert d_w_and_run(space) == want
    assert len(seen) > 4 + 4 + 10  # d and w again, then the run's steps


BAD_POINTS = [
    ("euclidean:2", np.array([0.0, math.nan])),
    ("euclidean:2", np.array([1.0, 2.0, 3.0])),   # wrong dimension
    ("euclidean:1", [1.0, 2.0]),
    ("tripod", ("D", 1.0)),
    ("tripod", ("A", math.nan)),
    ("halfplane", (0.0, 0.0)),
    ("halfplane", (0.0, -1.0)),
    ("broken-demo", np.array([math.inf])),
    # malformed: no pair, or a coordinate that is no real number
    ("tripod", ("A",)), ("tripod", ("A", "1")), ("tripod", ("A", 1.0, 2.0)), ("tripod", 3.0),
    ("halfplane", (1.0,)), ("halfplane", 3.0), ("halfplane", ("0", 1.0)),
    ("halfplane", (0.0, None)), ("euclidean:1", ("x",)), ("euclidean:2", [1.0, "x"]),
    ("euclidean:2", [[1.0, 2.0], [3.0]]), ("euclidean:1", {}),
]


@pytest.mark.parametrize("name,bad", BAD_POINTS)
def test_pack_rejects_bad_point_anywhere(name, bad, monkeypatch):
    space = spaces.from_name(name)
    rng = np.random.default_rng(0)
    points = [space.sample(rng) for _ in range(300)]
    with pytest.raises(InvalidPointError):
        space.check_point(bad)
    for k in (0, 137, 299):
        with pytest.raises(InvalidPointError):
            space.pack(points[:k] + [bad] + points[k + 1:])
    calls = []

    def sampler(r):
        calls.append(None)
        return bad if len(calls) == 1500 else space.sample(r)  # the 2nd block

    monkeypatch.setattr(spaces, "AXIOM_BLOCK", 256)
    with pytest.raises(InvalidPointError):
        check_axioms(space, sampler=sampler, n_samples=400)


def reference_check_axioms(space, n_samples, tol, seed):
    """The scalar checker: one tuple at a time through d and w."""
    rng = np.random.default_rng(seed)
    worst = {name: (0.0, None) for name in spaces.AXIOM_NAMES}

    def note(name, violation, tup):
        old = worst[name][0]
        if violation > old or (math.isnan(violation) and not math.isnan(old)):
            worst[name] = (violation, tup)

    def pos(v):
        return v if math.isnan(v) else max(0.0, v)

    for _ in range(n_samples):
        pts = [space.sample(rng) for _ in range(5)]
        for p in pts:
            space.check_point(p)
        x, y, z, v, u = pts
        lam = float(rng.uniform())
        mu = float(rng.uniform())
        d, w = space.d, space.w
        dxy = d(x, y)
        note("metric", max(abs(d(x, x)), abs(dxy - d(y, x)), pos(dxy - (d(x, z) + d(z, y)))),
             (x, y, z))
        wl, wm = w(x, y, lam), w(x, y, mu)
        note("axiom_i", pos(d(u, wl) - ((1.0 - lam) * d(u, x) + lam * d(u, y))),
             (x, y, u, lam))
        note("axiom_ii", abs(d(wl, wm) - abs(lam - mu) * dxy), (x, y, lam, mu))
        note("axiom_iii", d(wl, w(y, x, 1.0 - lam)), (x, y, lam))
        note("axiom_iv", pos(d(w(x, z, lam), w(y, v, lam))
                             - ((1.0 - lam) * d(x, y) + lam * d(z, v))),
             (x, y, z, v, lam))
    return {name: (val, tup, val <= tol) for name, (val, tup) in worst.items()}


@pytest.mark.parametrize("name", ALL_SPACES)
def test_check_axioms_matches_scalar_reference(name):
    space = spaces.from_name(name)
    for seed in range(5):
        report = check_axioms(space, n_samples=300, tol=1e-9, seed=seed)
        ref = reference_check_axioms(space, 300, 1e-9, seed)
        for axiom, (val, tup, passed) in ref.items():
            res = report.results[axiom]
            assert res.passed == passed, (seed, axiom)
            assert res.max_violation == pytest.approx(val, rel=0, abs=1e-14), (seed, axiom)
            if not passed:  # a large violation: the same sampled tuple is the worst
                for f, p, q in zip(spaces.WORST_FIELDS[axiom], res.worst_tuple, tup):
                    assert p == q if f in ("lam", "mu") else space.d(p, q) == 0.0


def report_bytes(report):
    """passed, repr(max_violation) and the exact worst tuple of each axiom."""
    return report.passed, {
        name: (res.passed, repr(res.max_violation),
               None if res.worst_tuple is None else tuple(map(exact, res.worst_tuple)))
        for name, res in report.results.items()}


@pytest.mark.parametrize("name", ALL_SPACES)
@pytest.mark.parametrize("n_samples", [1, 255, 256, 257, 1000, 4097])
def test_block_draws_equal_per_tuple_sampling(name, n_samples):
    space = spaces.from_name(name)
    for seed in (0, 11):
        block = check_axioms(space, n_samples=n_samples, seed=seed)
        per_tuple = check_axioms(space, sampler=space.sample, n_samples=n_samples, seed=seed)
        assert report_bytes(block) == report_bytes(per_tuple), seed


@pytest.mark.parametrize("name", ALL_SPACES)
def test_block_size_never_changes_a_report(name, monkeypatch):
    space = spaces.from_name(name)
    small, large = (1, 7, 8, 300), (4095, 4096, 4097)
    # the reference checks every tuple in one block
    monkeypatch.setattr(spaces, "AXIOM_BLOCK", 10_000)
    want = {n: report_bytes(check_axioms(space, n_samples=n, seed=3)) for n in small + large}
    # blocks of 1 and 7 take one pass per few tuples, so only on small checks
    for block, sizes in [(1, small), (7, small), (256, small + large),
                         (4096, small + large)]:
        monkeypatch.setattr(spaces, "AXIOM_BLOCK", block)
        for n in sizes:
            assert report_bytes(check_axioms(space, n_samples=n, seed=3)) == want[n], (block, n)


def test_default_check_is_one_block():
    assert spaces.AXIOM_BLOCK >= 1000


# the samplers of Euclidean and the half-plane before their sampling boxes
REFERENCE_SAMPLERS = {
    "euclidean:1": lambda rng: rng.uniform(-5.0, 5.0, size=1),
    "euclidean:2": lambda rng: rng.uniform(-5.0, 5.0, size=2),
    "euclidean:3": lambda rng: rng.uniform(-5.0, 5.0, size=3),
    "broken-demo": lambda rng: rng.uniform(-5.0, 5.0, size=1),
    "halfplane": lambda rng: (float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.1, 5.0))),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SAMPLERS))
def test_sampling_box_keeps_the_reference_stream(name):
    space, reference = spaces.from_name(name), REFERENCE_SAMPLERS[name]
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(2000):
        got, want = space.sample(rng), reference(ref_rng)
        assert type(got) is type(want)
        assert (exact(got) == exact(want) if isinstance(want, np.ndarray)
                else tuple(map(exact, got)) == tuple(map(exact, want)))
    for seed in (0, 19):
        block = check_axioms(space, n_samples=1000, seed=seed)
        ref = check_axioms(space, sampler=reference, n_samples=1000, seed=seed)
        assert report_bytes(block) == report_bytes(ref), seed


def test_tripod_sampler_distribution():
    space, rng = Tripod(), np.random.default_rng(8)
    points = [space.sample(rng) for _ in range(30_000)]
    for ray in spaces.TRIPOD_RAYS:
        share = sum(p[0] == ray for p in points) / len(points)
        assert abs(share - 1 / 3) <= 0.02 / 3, ray
    radii = np.array([p[1] for p in points])
    assert radii.min() >= 0.0 and radii.max() < 3.0


BAD_COORDS = [
    ("euclidean:2", [[0.0, 1.0], [math.nan, 0.0]]),
    ("euclidean:1", [[math.inf]]),
    ("tripod", [[1.5, 1.0], [3.0, 1.0]]),     # ray code 3
    ("tripod", [[-0.5, 1.0]]),                # ray code -1
    ("tripod", [[0.5, -1.0]]),                # negative radius
    ("tripod", [[math.nan, 1.0]]),
    ("tripod", [[0.5, math.inf]]),
    ("halfplane", [[0.0, 1.0], [0.0, 0.0]]),
    ("halfplane", [[math.nan, 1.0]]),
]


@pytest.mark.parametrize("name,coords", BAD_COORDS)
def test_from_coords_rejects_points_outside_the_domain(name, coords):
    with pytest.raises(InvalidPointError):
        spaces.from_name(name).from_coords(np.array(coords))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_euclidean_from_coords_names_the_first_bad_row(bad):
    C = np.array([[0.0, 1.0], [2.0, bad], [bad, 3.0]])
    with pytest.raises(InvalidPointError, match=re.escape(f"non-finite coordinates: {C[1]}")):
        Euclidean(2).from_coords(C)


@pytest.mark.parametrize("dim", range(1, 10))
def test_euclidean_d_many_is_norm_bit_for_bit(dim):
    space = Euclidean(dim)
    lo, hi = space.sample_box()
    rng = np.random.default_rng(dim)
    X, Y = (space.from_coords(rng.uniform(lo, hi, (10_000, dim))) for _ in range(2))
    assert space.d_many(X, Y).tobytes() == np.linalg.norm(X - Y, axis=1).tobytes()


@pytest.mark.parametrize("c", [[-0.5, 1.0], [3.0, 1.0], [math.nan, 1.0]])
def test_tripod_point_from_coords_rejects_ray_outside_box(c):
    with pytest.raises(InvalidPointError):
        Tripod().point_from_coords(np.array(c))


class LowHalfPlane(HalfPlane):
    """A sampling box that reaches below the real axis."""

    def sample_box(self):
        return np.array([-3.0, -1.0]), np.array([3.0, 5.0])


class WideTripod(Tripod):
    """A sampling box whose ray coordinate runs past the last ray."""

    def sample_box(self):
        return np.zeros(2), np.array([4.0, 3.0])


@pytest.mark.parametrize("space", [LowHalfPlane(), WideTripod()])
def test_box_leaving_the_domain_raises(space):
    with pytest.raises(InvalidPointError):
        check_axioms(space, n_samples=300)


GEODESIC_SPACES = [Euclidean(2), Tripod(), HalfPlane()]


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0, 1), mu=st.floats(0, 1), seed=st.integers(0, 10_000))
def test_axiom_ii_property(lam, mu, seed):
    rng = np.random.default_rng(seed)
    for sp in GEODESIC_SPACES:
        x, y = sp.sample(rng), sp.sample(rng)
        lhs = sp.d(sp.w(x, y, lam), sp.w(x, y, mu))
        assert lhs == pytest.approx(abs(lam - mu) * sp.d(x, y), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0, 1), seed=st.integers(0, 10_000))
def test_axiom_iii_property(lam, seed):
    rng = np.random.default_rng(seed)
    for sp in GEODESIC_SPACES:
        x, y = sp.sample(rng), sp.sample(rng)
        assert sp.d(sp.w(x, y, lam), sp.w(y, x, 1.0 - lam)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0, 1), seed=st.integers(0, 10_000))
def test_axiom_i_property(lam, seed):
    rng = np.random.default_rng(seed)
    for sp in GEODESIC_SPACES:
        x, y, u = sp.sample(rng), sp.sample(rng), sp.sample(rng)
        slack = ((1 - lam) * sp.d(u, x) + lam * sp.d(u, y)
                 - sp.d(u, sp.w(x, y, lam)))
        assert slack >= -1e-9


def in_subset(subset, space, point):
    """Membership of a checked point in an Interval or a VerticalLine."""
    point = space.check_point(point)
    if isinstance(subset, Interval):
        return subset.lo <= float(point[0]) <= subset.hi
    return abs(point[0] - subset.x0) <= 1e-9


@pytest.mark.parametrize("subset,space", [
    (Interval(0.0, 1.0), Euclidean(1)),
    (VerticalLine(0.0), HalfPlane()),
], ids=["interval", "vertical-line"])
def test_convex_subset_closure(subset, space):
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        x, y = subset.sample(rng), subset.sample(rng)
        lam = rng.uniform()
        assert in_subset(subset, space, space.w(x, y, lam))


def test_from_name():
    assert spaces.from_name("euclidean:3").dim == 3
    assert isinstance(spaces.from_name("tripod"), Tripod)
    assert isinstance(spaces.from_name("halfplane"), HalfPlane)
    with pytest.raises(ConfigError):
        spaces.from_name("hilbert-ball")

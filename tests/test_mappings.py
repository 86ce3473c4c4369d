import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitfp import mappings
from implicitfp.errors import CertificateError, ConfigError, InvalidPointError
from implicitfp.mappings import (AffineMap, ApproximateOperator,
                                 ContractiveLike, LinearPhi,
                                 OsilikeUdomeneCertificate,
                                 VerificationReport, ZamfirescuCertificate,
                                 check_zamfirescu, validate_phi,
                                 verify_approximate, verify_contractive_like,
                                 zamfirescu_delta)
from implicitfp.spaces import Euclidean, HalfPlane


class TestZamfirescuDelta:
    def test_first_term_dominates(self):
        assert zamfirescu_delta(ZamfirescuCertificate(0.5, 0.25, 0.25)) == pytest.approx(0.5)

    def test_middle_term_dominates(self):
        assert zamfirescu_delta(ZamfirescuCertificate(0.1, 0.4, 0.1)) == pytest.approx(2.0 / 3.0)

    def test_boundary_rejected(self):
        with pytest.raises(CertificateError):
            ZamfirescuCertificate(1.0, 0.25, 0.25)
        with pytest.raises(CertificateError):
            ZamfirescuCertificate(0.5, 0.5, 0.25)
        with pytest.raises(CertificateError):
            ZamfirescuCertificate(0.5, 0.25, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(a=st.floats(0.01, 0.99), b=st.floats(0.01, 0.49),
           c=st.floats(0.01, 0.49), bump=st.floats(0.0, 0.001))
    def test_monotone_in_each_parameter(self, a, b, c, bump):
        base = zamfirescu_delta(ZamfirescuCertificate(a, b, c))
        assert zamfirescu_delta(ZamfirescuCertificate(min(a + bump, 0.999), b, c)) >= base
        assert zamfirescu_delta(ZamfirescuCertificate(a, min(b + bump, 0.499), c)) >= base
        assert zamfirescu_delta(ZamfirescuCertificate(a, b, min(c + bump, 0.499))) >= base

    def test_result_in_unit_interval(self):
        assert 0.0 < zamfirescu_delta(ZamfirescuCertificate(0.9, 0.49, 0.49)) < 1.0


class TestPhiFamily:
    def test_validate_phi(self):
        assert validate_phi(LinearPhi(1.0))
        assert not validate_phi(LinearPhi(0.0))
        assert validate_phi(lambda t: 0.5 * t ** 2)

    def test_nonmonotone_phi_rejected(self):
        with pytest.raises(CertificateError, match="strictly increasing"):
            validate_phi(lambda t: t * (0.5 - t))

    def test_nonzero_at_origin_rejected(self):
        with pytest.raises(CertificateError):
            validate_phi(lambda t: t + 1.0)


class TestContractiveLike:
    def test_halving_passes(self):
        space, t, sampler = mappings.halving()
        rep = verify_contractive_like(space, t, sampler, n_samples=500)
        assert rep.passed
        assert rep.max_violation == pytest.approx(0.0, abs=1e-15)
        assert t.phi_degenerate

    def test_halving_with_too_small_delta_fails(self):
        space, _, sampler = mappings.halving()
        t = ContractiveLike(lambda x: 0.5 * np.atleast_1d(x), 0.4, LinearPhi(0.0))
        rep = verify_contractive_like(space, t, sampler, n_samples=500)
        assert not rep.passed
        # brute-force: max violation is 0.1 * max sampled |x - y| <= 0.1
        assert 0.0 < rep.max_violation <= 0.1 + 1e-12
        assert rep.argmax is not None

    def test_identity_fails(self):
        space = Euclidean(1)
        t = ContractiveLike(lambda x: np.atleast_1d(x), 0.9, LinearPhi(0.0))
        rep = verify_contractive_like(space, t, n_samples=200)
        assert not rep.passed

    def test_delta_out_of_range(self):
        with pytest.raises(CertificateError):
            ContractiveLike(lambda x: x, 1.0)

    def test_passing_check_is_monotone_in_delta(self):
        space, t, sampler = mappings.halving()
        looser = ContractiveLike(t.apply, 0.75, t.phi, t.fixed_point)
        assert verify_contractive_like(space, looser, sampler, n_samples=300).passed


class TestOsilikeUdomene:
    def test_induces_contractive_like(self):
        cert = OsilikeUdomeneCertificate(0.5, 2.0)
        t = cert.to_contractive_like(lambda x: 0.5 * np.atleast_1d(x))
        assert not t.phi_degenerate
        assert t.phi(2.0) == pytest.approx(4.0)

    def test_l_zero_degenerate(self):
        cert = OsilikeUdomeneCertificate(0.5, 0.0)
        t = cert.to_contractive_like(lambda x: 0.5 * np.atleast_1d(x))
        assert t.phi_degenerate

    def test_invalid(self):
        with pytest.raises(CertificateError):
            OsilikeUdomeneCertificate(1.0, 0.0)
        with pytest.raises(CertificateError):
            OsilikeUdomeneCertificate(0.5, -1.0)


class TestApproximateOperator:
    def test_constant_offset_passes_at_epsilon(self):
        space, t, sampler = mappings.halving()
        s = ApproximateOperator(lambda x: (t.apply(x)[0] + 0.01,), 0.01)
        rep = verify_approximate(space, t, s, sampler, n_samples=300)
        assert rep.passed
        assert rep.max_violation == pytest.approx(0.01)

    def test_offset_exceeding_epsilon_fails(self):
        space, t, sampler = mappings.halving()
        s = ApproximateOperator(lambda x: (t.apply(x)[0] + 0.02,), 0.01)
        assert not verify_approximate(space, t, s, sampler, n_samples=300).passed

    def test_identical_operator(self):
        space, t, sampler = mappings.halving()
        s = ApproximateOperator(t.apply, 0.5)
        rep = verify_approximate(space, t, s, sampler, n_samples=100)
        assert rep.passed
        assert rep.max_violation == 0.0

    def test_epsilon_positive(self):
        with pytest.raises(CertificateError):
            ApproximateOperator(lambda x: x, 0.0)


def test_zamfirescu_hierarchy_empirical():
    # any map passing the per-pair (z1)-(z3) check also satisfies the
    # contractive-like inequality with delta = zamfirescu_delta and
    # phi(t) = 2*delta*t on the same samples
    space, base, sampler = mappings.halving()
    cert = ZamfirescuCertificate(0.6, 0.3, 0.3)
    assert check_zamfirescu(space, base.apply, cert, sampler, n_samples=400).passed
    delta = zamfirescu_delta(cert)
    t = ContractiveLike(base.apply, delta, LinearPhi(2.0 * delta))
    assert verify_contractive_like(space, t, sampler, n_samples=400).passed


class TestCorpus:
    def test_affine_certificate_is_operator_norm(self):
        m = AffineMap([[0.3, 0.1], [0.0, 0.4]], [0.1, 0.2])
        space, t, _ = mappings.affine(m)
        assert t.delta == pytest.approx(np.linalg.norm(m.A, 2))
        assert t.apply(t.fixed_point) == pytest.approx(t.fixed_point)

    def test_affine_expanding_rejected(self):
        with pytest.raises(CertificateError):
            mappings.affine(AffineMap([[1.2]], [0.0]))

    def test_affine_nonfinite_fixed_point_rejected(self):
        # ||A|| < 1, but (I - A)^{-1} b overflows
        with pytest.raises(CertificateError, match="fixed point"):
            mappings.affine(AffineMap([[0.9]], [1e308]))

    @pytest.mark.parametrize("x", [
        np.array([0.3, -1.2]), np.array([3, -1]), np.array([0.3, -1.2], dtype=np.float32),
        [0.3, -1.2], (3, -1), (0.3, -1.2), (np.float32(0.3), np.float32(-1.2)),
        np.arange(4.0)[::2], np.array([0.3, -1.2], dtype=object), np.array(["0.3", "-1.2"]),
        np.array([0.5]), np.array([2]), np.array(0.5), np.array(2), [0.5], 0.5, 2,
        np.float64(0.5), np.float32(0.1), (0.5,), (-0.0,), (2,), (1e308,), (-2e-320,),
    ])
    def test_affine_call_is_the_fsum_formula(self, x):
        coords = np.atleast_1d(np.asarray(x, dtype=float)).tolist()  # float64 values
        if len(coords) == 1:
            m = AffineMap([[0.3]], [0.1])
        else:
            m = AffineMap([[0.3, 0.1], [0.2, 0.4]], [0.1, -0.2])
        got = m(x)
        want = tuple(math.fsum(a * c for a, c in zip(row, coords)) + bi
                     for row, bi in zip(m.A.tolist(), m.b.tolist()))
        assert type(got) is tuple and all(type(c) is float for c in got)
        assert repr(got) == repr(want)
        if len(coords) == 1:  # a*x + b, the bits of A @ x + b
            assert repr(got) == repr((0.3 * coords[0] + 0.1,))
            assert repr(got) == repr(tuple((m.A @ np.array(coords) + m.b).tolist()))

    @pytest.mark.parametrize("x", [np.array([[0.3], [-1.2]]), [0.3, -1.2, 0.0], (0.3,), 0.5])
    def test_affine_call_rejects_wrong_shape(self, x):
        with pytest.raises(InvalidPointError, match="coordinates"):
            AffineMap([[0.3, 0.1], [0.2, 0.4]], [0.1, -0.2])(x)

    @pytest.mark.parametrize("x", [
        (0.5,), (-0.0,), (1e-320,), (3,), [0.5], np.array([0.5]), np.array(0.5), 0.5, 2,
        np.float64(0.5), np.float32(0.1), (np.float32(0.1),), np.array([0.1], dtype=np.float32),
    ])
    def test_halving_call_halves_the_float64_value(self, x):
        _, t, _ = mappings.halving()
        got = t.apply(x)
        assert type(got) is tuple and type(got[0]) is float
        assert repr(got) == repr((0.5 * float(np.asarray(x, dtype=float).reshape(())),))

    @pytest.mark.parametrize("x", [(0.5, 0.25), [0.5, 0.25], np.array([0.5, 0.25]), ()])
    def test_halving_call_rejects_more_coordinates(self, x):
        _, t, _ = mappings.halving()
        with pytest.raises(InvalidPointError, match="coordinates"):
            t.apply(x)

    def test_tripod_radial(self):
        space, t, sampler = mappings.tripod_radial(0.5)
        rep = verify_contractive_like(space, t, sampler, n_samples=400)
        assert rep.passed

    def test_halfplane_vertical(self):
        space, t, sampler = mappings.halfplane_vertical(0.5)
        rep = verify_contractive_like(space, t, sampler, n_samples=400)
        assert rep.passed
        assert space.d(t.fixed_point, t.apply(t.fixed_point)) == 0.0

    def test_from_name(self):
        for name in ("halving", "affine:0.9", "affine:0.3,0.1;0.0,0.4|0.1,0.2",
                     "tripod-radial:0.5", "halfplane-vertical:0.25"):
            space, t, sampler = mappings.from_name(name)
            assert 0.0 <= t.delta < 1.0
        with pytest.raises(ConfigError):
            mappings.from_name("rotation")
        with pytest.raises(ConfigError):
            mappings.from_name("affine:1,0;0,1|1")  # inconsistent shapes

    def test_perturb_halving(self):
        space, t, sampler = mappings.halving()
        s = mappings.perturbed(space, t, np.array([0.01]))
        assert s.epsilon == pytest.approx(0.01)
        assert verify_approximate(space, t, s, sampler, n_samples=200).passed

    @pytest.mark.parametrize("dim,apply", [
        (1, lambda x: 0.5 * x[0]),  # a scalar at dim 1
        (1, lambda x: np.asarray(x, dtype=np.float32) / 2),
        (2, lambda x: np.asarray(x, dtype=np.float32) / 2),
        (2, lambda x: [np.float32(c / 2) for c in x]),
    ])
    def test_perturbed_adds_offset_to_any_point_form(self, dim, apply):
        # S x is T x read as check_point reads it, plus the offset, in float64
        space = Euclidean(dim)
        offset = [0.01, -0.02][:dim]
        s = mappings.perturbed(space, ContractiveLike(apply, 0.5), offset)
        x = (0.3, -1.2)[:dim]
        got = s.apply(x)
        assert type(got) is tuple and all(type(c) is float for c in got)
        want = tuple(a + c for a, c in zip(space.check_point(apply(x)), offset))
        assert repr(got) == repr(want)

    def test_perturb_tripod(self):
        space, t, _ = mappings.tripod_radial(0.5)
        s = mappings.perturbed(space, t, 0.05)
        assert s.epsilon == pytest.approx(0.05)
        assert space.d(t.apply(("A", 1.0)), s.apply(("A", 1.0))) == pytest.approx(0.05)

    @pytest.mark.parametrize("name,offset", [
        ("halving", np.array([0.0])), ("halving", np.array([np.nan])),
        ("halving", np.array([np.inf])), ("halving", np.array([0.01, 0.0])),
        ("halving", np.array([])), ("affine:0.3,0.1;0.0,0.4|0.1,0.2", np.array([0.01])),
        ("affine:0.3,0.1;0.0,0.4|0.1,0.2", np.array([0.01, -np.inf])),
        ("affine:0.3,0.1;0.0,0.4|0.1,0.2", np.array([0.0, -0.0])),
        ("tripod-radial:0.5", 0.0), ("tripod-radial:0.5", -0.5),
        ("tripod-radial:0.5", np.nan), ("tripod-radial:0.5", np.inf),
        # finite entries whose norm overflows to inf
        ("halving", np.array([1e308])), ("halving", np.array([1e200])),
        ("affine:0.3,0.1;0.0,0.4|0.1,0.2", np.array([1e308, 1e308])),
    ])
    def test_perturbed_rejects_bad_offset(self, name, offset):
        space, t, _ = mappings.from_name(name)
        with pytest.raises(CertificateError):
            mappings.perturbed(space, t, offset)

    def test_epsilon_is_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for dim, count in ((1, 10 ** 5), (2, 10 ** 4), (3, 10 ** 4)):
            space, t = Euclidean(dim), ContractiveLike(lambda x: x, 0.5)
            offsets = (rng.choice([-1.0, 1.0], (count, dim))
                       * 10.0 ** rng.uniform(-150, 150, (count, dim)))
            got = [mappings.perturbed(space, t, tuple(c)).epsilon for c in offsets.tolist()]
            want = [float(np.linalg.norm(c)) for c in offsets]
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("offset,epsilon", [
        ((1e-170,), 1e-170), ((5e-324,), 5e-324), ((-5e-324,), 5e-324),
        ((3e-170, -4e-170), 5e-170), ((5e-324, 0.0), 5e-324),
    ])
    def test_tiny_offsets_are_not_zero(self, offset, epsilon):
        # the squared norm underflows; epsilon comes from the scaled offset
        space, t = Euclidean(len(offset)), ContractiveLike(lambda x: x, 0.5)
        eps = mappings.perturbed(space, t, offset).epsilon
        if len(offset) == 1:
            assert eps == abs(offset[0])
        assert eps == pytest.approx(epsilon, rel=1e-15)

    def test_perturbed_needs_a_supported_space(self):
        space, t, _ = mappings.halfplane_vertical(0.5)
        with pytest.raises(ConfigError):
            mappings.perturbed(space, t, 0.01)


# ---------------------------------------------------------------------------
# the three verifiers share one sampled loop; their reports equal those of
# the loops as each verifier first wrote it


def loop_contractive_like(space, t, sampler, n_samples, tol, seed):
    rng = np.random.default_rng(seed)
    draw = sampler if sampler is not None else space.sample
    worst, arg = 0.0, None
    for _ in range(n_samples):
        x, y = draw(rng), draw(rng)
        space.check_point(x)
        space.check_point(y)
        tx, ty = t.apply(x), t.apply(y)
        v = space.d(tx, ty) - (t.delta * space.d(x, y) + t.phi(space.d(x, tx)))
        if v > worst:
            worst, arg = v, (x, y)
    return VerificationReport(worst <= tol, worst, arg, n_samples, tol)


def loop_approximate(space, t, s, sampler, n_samples, seed):
    rng = np.random.default_rng(seed)
    draw = sampler if sampler is not None else space.sample
    worst, arg = 0.0, None
    for _ in range(n_samples):
        x = draw(rng)
        space.check_point(x)
        dist = space.d(t.apply(x), s.apply(x))
        if dist > worst:
            worst, arg = dist, x
    passed = worst <= s.epsilon * (1.0 + 1e-12) + 1e-15
    return VerificationReport(passed, worst, arg, n_samples, s.epsilon)


def loop_zamfirescu(space, apply, cert, sampler, n_samples, tol, seed):
    rng = np.random.default_rng(seed)
    draw = sampler if sampler is not None else space.sample
    worst, arg = 0.0, None
    for _ in range(n_samples):
        x, y = draw(rng), draw(rng)
        tx, ty = apply(x), apply(y)
        lhs = space.d(tx, ty)
        slack = min(
            lhs - cert.a * space.d(x, y),
            lhs - cert.b * (space.d(x, tx) + space.d(y, ty)),
            lhs - cert.c * (space.d(x, ty) + space.d(y, tx)),
        )
        if slack > worst:
            worst, arg = slack, (x, y)
    return VerificationReport(worst <= tol, worst, arg, n_samples, tol)


def exact_form(value):
    """Arrays by dtype, shape and bytes, tuples item by item, the rest by repr."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(exact_form(v) for v in value)
    return type(value).__name__, repr(value)


def report_form(rep):
    return (rep.passed, repr(rep.max_violation), exact_form(rep.argmax),
            rep.n_samples, repr(rep.tol))


VERIFIER_MAPS = {
    "halving": lambda: mappings.halving() + (np.array([0.01]),),
    "affine": lambda: mappings.from_name("affine:0.3,0.1;0.0,0.4|0.1,0.2")
    + (np.array([0.01, -0.005]),),
    "tripod": lambda: mappings.tripod_radial(0.5) + (0.05,),
    "halfplane": lambda: mappings.halfplane_vertical(0.5) + (None,),
}


def approximation(space, t, offset):
    if offset is not None:
        return mappings.perturbed(space, t, offset)
    # the half-plane has no perturbed(): a horizontal shift with a loose epsilon
    return ApproximateOperator(lambda z: (t.apply(z)[0] + 0.01, t.apply(z)[1]), 0.004)


class TestSharedVerifierLoop:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("name", sorted(VERIFIER_MAPS))
    def test_reports_equal_the_separate_loops(self, name, seed):
        space, t, sampler, offset = VERIFIER_MAPS[name]()
        s = approximation(space, t, offset)
        # a passing and a failing certificate of each kind, so argmax is set
        for delta in (t.delta, 0.6 * t.delta):
            tight = ContractiveLike(t.apply, delta, t.phi, t.fixed_point)
            for draw in (sampler, None):
                got = verify_contractive_like(space, tight, draw, n_samples=150, seed=seed)
                want = loop_contractive_like(space, tight, draw, 150, 1e-9, seed)
                assert report_form(got) == report_form(want)
        for draw in (sampler, None):
            got = verify_approximate(space, t, s, draw, n_samples=150, seed=seed)
            want = loop_approximate(space, t, s, draw, 150, seed)
            assert report_form(got) == report_form(want)
            for cert in (ZamfirescuCertificate(0.6, 0.3, 0.3),
                         ZamfirescuCertificate(0.1, 0.05, 0.05)):
                got = check_zamfirescu(space, t.apply, cert, draw, n_samples=150, seed=seed)
                want = loop_zamfirescu(space, t.apply, cert, draw, 150, 1e-9, seed)
                assert report_form(got) == report_form(want)

    def test_every_verifier_needs_a_sample(self):
        space, t, sampler, offset = VERIFIER_MAPS["halving"]()
        s = approximation(space, t, offset)
        cert = ZamfirescuCertificate(0.6, 0.3, 0.3)
        for verify in (lambda: verify_contractive_like(space, t, sampler, n_samples=0),
                       lambda: verify_approximate(space, t, s, sampler, n_samples=0),
                       lambda: check_zamfirescu(space, t.apply, cert, sampler, n_samples=0)):
            with pytest.raises(ValueError, match="n_samples"):
                verify()

    @pytest.mark.parametrize("space,bad", [
        (Euclidean(1), np.array([np.nan])),
        (Euclidean(1), np.array([np.inf])),
        (HalfPlane(), (0.0, np.nan)),
    ], ids=["euclidean-nan", "euclidean-inf", "halfplane-nan"])
    def test_non_finite_points_rejected(self, space, bad):
        good = space.sample(np.random.default_rng(0))
        cert = ZamfirescuCertificate(0.6, 0.3, 0.3)
        # a sampler that gives a non-finite point, and a map that does
        for sampler, apply in ((lambda rng: bad, lambda x: x),
                               (lambda rng: good, lambda x: bad)):
            t = ContractiveLike(apply, 0.5)
            s = ApproximateOperator(apply, 0.01)
            for verify in (lambda: verify_contractive_like(space, t, sampler, n_samples=3),
                           lambda: verify_approximate(space, t, s, sampler, n_samples=3),
                           lambda: check_zamfirescu(space, apply, cert, sampler, n_samples=3)):
                with pytest.raises(InvalidPointError):
                    verify()


@pytest.mark.parametrize("name", ["halving", "affine"])
@pytest.mark.parametrize("draw", ["own-sampler", "space-sample"])
def test_verifiers_pass_tuples_to_euclidean_maps(name, draw):
    space, t, sampler, offset = VERIFIER_MAPS[name]()
    sampler = sampler if draw == "own-sampler" else None
    seen = []

    def recorded(x):
        seen.append(x)
        return t.apply(x)

    s = ApproximateOperator(recorded, 1.0)
    looser = ContractiveLike(recorded, 0.6 * t.delta)  # fails, so argmax is set
    reports = [verify_contractive_like(space, looser, sampler, n_samples=50),
               verify_approximate(space, t, s, sampler, n_samples=50),
               check_zamfirescu(space, recorded, ZamfirescuCertificate(0.1, 0.05, 0.05),
                                sampler, n_samples=50)]
    assert len(seen) >= 3 * 50
    assert all(type(x) is tuple and len(x) == space.dim and all(type(c) is float for c in x)
               for x in seen)
    # argmax holds the sampled points in the public form, float arrays
    for x in reports[0].argmax + reports[2].argmax:
        assert isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == (space.dim,)

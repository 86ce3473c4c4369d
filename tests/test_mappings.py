import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitfp import mappings
from implicitfp.errors import CertificateError, ConfigError
from implicitfp.mappings import (AffineMap, ApproximateOperator,
                                 ContractiveLike, LinearPhi,
                                 OsilikeUdomeneCertificate, PowerPhi,
                                 TabulatedPhi, ZamfirescuCertificate,
                                 check_zamfirescu, validate_phi,
                                 verify_approximate, verify_contractive_like,
                                 zamfirescu_delta)
from implicitfp.spaces import Euclidean


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
    def test_linear_phi_degenerate_flag(self):
        assert LinearPhi(0.0).degenerate
        assert not LinearPhi(0.5).degenerate

    def test_validate_phi(self):
        assert validate_phi(LinearPhi(1.0))
        assert not validate_phi(LinearPhi(0.0))
        assert validate_phi(PowerPhi(0.5, 2.0))
        assert validate_phi(TabulatedPhi([0.5, 1.0], [0.2, 0.6]))

    def test_nonmonotone_tabulated_rejected(self):
        with pytest.raises(CertificateError):
            TabulatedPhi([0.5, 1.0], [0.6, 0.2])

    def test_nonzero_at_origin_rejected(self):
        with pytest.raises(CertificateError):
            validate_phi(lambda t: t + 1.0)

    def test_power_phi_invalid(self):
        with pytest.raises(CertificateError):
            PowerPhi(0.0)
        with pytest.raises(CertificateError):
            PowerPhi(1.0, 0.5)


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
        s = ApproximateOperator(lambda x: t(x) + 0.01, 0.01)
        rep = verify_approximate(space, t, s, sampler, n_samples=300)
        assert rep.passed
        assert rep.max_violation == pytest.approx(0.01)

    def test_offset_exceeding_epsilon_fails(self):
        space, t, sampler = mappings.halving()
        s = ApproximateOperator(lambda x: t(x) + 0.02, 0.01)
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
        assert t(t.fixed_point) == pytest.approx(t.fixed_point)

    def test_affine_expanding_rejected(self):
        with pytest.raises(CertificateError):
            mappings.affine(AffineMap([[1.2]], [0.0]))

    def test_affine_nonfinite_fixed_point_rejected(self):
        # ||A|| < 1, but (I - A)^{-1} b overflows
        with pytest.raises(CertificateError, match="fixed point"):
            mappings.affine(AffineMap([[0.9]], [1e308]))

    @pytest.mark.parametrize("x", [
        np.array([0.3, -1.2]), np.array([3, -1]), np.array([0.3, -1.2], dtype=np.float32),
        [0.3, -1.2], (3, -1), np.array([[0.3], [-1.2]]), np.arange(4.0)[::2],
        np.array([0.3, -1.2], dtype=object), np.array(["0.3", "-1.2"]),
        np.array([0.5]), np.array([2]), np.array(0.5), np.array(2), [0.5], 0.5, 2,
        np.float64(0.5), np.float32(0.1),
    ])
    def test_affine_call_matches_rewrapped_input(self, x):
        if np.size(x) == 1:
            m = AffineMap([[0.3]], [0.1])
        else:
            m = AffineMap([[0.3, 0.1], [0.2, 0.4]], [0.1, -0.2])
        got = m(x)
        want = m.A @ np.atleast_1d(np.asarray(x, dtype=float)) + m.b
        assert type(got) is type(want)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_tripod_radial(self):
        space, t, sampler = mappings.tripod_radial(0.5)
        rep = verify_contractive_like(space, t, sampler, n_samples=400)
        assert rep.passed

    def test_halfplane_vertical(self):
        space, t, sampler = mappings.halfplane_vertical(0.5)
        rep = verify_contractive_like(space, t, sampler, n_samples=400)
        assert rep.passed
        assert space.d(t.fixed_point, t(t.fixed_point)) == 0.0

    def test_from_name(self):
        for name in ("halving", "affine:0.9", "affine:0.3,0.1;0.0,0.4|0.1,0.2",
                     "tripod-radial:0.5", "halfplane-vertical:0.25"):
            space, t, sampler = mappings.from_name(name)
            assert 0.0 <= t.delta < 1.0
        with pytest.raises(ConfigError):
            mappings.from_name("rotation")
        with pytest.raises(ConfigError):
            mappings.from_name("affine:1,0;0,1|1")  # inconsistent shapes

    def test_perturb_name(self):
        space, t, s, sampler = mappings.from_perturb_name("perturb:halving:0.01")
        assert s.epsilon == pytest.approx(0.01)
        assert verify_approximate(space, t, s, sampler, n_samples=200).passed
        for bad in ("perturb:halving:0", "perturb:halving:x",
                    "perturb:tripod-radial:0.5:-1", "perturb:tripod-radial:0.5:"):
            with pytest.raises(ConfigError):
                mappings.from_perturb_name(bad)

    def test_perturb_tripod(self):
        space, t, _ = mappings.tripod_radial(0.5)
        s = mappings.perturbed(space, t, 0.05)
        assert s.epsilon == pytest.approx(0.05)
        assert space.d(t(("A", 1.0)), s(("A", 1.0))) == pytest.approx(0.05)

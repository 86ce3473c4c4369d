import copy
import math
import pickle
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from implicitfp import mappings, schemes
from implicitfp.errors import CertificateError, ConfigError, InvalidPointError
from implicitfp.experiments import rate_race
from implicitfp.mappings import (AffineMap, ApproximateOperator,
                                 ContractiveLike, LinearPhi, validate_phi)
from implicitfp.spaces import Euclidean


# ---------------------------------------------------------------------------
# sampled checks of a certificate: the largest violation over seeded samples
# and the sample that attains it (None when no violation is positive)


def loop_contractive_like(space, t, sampler, n_samples, seed=0):
    """Worst d(Tx,Ty) - (delta d(x,y) + phi(d(x,Tx))) over sampled pairs."""
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
    return worst, arg


def loop_approximate(space, t, s, sampler, n_samples, seed=0):
    """Worst d(Tx, Sx) over sampled points."""
    rng = np.random.default_rng(seed)
    draw = sampler if sampler is not None else space.sample
    worst, arg = 0.0, None
    for _ in range(n_samples):
        x = draw(rng)
        space.check_point(x)
        dist = space.d(t.apply(x), s.apply(x))
        if dist > worst:
            worst, arg = dist, x
    return worst, arg


def within_epsilon(worst, epsilon):
    # relative slack absorbs roundoff in d(Tx, Sx) at the certified epsilon
    return worst <= epsilon * (1.0 + 1e-12) + 1e-15


class TestPhiFamily:
    def test_validate_phi(self):
        assert validate_phi(LinearPhi(1.0))
        assert not validate_phi(LinearPhi(0.0))
        assert validate_phi(lambda t: 0.5 * t ** 2)

    def test_corpus_maps_build_without_calling_phi(self, monkeypatch):
        def count(phi, t):
            calls.append(t)
            return phi.L * t

        calls = []
        monkeypatch.setattr(LinearPhi, "__call__", count)
        mappings.halving()
        mappings.from_name("tripod-radial:0.5")
        assert calls == []

    def test_linear_phi_edge_values_keep_their_outcomes(self):
        for L in (math.nan, math.inf):
            with pytest.raises(CertificateError, match=r"phi\(0\) must be 0"):
                validate_phi(LinearPhi(L))
        assert validate_phi(LinearPhi(1e-320)) is True
        assert validate_phi(LinearPhi(0.5)) is True
        assert validate_phi(LinearPhi(-0.0)) is False
        assert validate_phi(LinearPhi(0.0)) is False

    def test_nonmonotone_phi_rejected(self):
        with pytest.raises(CertificateError, match="strictly increasing"):
            validate_phi(lambda t: t * (0.5 - t))

    def test_nonzero_at_origin_rejected(self):
        with pytest.raises(CertificateError):
            validate_phi(lambda t: t + 1.0)


class TestContractiveLike:
    def test_halving_passes(self):
        space, t, sampler = mappings.halving()
        worst, _ = loop_contractive_like(space, t, sampler, 500)
        assert worst == pytest.approx(0.0, abs=1e-15)
        assert not validate_phi(t.phi)

    def test_halving_with_too_small_delta_fails(self):
        space, _, sampler = mappings.halving()
        t = ContractiveLike(lambda x: 0.5 * np.atleast_1d(x), 0.4, LinearPhi(0.0))
        worst, arg = loop_contractive_like(space, t, sampler, 500)
        # brute-force: max violation is 0.1 * max sampled |x - y| <= 0.1
        assert 1e-9 < worst <= 0.1 + 1e-12
        assert arg is not None

    def test_identity_fails(self):
        space = Euclidean(1)
        t = ContractiveLike(lambda x: np.atleast_1d(x), 0.9, LinearPhi(0.0))
        worst, _ = loop_contractive_like(space, t, None, 200)
        assert worst > 1e-9

    def test_delta_out_of_range(self):
        with pytest.raises(CertificateError):
            ContractiveLike(lambda x: x, 1.0)

    def test_passing_check_is_monotone_in_delta(self):
        space, t, sampler = mappings.halving()
        looser = ContractiveLike(t.apply, 0.75, t.phi, t.fixed_point)
        assert loop_contractive_like(space, looser, sampler, 300)[0] <= 1e-9


class TestApproximateOperator:
    def test_constant_offset_passes_at_epsilon(self):
        space, t, sampler = mappings.halving()
        s = ApproximateOperator(lambda x: (t.apply(x)[0] + 0.01,), 0.01)
        worst, _ = loop_approximate(space, t, s, sampler, 300)
        assert within_epsilon(worst, s.epsilon)
        assert worst == pytest.approx(0.01)

    def test_offset_exceeding_epsilon_fails(self):
        space, t, sampler = mappings.halving()
        s = ApproximateOperator(lambda x: (t.apply(x)[0] + 0.02,), 0.01)
        assert not within_epsilon(loop_approximate(space, t, s, sampler, 300)[0], s.epsilon)

    def test_identical_operator(self):
        space, t, sampler = mappings.halving()
        s = ApproximateOperator(t.apply, 0.5)
        worst, arg = loop_approximate(space, t, s, sampler, 100)
        assert worst == 0.0 and arg is None

    def test_epsilon_positive(self):
        with pytest.raises(CertificateError):
            ApproximateOperator(lambda x: x, 0.0)


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

    @pytest.mark.parametrize("A,b,entry", [
        ([[math.nan]], [0.0], "A[0, 0] = nan"), ([[0.5]], [math.inf], "b[0] = inf"),
        ([[0.5, math.nan], [0.0, 0.5]], [0.0, 0.0], "A[0, 1] = nan"),
        ([[0.5, 0.0], [-math.inf, 0.5]], [0.0, 0.0], "A[1, 0] = -inf"),
        ([[0.5, 0.0], [0.0, 0.5]], [0.0, math.nan], "b[1] = nan"),
        ([[0.5, 0.0], [0.0, 0.5]], [-math.inf, 0.0], "b[0] = -inf"),
    ])
    def test_affine_rejects_a_non_finite_entry(self, A, b, entry):
        # named before the operator norm's SVD, which fails on such an entry
        with pytest.raises(CertificateError, match=re.escape(f"entry {entry} is not finite")):
            mappings.affine(AffineMap(A, b))

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

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_affine_map_survives_pickle_and_copy(self, dim):
        m = AffineMap(np.eye(dim) * 0.5, np.arange(dim, dtype=float))
        x = tuple(np.linspace(-1.0, 2.0, dim).tolist())
        for clone in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert type(clone) is AffineMap and clone(x) == m(x)
        t = mappings.affine(m)[1]  # its raw is the AffineMap's, a closure
        for clone in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert clone.raw is clone.apply.raw and clone.raw(x) == m(x) == clone.apply(x)

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_maps_reject_non_finite_input(self, bad):
        _, t, _ = mappings.halving()
        line, plane = AffineMap([[0.5]], [0.1]), AffineMap([[0.3, 0.1], [0.2, 0.4]], [0.1, -0.2])
        for f, x in ((line, (bad,)), (line, bad), (plane, (0.0, bad)), (plane, [bad, 1.0]),
                     (plane, np.array([bad, 1.0])), (t.apply, (bad,)), (t.apply, bad)):
            with pytest.raises(InvalidPointError, match="non-finite"):
                f(x)

    def test_tripod_radial(self):
        space, t, sampler = mappings.tripod_radial(0.5)
        assert loop_contractive_like(space, t, sampler, 400)[0] <= 1e-9

    @pytest.mark.parametrize("build", [mappings.tripod_radial, mappings.halfplane_vertical])
    @pytest.mark.parametrize("factor", [1.0, -0.1, math.nan])
    def test_factor_outside_the_unit_interval_rejected(self, build, factor):
        # the factor is the map's delta, so ContractiveLike's range check refuses it
        with pytest.raises(CertificateError, match="delta must lie in"):
            build(factor)

    def test_halfplane_vertical(self):
        space, t, sampler = mappings.halfplane_vertical(0.5)
        assert loop_contractive_like(space, t, sampler, 400)[0] <= 1e-9
        assert space.d(t.fixed_point, t.apply(t.fixed_point)) == 0.0

    @pytest.mark.parametrize("name", ["affine:0.9", "affine:0.3,0.1;0.0,0.4|0.1,0.2"])
    def test_affine_meets_its_delta(self, name):
        space, t, sampler = mappings.from_name(name)
        assert loop_contractive_like(space, t, sampler, 300)[0] <= 1e-9
        # a smaller delta fails, so the samples reach the certificate
        tight = ContractiveLike(t.apply, 0.6 * t.delta, t.phi, t.fixed_point)
        assert loop_contractive_like(space, tight, sampler, 300)[0] > 1e-9

    @pytest.mark.parametrize("name,offset", [
        ("affine:0.3,0.1;0.0,0.4|0.1,0.2", (0.01, -0.005)), ("tripod-radial:0.5", 0.05),
    ])
    def test_perturbed_epsilon_bounds_the_offset(self, name, offset):
        space, t, sampler = mappings.from_name(name)
        s = mappings.perturbed(space, t, offset)
        worst, _ = loop_approximate(space, t, s, sampler, 150)
        assert within_epsilon(worst, s.epsilon)
        assert worst == pytest.approx(s.epsilon)

    def test_from_name(self):
        for name in ("halving", "affine:0.9", "affine:0.3,0.1;0.0,0.4|0.1,0.2",
                     "tripod-radial:0.5", "halfplane-vertical:0.25"):
            space, t, sampler = mappings.from_name(name)
            assert 0.0 <= t.delta < 1.0
        with pytest.raises(ConfigError):
            mappings.from_name("rotation")
        with pytest.raises(ConfigError):
            mappings.from_name("affine:1,0;0,1|1")  # inconsistent shapes

    @pytest.mark.parametrize("built_by", ["from_name", "constructor"])
    @pytest.mark.parametrize("kind", ["tripod-radial", "halfplane-vertical"])
    @pytest.mark.parametrize("spelled", ["-0.0", "-0", "-0e5"])
    def test_a_factor_spelled_minus_zero_is_zero(self, kind, spelled, built_by):
        # a -0.0 delta would print as -0.0 in the envelopes and their ratios
        if built_by == "from_name":
            space, t, _ = mappings.from_name(f"{kind}:{spelled}")
        else:
            space, t, _ = getattr(mappings, kind.replace("-", "_"))(float(spelled))
        chart = t.closed_on(space)[3]
        factor = chart[1] if kind == "halfplane-vertical" else chart
        assert math.copysign(1.0, t.delta) == math.copysign(1.0, factor) == 1.0
        assert t.name == f"{kind}:0.0"
        race = rate_race(space, t, schemes.default_schedule(), n_max=20)
        assert [math.copysign(1.0, v.final_ratio) for v in race.envelope_verdicts.values()] == [1.0, 1.0]

    def test_perturb_halving(self):
        space, t, sampler = mappings.halving()
        s = mappings.perturbed(space, t, np.array([0.01]))
        assert s.epsilon == pytest.approx(0.01)
        assert within_epsilon(loop_approximate(space, t, s, sampler, 200)[0], s.epsilon)

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

    @pytest.mark.parametrize("point", [("Z", -1.0), ("A", -1.0), ("B", math.inf), ("C",)])
    def test_perturbed_tripod_checks_its_input_as_t_does(self, point):
        space, t, _ = mappings.tripod_radial(0.5)
        s = mappings.perturbed(space, t, 0.1)
        with pytest.raises(InvalidPointError):
            t.apply(point)
        with pytest.raises(InvalidPointError):
            s.apply(point)
        assert s.apply(("A", 1.0)) == s.raw(("A", 1.0)) == ("A", 0.6)

    @pytest.mark.parametrize("name,offset", [
        ("halving", np.array([0.0])), ("halving", np.array([np.nan])),
        ("halving", np.array([np.inf])), ("halving", np.array([0.01, 0.0])),
        ("halving", np.array([])), ("affine:0.3,0.1;0.0,0.4|0.1,0.2", np.array([0.01])),
        ("affine:0.3,0.1;0.0,0.4|0.1,0.2", np.array([0.01, -np.inf])),
        ("affine:0.3,0.1;0.0,0.4|0.1,0.2", np.array([0.0, -0.0])),
        ("tripod-radial:0.5", 0.0), ("tripod-radial:0.5", -0.5),
        ("tripod-radial:0.5", np.nan), ("tripod-radial:0.5", np.inf),
    ])
    def test_perturbed_rejects_bad_offset(self, name, offset):
        space, t, _ = mappings.from_name(name)
        with pytest.raises(CertificateError):
            mappings.perturbed(space, t, offset)

    def test_epsilon_is_the_space_distance_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for dim, count in ((1, 10 ** 5), (2, 10 ** 4), (3, 10 ** 4), (4, 10 ** 4)):
            space, t = Euclidean(dim), ContractiveLike(lambda x: x, 0.5)
            offsets = (rng.choice([-1.0, 1.0], (count, dim))
                       * 10.0 ** rng.uniform(-150, 150, (count, dim))).tolist()
            got = [mappings.perturbed(space, t, tuple(c)).epsilon for c in offsets]
            assert bits(got) == bits([space.raw_d((0.0,) * dim, c) for c in offsets])
            if dim == 1:
                assert bits(got) == bits([abs(c) for c, in offsets])

    @pytest.mark.parametrize("offset", [
        (1e200,), (1e308,), (-1e308,), (1e308, 1e308), (-1e308, 1e308, 1e-300),
    ])
    def test_finite_norm_of_huge_entries_accepted(self, offset):
        # the squares overflow, but math.hypot scales, so epsilon is the finite norm
        space, t = Euclidean(len(offset)), ContractiveLike(lambda x: x, 0.5)
        eps = mappings.perturbed(space, t, offset).epsilon
        assert eps == (abs(offset[0]) if len(offset) == 1 else math.hypot(*offset))

    @pytest.mark.parametrize("offset", [(1.7e308, 1.7e308), (-1.7e308, 0.0, 1.7e308)])
    def test_offset_whose_norm_passes_the_float_max_refused(self, offset):
        space, t = Euclidean(len(offset)), ContractiveLike(lambda x: x, 0.5)
        with pytest.raises(CertificateError, match="overflows"):
            mappings.perturbed(space, t, offset)

    @pytest.mark.parametrize("offset,epsilon", [
        ((1e-170,), 1e-170), ((5e-324,), 5e-324), ((-5e-324,), 5e-324),
        ((3e-170, -4e-170), 5e-170), ((5e-324, 0.0), 5e-324),
    ])
    def test_tiny_offsets_are_not_zero(self, offset, epsilon):
        # the squared norm underflows; math.hypot scales, so epsilon is not 0
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
# the per-dim kernels against the formulas they write out, bit for bit


def bits(point):
    return struct.pack(f"<{len(point)}d", *point)


# finite floats, with the edges drawn often: signed zeros, subnormals, the
# smallest normal and +-1.7e308 (whose sums and products overflow)
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1.0, -1.0,
                     1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False))


def square_systems(n):
    """(A, b, x): an n x n matrix, an offset and a point of finite floats."""
    vec = st.lists(FINITE, min_size=n, max_size=n)
    return st.tuples(st.lists(vec, min_size=n, max_size=n), vec, vec)


@settings(max_examples=600, deadline=None)
@given(system=st.integers(1, 4).flatmap(square_systems))
# a -0.0 product sum plus b = -0.0, which fsum makes 0.0 + -0.0 = 0.0
@example(system=([[1.0]], [-0.0], [-0.0]))
@example(system=([[1.0, 1.0], [-0.0, 1.0]], [-0.0, -0.0], [-0.0, -0.0]))
# the products summed before b: (1 + 2**-53) + -1 is 0, 1 + (2**-53 + -1) is not
@example(system=([[1.0, 2.0 ** -53], [0.0, 1.0]], [-1.0, 0.0], [1.0, 1.0]))
def test_affine_call_has_the_bits_of_the_fsum_formula(system):
    A, b, x = system
    m, x = AffineMap(A, b), tuple(x)
    try:
        want = tuple(math.fsum(a * c for a, c in zip(row, x)) + bi for row, bi in zip(A, b))
    except (OverflowError, ValueError):  # fsum cannot sum some row
        if len(x) <= 2:  # the one-expression rows overflow to inf or nan there
            assert not all(map(math.isfinite, m(x)))
        else:
            with pytest.raises(InvalidPointError, match="affine image .* overflows"):
                m(x)
        return
    got = m(x)
    assert type(got) is tuple and all(type(c) is float for c in got)
    assert bits(got) == bits(want)


@settings(max_examples=400, deadline=None)
@given(pair=st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.lists(FINITE, min_size=n, max_size=n)] * 2)))
def test_perturbed_has_the_bits_of_the_coordinate_sum(pair):
    x, offset = map(tuple, pair)
    space, t = Euclidean(len(x)), ContractiveLike(lambda p: p, 0.5)
    try:
        s = mappings.perturbed(space, t, offset)
    except CertificateError:  # a zero offset, or one whose norm overflows
        assume(False)
    got = s.apply(x)
    assert type(got) is tuple
    assert bits(got) == bits(tuple(a + c for a, c in zip(t.apply(x), offset)))


# an image past the floats at each dim: a row sum reaches 2.04e308 or more
OVERFLOWING = [
    ("affine:-0.9|1e308", (-1.7e308,)),
    ("affine:0.6,0.6;0,0|0,0", (1.7e308, 1.7e308)),
    ("affine:0.5,0.5,0.5;0,0,0;0,0,0|0,0,0", (1.5e308, 1.5e308, 1.5e308)),
    ("affine:0.4,0.4,0.4,0.4;0,0,0,0;0,0,0,0;0,0,0,0|0,0,0,0", (1.5e308,) * 4),
]


@pytest.mark.parametrize("name,x0", OVERFLOWING)
def test_an_overflowing_affine_image_is_an_invalid_point(name, x0):
    space, t, _ = mappings.from_name(name)
    if len(x0) <= 2:
        assert math.inf in t.apply(x0)
    with pytest.raises(InvalidPointError):
        space.check_point(t.apply(x0))
    with pytest.raises(InvalidPointError, match="step n=2"):
        schemes.run(space, t, "implicit-s", schemes.default_schedule().weights(5), x0)


# ---------------------------------------------------------------------------
# raw, the map on checked points, against apply, bit for bit


def seeded_affine(dim):
    """A seeded affine map on R^dim with ||A|| = 0.9."""
    rng = np.random.default_rng(dim)
    A = rng.uniform(-1.0, 1.0, (dim, dim))
    return mappings.affine(AffineMap(A * (0.9 / np.linalg.norm(A, 2)), rng.uniform(-2.0, 2.0, dim)))


def with_perturbation(build, offset):
    """build's (space, S, sampler), S = T + offset."""
    space, t, sampler = build()
    return space, mappings.perturbed(space, t, offset), sampler


RAW_MAPS = {
    "halving": mappings.halving,
    **{f"affine-{dim}": (lambda dim=dim: seeded_affine(dim)) for dim in (1, 2, 3, 4)},
    "tripod-radial": lambda: mappings.tripod_radial(0.7),
    "halfplane-vertical": lambda: mappings.halfplane_vertical(0.6),
    "perturbed-halving": lambda: with_perturbation(mappings.halving, (0.01,)),
    **{f"perturbed-affine-{dim}": (lambda dim=dim: with_perturbation(
        lambda: seeded_affine(dim), tuple(np.linspace(-0.02, 0.03, dim).tolist())))
       for dim in (1, 2, 3, 4)},
    "perturbed-tripod": lambda: with_perturbation(lambda: mappings.tripod_radial(0.7), 0.05),
}


def point_bits(point):
    """A point's coordinates as bytes, each float packed and a tripod ray as is."""
    return tuple(c if isinstance(c, str) else struct.pack("<d", c) for c in point)


@pytest.mark.parametrize("name", RAW_MAPS)
def test_raw_on_checked_points_has_the_bits_of_apply(name):
    space, op, sampler = RAW_MAPS[name]()
    rng = np.random.default_rng(0)
    points = [sampler(rng) for _ in range(300)]
    if isinstance(space, Euclidean):  # the edges too: signed zeros, subnormals, huge values
        points += [(c,) * space.dim for c in (0.0, -0.0, 5e-324, -1e-300, 1e300, -1.7e308)]
    for x in points:
        try:
            want = op.apply(x)
        except InvalidPointError:  # an image past the floats, from both forms
            with pytest.raises(InvalidPointError):
                op.raw(space.check_point(x))
            continue
        assert point_bits(op.raw(space.check_point(x))) == point_bits(want)


# ---------------------------------------------------------------------------
# the closed certificate: check_point(raw(x)) is raw(x) for every checked x

MAX_FLOAT = sys.float_info.max
# r, y >= 0 over the whole float range: subnormals, 0.0, and 10^-308 .. 10^308
WIDE = st.one_of(
    st.floats(0.0, MAX_FLOAT),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.9), st.integers(-308, 307)))
FACTORS = st.floats(0.0, 1.0, exclude_max=True)


def assert_closed(space, t, x):
    x = space.check_point(x)
    y = t.raw(x)
    assert space.check_point(y) is y


@settings(max_examples=500, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=-MAX_FLOAT)
@example(x=-0.0)
@example(x=5e-324)
def test_halving_is_closed(x):
    space, t, _ = mappings.halving()
    assert t.closed_on(space)
    assert_closed(space, t, (x,))


@settings(max_examples=500, deadline=None)
@given(ray=st.sampled_from("ABC"), r=WIDE, factor=FACTORS)
@example(ray="B", r=5e-324, factor=0.3)  # the image underflows to the hub
@example(ray="A", r=-0.0, factor=0.5)
@example(ray="A", r=2.2250738585072014e-308, factor=0.0)
@example(ray="C", r=MAX_FLOAT, factor=0.9999999999999999)
def test_tripod_radial_is_closed(ray, r, factor):
    space, t, _ = mappings.tripod_radial(factor)
    assert t.closed_on(space)
    assert_closed(space, t, (ray, r))


@settings(max_examples=500, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False),
       y=WIDE.filter(lambda y: y > 0.0), factor=FACTORS)
@example(x=0.0, y=5e-324, factor=0.9999999999999999)
@example(x=7.0, y=MAX_FLOAT, factor=0.9999999999999999)
@example(x=0.0, y=MAX_FLOAT, factor=0.0)
@example(x=-0.0, y=1.0, factor=0.5)
def test_halfplane_vertical_is_closed(x, y, factor):
    space, t, _ = mappings.halfplane_vertical(factor)
    assert t.closed_on(space)
    assert_closed(space, t, (x, y))


def chart_of(t, space):
    """The chart in t's closed certificate on space (which it must have)."""
    return t.closed_on(space)[3]


# (map, the chart its certificate records)
@pytest.mark.parametrize("build,chart", [
    (mappings.halving, 0.5), (lambda: mappings.tripod_radial(0.7), 0.7),
    (lambda: mappings.halfplane_vertical(0.6), ("log", 0.6))],
    ids=["halving", "tripod-radial", "halfplane-vertical"])
class TestClosedCertificate:
    def test_reassigning_raw_drops_it(self, build, chart):
        space, t, _ = build()
        raw = t.raw
        t.raw = lambda x: raw(x)  # the same map, but not the function proved closed
        assert t.closed_on(space) is None  # the chart factor goes with it
        t.raw = raw
        assert chart_of(t, space) == chart

    def test_it_survives_copy(self, build, chart):
        # copy and pickle both rebuild the map through __reduce__
        space, t, _ = build()
        for clone in (copy.copy(t), copy.deepcopy(t)):
            assert clone.raw is t.raw and chart_of(clone, space) == chart

    def test_only_on_its_own_space(self, build, chart):
        space, t, _ = build()

        class Sub(type(space)):  # may check points differently
            pass

        other = Euclidean(2) if isinstance(space, Euclidean) else Euclidean(1)
        assert chart_of(t, copy.copy(space)) == chart
        assert t.closed_on(other) is None
        sub = copy.copy(space)
        sub.__class__ = Sub
        assert t.closed_on(sub) is None

    def test_a_rebuilt_map_is_not_certified(self, build, chart):
        space, t, _ = build()
        assert ContractiveLike(t.apply, t.delta, t.phi, t.fixed_point,
                               raw=t.raw).closed_on(space) is None


@pytest.mark.parametrize("name", ["affine:0.9", "affine:0.3,0.1;0.0,0.4|0.1,0.2"])
def test_affine_maps_are_not_certified(name):
    # an image can overflow to inf at dims 1-2 (see the test above)
    space, t, _ = mappings.from_name(name)
    assert not t.closed_on(space)


@pytest.mark.parametrize("chart", [0.5, ("log", 0.5)], ids=["linear", "log"])
def test_a_contractive_pickle_keeps_the_certificate(chart):
    # pickling a corpus map fails on its apply closure; the certificate rides
    # in __reduce__'s state, so a map of picklable functions keeps it
    space = Euclidean(1)
    t = ContractiveLike(_pickled_apply, 0.5, raw=_pickled_raw)
    t._closed = (_pickled_raw, Euclidean, space.name, chart)
    clone = pickle.loads(pickle.dumps(t))
    assert clone.raw is _pickled_raw and chart_of(clone, space) == chart


def _pickled_raw(x):
    return (0.5 * x[0],)


def _pickled_apply(x):
    return _pickled_raw(Euclidean(1).check_point(x))

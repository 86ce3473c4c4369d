import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicitfp import bounds
from implicitfp.bounds import (BoundSequences, berinde_compare, check_lemma1,
                               datadep_bound)
from implicitfp.errors import CertificateError
from implicitfp.schemes import (constant_schedule, default_schedule,
                                polynomial_schedule)


SCHED = default_schedule()


def envelopes_at(schedule, delta, d0, n):
    """(a_n, b_n, c_n): the implicit-S, Mann and Ishikawa envelopes at one n."""
    seqs = BoundSequences.compute(schedule.weights(n), delta, d0)
    return seqs.a[-1], seqs.b[-1], seqs.c[-1]


# Reference: the per-step factors and the per-k product loop that
# BoundSequences.compute replaced with one array computation.

def step_factor_s(alpha, beta, delta):
    den = 1.0 - (1.0 - alpha) * delta * (beta + (1.0 - beta) * delta)
    return alpha * delta / den


def step_factor_ishikawa(alpha, beta, delta):
    den = 1.0 - (1.0 - alpha) * delta * (beta + (1.0 - beta) * delta)
    return alpha / den


def step_factor_mann(alpha, delta):
    den = 1.0 - (1.0 - alpha) * delta
    return alpha / den


def reference_envelopes(schedule, delta, d0, n_max, literal):
    factors = (
        lambda k: step_factor_s(float(schedule.alpha(k)), float(schedule.beta(k)), delta),
        lambda k: step_factor_mann(float(schedule.alpha(k)), delta),
        lambda k: step_factor_ishikawa(float(schedule.alpha(k)), float(schedule.beta(k)), delta),
    )
    out = []
    for factor in factors:
        seq, prod = [], 1.0
        for n in range(2, n_max + 1):
            if literal:
                seq.append(factor(n) ** n * d0)
            else:
                prod *= factor(n)
                seq.append(prod * d0)
        out.append(seq)
    return out


class TestEnvelopeS:
    def test_hand_value_n2(self):
        # D2 = (1/2 * 1/2) / (1 - (1/2)(1/2)(3/4)) = 0.25/0.8125 = 4/13
        assert envelopes_at(SCHED, 0.5, 1.0, 2)[0] == pytest.approx(4.0 / 13.0)

    def test_delta_zero(self):
        for n in (2, 5, 10):
            assert envelopes_at(SCHED, 0.0, 1.0, n)[0] == 0.0

    def test_alpha_one_geometric(self):
        sched = constant_schedule(1.0)
        # denominator becomes 1, product is delta^(n-1)
        assert envelopes_at(sched, 0.5, 2.0, 5)[0] == pytest.approx(0.5 ** 4 * 2.0)

    def test_rejects_delta_ge_one(self):
        with pytest.raises(CertificateError):
            BoundSequences.compute(SCHED.weights(5), 1.0, 1.0)


class TestEnvelopeMann:
    def test_hand_value_n2(self):
        assert envelopes_at(SCHED, 0.5, 1.0, 2)[1] == pytest.approx(2.0 / 3.0)

    def test_alpha_one_stays_at_d0(self):
        sched = constant_schedule(1.0)
        assert envelopes_at(sched, 0.5, 3.0, 10)[1] == pytest.approx(3.0)

    def test_delta_zero_is_alpha_product(self):
        val = envelopes_at(SCHED, 0.0, 1.0, 4)[1]
        assert val == pytest.approx((1 / 2) * (2 / 3) * (3 / 4))


class TestEnvelopeIshikawa:
    def test_hand_value_n2(self):
        assert envelopes_at(SCHED, 0.5, 1.0, 2)[2] == pytest.approx(8.0 / 13.0)

    def test_beta_one_reduces_to_mann(self):
        sched = constant_schedule(0.7, 1.0)
        for n in (2, 5, 9):
            _, mann, ishikawa = envelopes_at(sched, 0.4, 1.0, n)
            assert ishikawa == pytest.approx(mann)

    def test_delta_zero_is_alpha_product(self):
        assert envelopes_at(SCHED, 0.0, 1.0, 3)[2] == pytest.approx((1 / 2) * (2 / 3))


class TestOrdering:
    @pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("sched", [default_schedule(),
                                       constant_schedule(0.5),
                                       constant_schedule(0.9, 0.3)])
    def test_chain(self, delta, sched):
        # a_n <= delta*c_n <= c_n <= b_n for all n
        seqs = BoundSequences.compute(sched.weights(200), delta, 1.0)
        for a, b, c in zip(seqs.a, seqs.b, seqs.c):
            assert a <= delta * c + 1e-300
            assert delta * c <= c
            assert c <= b + 1e-300

    def test_literal_form_differs_for_varying_schedule(self):
        prod = BoundSequences.compute(SCHED.weights(10), 0.5, 1.0)
        lit = BoundSequences.compute(SCHED.weights(10), 0.5, 1.0, literal=True)
        assert prod.b[-1] != pytest.approx(lit.b[-1])


class TestAgainstReferenceLoop:
    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("sched", [default_schedule(),
                                       constant_schedule(0.5),
                                       constant_schedule(0.9, 0.3),
                                       polynomial_schedule(0.5),
                                       constant_schedule(0.7, 1.0)])
    def test_bit_identical(self, sched, delta, literal):
        seqs = BoundSequences.compute(sched.weights(200), delta, 0.7, literal)
        assert [seqs.a, seqs.b, seqs.c] == reference_envelopes(sched, delta, 0.7, 200, literal)
        assert all(type(v) is float for v in seqs.a + seqs.b + seqs.c)

    def test_step_factors_have_the_bits_of_the_one_formula(self):
        # D_k = alpha*scale / (1 - (1-alpha)*delta*(beta + (1-beta)*delta)),
        # scale delta for S and 1 for Ishikawa, and Mann at beta = 1: floats
        # keep their bits and Fractions stay exact
        def factor(alpha, beta, scale, delta):
            return alpha * scale / (1 - (1 - alpha) * delta * (beta + (1 - beta) * delta))

        rng = random.Random(3)
        exact = [(Fraction(rng.randint(0, 40), 40), Fraction(rng.randint(0, 40), 40))
                 for _ in range(30)]
        for weights, delta in [(SCHED.weights(200), 0.7), (exact, Fraction(7, 10))]:
            want = ([factor(a, b, delta, delta) for a, b in weights],
                    [factor(a, 1, 1, delta) for a, _ in weights],
                    [factor(a, b, 1, delta) for a, b in weights])
            assert repr(bounds.step_factors(weights, delta)) == repr(want)

    def test_empty_below_n2(self):
        seqs = BoundSequences.compute(SCHED.weights(1), 0.5, 1.0)
        assert seqs.a == seqs.b == seqs.c == []


class TestBerinde:
    def test_s_faster_than_mann(self):
        seqs = BoundSequences.compute(SCHED.weights(50), 0.5, 1.0)
        v = berinde_compare(seqs.a, seqs.b, horizon=50, threshold=1e-6)
        assert v.faster
        # per-step ratio is below delta = 1/2, so the final ratio is <= 2^-48
        assert v.final_ratio <= 2.0 ** -48

    def test_s_faster_than_ishikawa(self):
        seqs = BoundSequences.compute(SCHED.weights(50), 0.5, 1.0)
        v = berinde_compare(seqs.a, seqs.c, horizon=50, threshold=1e-6)
        assert v.faster
        # the two step factors differ exactly by the factor delta
        assert v.final_ratio == pytest.approx(0.5 ** 49, rel=1e-9)

    def test_equal_sequences_not_established(self):
        seq = [1.0 / n for n in range(1, 100)]
        assert not berinde_compare(seq, seq).faster

    @pytest.mark.parametrize("a,b,horizon", [
        ([1.0, 0.5], [1.0, 0.0], 200),  # the reference vanishes
        ([1.0, 0.5, 0.25], [1.0, -0.5, 0.25], 200),
        ([1.0, 0.5, 0.0], [1.0, 0.5, 0.0], 3),
        ([0.5], [1.0], 200), ([], [], 200),  # fewer than two points
        ([1.0, 0.5], [1.0, 0.5], 1), ([1.0, 0.5], [1.0, 0.5], 0),
        # a term that is not finite: d0 overflowed, so every envelope is inf
        ([math.inf, math.inf], [math.inf, math.inf], 200),
        ([1.0, 0.5], [math.inf, 1.0], 200), ([1.0, math.inf], [1.0, 0.5], 200),
        ([1.0, math.nan], [1.0, 0.5], 200), ([1.0, 0.5], [math.nan, 0.5], 200),
        ([math.nan, 0.5, 0.25], [1.0, 1.0, 1.0], 200),
    ])
    def test_no_ratio_to_judge_is_degenerate(self, a, b, horizon):
        v = berinde_compare(a, b, horizon=horizon, threshold=1e-3)
        assert (v.verdict, v.final_ratio, v.horizon, v.threshold, v.ratios) == \
            ("degenerate", None, horizon, 1e-3, [])
        assert not v.faster

    def test_a_term_past_the_horizon_is_not_read(self):
        v = berinde_compare([1.0, 0.5, math.inf], [1.0, 1.0, math.nan], horizon=2)
        assert v.verdict == "not-established" and v.final_ratio == 0.5

    def test_reference_vanishing_past_the_horizon_is_judged(self):
        v = berinde_compare([1.0, 0.5, 0.25, 0.0], [1.0, 1.0, 1.0, 0.0], horizon=3)
        assert v.verdict == "not-established" and v.final_ratio == 0.25

    def test_nonmonotone_tail_not_established(self):
        a = [1e-9 * (1.0 + 0.1 * (-1) ** i) for i in range(100)]
        b = [1.0] * 100
        assert not berinde_compare(a, b, horizon=100).faster

    @settings(max_examples=50, deadline=None)
    @given(q=st.floats(0.1, 0.9), n=st.integers(10, 200))
    def test_never_faster_than_itself(self, q, n):
        seq = [q ** k for k in range(n)]
        assert not berinde_compare(seq, seq, horizon=n).faster


    # zeros (both signs), the smallest subnormal, the largest float, inf and
    # nan among ordinary terms
    TERMS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, math.inf,
                                       -math.inf, math.nan, 1.0]), st.floats(-1.0, 2.0))

    @settings(max_examples=500, deadline=None)
    @given(a=st.lists(TERMS, max_size=12), b=st.lists(TERMS, max_size=12),
           horizon=st.integers(0, 14))
    def test_verdicts_and_ratios_have_the_bits_of_the_indexed_loops(self, a, b, horizon):
        v = berinde_compare(a, b, horizon=horizon, threshold=1e-3)
        # the degenerate test, then the ratio and monotonicity loops as first written
        h = min(horizon, len(a), len(b))
        if (h < 2 or any(x <= 0.0 for x in b[:h]) or not all(map(math.isfinite, a[:h]))
                or not all(map(math.isfinite, b[:h]))):
            want = ("degenerate", None, [])
        else:
            ratios = [a[i] / b[i] for i in range(h)]
            tail = ratios[h - max(2, h // 4):]
            monotone = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
            ok = ratios[-1] < 1e-3 and monotone
            want = ("faster" if ok else "not-established", ratios[-1], ratios)
        assert repr((v.verdict, v.final_ratio, v.ratios)) == repr(want)

    def test_zero_terms_of_a_give_zero_ratios(self):
        # b > 0 up to the horizon, so no ratio is 0/0; a zero term of a is a 0.0 ratio
        v = berinde_compare([1.0, 0.5, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], horizon=4)
        assert (v.verdict, v.final_ratio, v.ratios) == ("faster", 0.0, [1.0, 0.5, 0.0, 0.0])

class TestLemma1:
    def test_harmonic_first_violation_at_two(self):
        # a_n = 1/n, mu = 1/2, eta = 0: equality at n=1, first violation at
        # n=2 (1/3 > 1/4)
        a = [1.0 / n for n in range(1, 60)]
        mu = [0.5] * 58
        eta = [0.0] * 58
        rep = check_lemma1(a, mu, eta, tol=1e-15)
        assert not rep.hypothesis_ok
        assert rep.first_violation_index == 2

    def test_stationary_equality(self):
        c = 3.0
        rep = check_lemma1([c] * 30, [0.5] * 29, [c] * 29)
        assert rep.hypothesis_ok
        assert rep.conclusion_ok
        assert rep.max_hypothesis_violation == pytest.approx(0.0, abs=1e-15)

    def test_contraction_with_forcing(self):
        # a_{n+1} = (1-mu) a_n + mu eta with eta constant: hypothesis exact,
        # conclusion limsup a <= eta
        a, mu, eta = [5.0], 0.25, 1.0
        for _ in range(200):
            a.append((1 - mu) * a[-1] + mu * eta)
        rep = check_lemma1(a, [mu] * 200, [eta] * 200)
        assert rep.hypothesis_ok
        assert rep.conclusion_ok

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            check_lemma1([1.0, 1.0], [1.5], [0.0])


class TestDataDepBound:
    def test_hand_value(self):
        assert datadep_bound(0.01, 0.5) == pytest.approx(0.08)

    def test_delta_zero(self):
        assert datadep_bound(0.03, 0.0) == pytest.approx(0.06)

    def test_epsilon_zero(self):
        assert datadep_bound(0.0, 0.7) == 0.0

    def test_rejects_delta_one(self):
        with pytest.raises(CertificateError):
            datadep_bound(0.01, 1.0)

import copy
import math
import operator
import random
import sys
import traceback
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from implicitfp import mappings, schemes
from implicitfp.bounds import BoundSequences, check_lemma1
from implicitfp.errors import ConfigError, InvalidPointError, NonconvergenceError
from implicitfp.experiments import (ORACLE_RATIOS, RationalOracle, default_x0, rate_race,
                                    run_datadep)
from implicitfp.mappings import AffineMap, ContractiveLike, LinearPhi
from implicitfp.schemes import (InnerSolverConfig, Schedule, default_schedule,
                                expression_schedule, implicit_step, polynomial_schedule, run,
                                schedule_from_name)
from implicitfp.spaces import Euclidean, HalfPlane, Tripod


@pytest.fixture
def halving():
    return mappings.halving()


class TestSchedules:
    def test_default_values(self):
        s = default_schedule()
        assert s.alpha(1) == 0.0
        assert s.alpha(2) == pytest.approx(0.5)
        assert s.beta(10) == pytest.approx(0.9)

    def test_from_name(self):
        assert schedule_from_name("default").name == "default"
        assert schedule_from_name("constant:0.3").alpha(5) == pytest.approx(0.3)
        assert schedule_from_name("constant:0.3,0.7").beta(5) == pytest.approx(0.7)
        with pytest.raises(ConfigError):
            schedule_from_name("constant:1.5")
        with pytest.raises(ConfigError):
            schedule_from_name("geometric")
        with pytest.raises(ConfigError, match="one or two values"):
            schedule_from_name("constant:0.5,0.5,0.9")

    def test_expression_schedule(self):
        s = expression_schedule("1-1/n")
        assert s.alpha(4) == pytest.approx(0.75)
        with pytest.raises(ConfigError):
            expression_schedule("1/(")
        s = expression_schedule("-(-1) - n**-0.5 + 0*sqrt(n)*log(n)*exp(1)"
                                " + 0*min(n, 2)*max(n, 2)*math.cos(n)")
        assert s.alpha(4) == pytest.approx(0.5)

    @pytest.mark.parametrize("expr", [
        "().__class__.__mro__[1].__subclasses__() and 0.5",
        "__import__('os').getpid() * 0 + 0.5",
        "math.__loader__", "math.pi", "n.real", "0.5 if n else 0.5", "'0.5'",
        "True", "1j", "[0.5][0]", "abs(n)", "sqrt(x=n)", "(lambda: 0.5)()",
        "n // 2", "+n", "n = 1",
    ])
    def test_expression_outside_whitelist(self, expr):
        with pytest.raises(ConfigError):
            expression_schedule(expr)

    def test_out_of_range_rejected(self):
        s = Schedule(lambda n: 1.5, lambda n: 0.5)
        with pytest.raises(ConfigError, match=r"alpha_2 = 1.5 outside \[0, 1\]"):
            s.weights(3)

    def test_expression_error_at_any_index(self):
        s = expression_schedule("1-1/(n-3)**2")  # fine at n = 2
        assert s.weights(2) == [(0.0, 0.0)]
        with pytest.raises(ConfigError, match="at n=3"):
            s.weights(3)
        for expr in ("sqrt(5-n)", "1/(7-n)", "exp(exp(n))", "min()", "(-1)**(1/n)"):
            with pytest.raises(ConfigError):
                expression_schedule(expr).weights(10)

    @pytest.mark.parametrize("expr,n_max", [
        ("1-1/n**n**n", 5), ("1-1/math.factorial(n)", 2), ("1-1/math.comb(n, 2)", 2),
        ("1-1/2**n", 1024), ("1-1/" + "9" * 400, 2),
    ])
    def test_expression_stays_in_floats(self, expr, n_max):
        # integers would grow without bound; floats overflow or refuse
        with pytest.raises(ConfigError, match="bad schedule expression"):
            expression_schedule(expr).weights(n_max)

    @pytest.mark.parametrize("expr", ["1-1/n", "1-1/n**5", "n**-0.5", "min(0.9, 1-1/n)",
                                      "1-2/(n+2)", "1-sqrt(1/n)"])
    def test_float_evaluation_keeps_integer_results(self, expr):
        s = expression_schedule(expr)
        env = {"sqrt": math.sqrt, "min": min}
        for n, (a, _) in enumerate(s.weights(2999), start=2):
            assert repr(a) == repr(float(eval(expr, env, {"n": n})))

    def test_weights(self):
        s = Schedule(lambda n: 1 - 1 / n, lambda n: 1 / n)
        assert s.weights(4) == [(0.5, 0.5), (1 - 1 / 3, 1 / 3), (0.75, 0.25)]
        assert s.weights(1) == []
        for n_max in (0, -3):
            with pytest.raises(ConfigError, match=f"^n_max must be >= 1, got {n_max}$"):
                s.weights(n_max)

    @pytest.mark.parametrize("bad_alpha,bad_beta,error,n_calls", [
        (4, 3, "beta_3 = -0.5 outside [0, 1]", 4),
        (3, 3, "alpha_3 = 1.5 outside [0, 1]", 3),
        (3, 4, "alpha_3 = 1.5 outside [0, 1]", 3),
        (9, 9, None, 14),
    ], ids=["4-3", "3-3", "3-4", "9-9"])
    def test_weights_order_and_first_error(self, bad_alpha, bad_beta, error, n_calls):
        """weights evaluates alpha_n then beta_n for n = 2, 3, ..., each once,
        and stops at the first value outside [0, 1] with that value's error."""
        calls = []
        s = Schedule(lambda n: calls.append(("alpha", n)) or (1.5 if n == bad_alpha else 1 - 1 / n),
                     lambda n: calls.append(("beta", n)) or (-0.5 if n == bad_beta else 1 / n))
        if error is None:
            assert s.weights(8) == [(1 - 1 / n, 1 / n) for n in range(2, 9)]
        else:
            with pytest.raises(ConfigError) as err:
                s.weights(8)
            assert str(err.value) == error
        assert calls == [(w, n) for n in range(2, 9) for w in ("alpha", "beta")][:n_calls]

    @pytest.mark.parametrize("make", [default_schedule, lambda: polynomial_schedule(0.5)])
    def test_one_function_for_both_weights_is_evaluated_once_per_n(self, make):
        schedule = make()
        f = schedule.alpha
        assert schedule.beta is f
        want = [(float(f(n)), float(f(n))) for n in range(2, 201)]
        calls = []
        schedule.alpha = schedule.beta = lambda n: calls.append(n) or f(n)
        assert repr(schedule.weights(200)) == repr(want)
        assert calls == list(range(2, 201))

    def test_one_function_for_both_weights_stops_at_its_alpha_error(self):
        calls = []
        f = lambda n: calls.append(n) or (1.5 if n == 5 else 0.5)  # noqa: E731
        with pytest.raises(ConfigError, match=r"^alpha_5 = 1.5 outside \[0, 1\]$"):
            Schedule(f, f).weights(200)
        assert calls == [2, 3, 4, 5]

    def test_race_checks_schedule_before_step_two(self):
        space = Euclidean(1)
        calls = []
        t = ContractiveLike(lambda x: calls.append(None) or 0.5 * x, 0.5,
                            fixed_point=np.array([0.0]))
        for sched in (Schedule(lambda n: 0.5 if n < 7 else 1.5, lambda n: 0.5),
                      Schedule(lambda n: 0.5, lambda n: 0.5 if n < 7 else -0.5),
                      expression_schedule("1-1/(n-5)**2")):
            with pytest.raises(ConfigError):
                rate_race(space, t, sched, np.array([1.0]), n_max=10)
            assert calls == []


class TestSteps:
    def test_implicit_s_n2(self, halving):
        # n=2 gives alpha = beta = 1/2; solving the implicit linear system
        # by hand yields x2 = 4/13
        space, t, _ = halving
        T, x1 = t.apply, np.array([1.0])
        x, y, stats = implicit_step(space, T, T, T(x1), x1, 0.5, 0.5)
        assert float(x[0]) == pytest.approx(4.0 / 13.0, abs=1e-14)
        assert stats.residual <= 1e-14

    def test_implicit_ishikawa_n2(self, halving):
        space, t, _ = halving
        x1 = np.array([1.0])
        x, y, stats = implicit_step(space, t.apply, t.apply, x1, x1, 0.5, 0.5)
        assert float(x[0]) == pytest.approx(8.0 / 13.0, abs=1e-14)

    def test_implicit_mann_n2(self, halving):
        space, t, _ = halving
        x1 = np.array([1.0])
        x, y, stats = implicit_step(space, t.apply, t.apply, x1, x1, 0.5, 1.0)
        assert float(x[0]) == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert y is x

    def test_fixed_point_is_stationary(self, halving):
        space, t, _ = halving
        T, p = t.apply, np.array([0.0])
        x, y, _ = implicit_step(space, T, T, T(p), p, 0.5, 0.5)
        assert space.d(x, p) == pytest.approx(0.0, abs=1e-15)
        assert space.d(y, p) == pytest.approx(0.0, abs=1e-15)

    def test_mann_alpha_one_no_update(self, halving):
        space, t, _ = halving
        T, x0 = t.apply, (0.7,)  # a checked point, so the anchor is returned as given
        x, y, stats = implicit_step(space, T, T, x0, x0, 1.0, 1.0)
        assert float(x[0]) == 0.7
        assert stats.iterations == 0
        # alpha = 1 returns the anchor without iterating for S and Ishikawa too
        for anchor in (T(x0), x0):
            x, y, stats = implicit_step(space, T, T, anchor, x0, 1.0, 0.5)
            assert x is anchor and stats.iterations == 0

    def test_inner_budget_exhaustion(self, halving):
        space, t, _ = halving
        cfg = InnerSolverConfig(tolerance=1e-14, max_iterations=2)
        T, x1 = t.apply, np.array([1.0])
        with pytest.raises(NonconvergenceError) as err:
            implicit_step(space, T, T, T(x1), x1, 0.5, 0.5, cfg)
        assert err.value.residual is not None


def piecewise_map():
    """Tx = x/4 on [0, 1/2) and x/5 on [1/2, 1]: contractive-like with
    delta = 3/7 and phi(t) = 6t/7, and discontinuous at 1/2."""
    return ContractiveLike(lambda x: (x[0] / 4 if x[0] < 0.5 else x[0] / 5,), 3 / 7,
                           LinearPhi(6 / 7), fixed_point=(0.0,), name="piecewise")


class TestRuns:
    def test_cumulative_s_at_n5(self, halving):
        # exact-rational recursion: x5 = 15360/696787
        space, t, _ = halving
        tr = run(space, t, "implicit-s", default_schedule().weights(5), np.array([1.0]))
        exact = float(Fraction(15360, 696787))
        assert tr.records[-1].dist_to_p == pytest.approx(exact, abs=5e-14)
        assert exact == pytest.approx(0.022044039283167, abs=5e-16)

    def test_cumulative_ishikawa_at_n7(self, halving):
        space, t, _ = halving
        tr = run(space, t, "implicit-ishikawa", default_schedule().weights(7), np.array([1.0]))
        assert tr.records[-1].dist_to_p == pytest.approx(0.292145335107371, abs=5e-14)

    def test_cumulative_mann_at_n50(self, halving):
        space, t, _ = halving
        tr = run(space, t, "implicit-mann", default_schedule().weights(50), np.array([1.0]))
        oracle = RationalOracle("implicit-mann").sequence(50)
        assert tr.records[-1].dist_to_p == pytest.approx(float(oracle[-1]), abs=5e-14)
        assert tr.records[-1].dist_to_p == pytest.approx(0.125645129018549, abs=5e-14)

    @pytest.mark.parametrize("scheme", schemes.SCHEME_IDS)
    def test_oracle_agreement_all_n(self, halving, scheme):
        space, t, _ = halving
        tr = run(space, t, scheme, default_schedule().weights(50), np.array([1.0]))
        oracle = RationalOracle(scheme).sequence(50)
        for rec, exact in zip(tr.records, oracle):
            assert abs(rec.dist_to_p - float(exact)) <= 5e-14

    def test_final_s_distance_vanishes(self, halving):
        space, t, _ = halving
        tr = run(space, t, "implicit-s", default_schedule().weights(50), np.array([1.0]))
        assert tr.records[-1].dist_to_p < 1e-15

    def test_start_at_fixed_point(self, halving):
        space, t, _ = halving
        p = np.array([0.0])
        for scheme in schemes.SCHEME_IDS:
            tr = run(space, t, scheme, default_schedule().weights(10), p)
            assert all(r.dist_to_p == pytest.approx(0.0, abs=1e-15) for r in tr)

    def test_tripod_reduces_to_scalar_recursion(self):
        space, t, _ = mappings.tripod_radial(0.5)
        tr = run(space, t, "implicit-s", default_schedule().weights(30), ("A", 1.0))
        oracle = RationalOracle("implicit-s").sequence(30)
        for rec, exact in zip(tr.records, oracle):
            assert abs(rec.dist_to_p - float(exact)) <= 5e-14
        assert tr.records[-1].dist_to_p < 1e-9

    def test_residual_invariant(self, halving):
        space, t, _ = halving
        cfg = InnerSolverConfig()
        for scheme in schemes.SCHEME_IDS:
            tr = run(space, t, scheme, default_schedule().weights(50), np.array([1.0]), cfg)
            assert all(r.inner_residual <= cfg.tolerance for r in tr.records[1:])

    def test_distance_nonincreasing_on_corpus(self, halving):
        space, t, _ = halving
        for scheme in schemes.SCHEME_IDS:
            tr = run(space, t, scheme, default_schedule().weights(50), np.array([1.0]))
            d = [r.dist_to_p for r in tr]
            assert all(d[i + 1] <= d[i] + 1e-15 for i in range(len(d) - 1))

    @pytest.mark.parametrize("tolerance", [0.0, -1e-14, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        with pytest.raises(ConfigError, match="finite and > 0"):
            InnerSolverConfig(tolerance=tolerance)

    def test_partial_trace_on_failure(self, halving):
        # a reassigned raw has no chart: Picard from x_prev, two iterations a step
        space, t, _ = counting_map(mappings.halving())
        cfg = InnerSolverConfig(max_iterations=2)
        with pytest.raises(NonconvergenceError) as err:
            run(space, t, "implicit-s", default_schedule().weights(10), np.array([1.0]), cfg)
        assert str(err.value) == "implicit-s step n=2: inner solver exceeded 2 iterations"
        assert len(err.value.trace) == 1 and err.value.trace.records[0].x[0] == 1.0
        # on its chart each step starts at its closed form, and one iteration finishes it
        space, t, _ = halving
        cfg = InnerSolverConfig(max_iterations=1)
        for scheme in schemes.SCHEME_IDS:
            tr = run(space, t, scheme, default_schedule().weights(10), (1.0,), cfg)
            assert all(r.inner_iterations == 1 and r.inner_residual <= cfg.tolerance
                       for r in tr.records[1:])

    def test_failed_step_names_the_scheme_and_step(self):
        # Tx = x/4 on [0, 1/2), x/5 on [1/2, 1]: from 0.88 at alpha = 1/2 the Mann
        # step, and Ishikawa's at beta = 1, x = (0.88 + Tx)/2 has no solution
        # (0.503 on the left piece, 0.489 on the right), so Picard runs out of
        # iterations at n = 2
        space, t = Euclidean(1), piecewise_map()
        for scheme in ("implicit-mann", "implicit-ishikawa"):
            with pytest.raises(NonconvergenceError) as err:
                run(space, t, scheme, schedule_from_name("constant:0.5,1.0").weights(10), (0.88,))
            assert str(err.value) == f"{scheme} step n=2: inner solver exceeded 10000 iterations"
            assert err.value.residual == pytest.approx(0.0111, abs=1e-4)
            assert len(err.value.trace) == 1 and err.value.trace.records[0].x[0] == 0.88

    def test_unknown_scheme(self, halving):
        space, t, _ = halving
        with pytest.raises(ConfigError):
            run(space, t, "explicit-mann", default_schedule().weights(5), np.array([1.0]))

    def test_csv_serialization(self, halving):
        space, t, _ = halving
        tr = run(space, t, "implicit-s", default_schedule().weights(3), np.array([1.0]))
        csv = tr.to_csv(space)
        lines = csv.strip().split("\n")
        assert lines[0] == "n,x,inner_iters,residual,dist_to_p"
        assert len(lines) == 4


class TestBoundsOnTraces:
    def test_per_step_sharp_bound(self, halving):
        # d(x_n,p) <= alpha*delta / (1 - (1-alpha)*delta*[beta+(1-beta)*delta])
        #             * d(x_{n-1},p) + tol
        space, t, _ = halving
        sched = default_schedule()
        tr = run(space, t, "implicit-s", sched.weights(50), np.array([1.0]))
        d = [r.dist_to_p for r in tr]
        for i, (a, b) in enumerate(sched.weights(50)):
            factor = a * t.delta / (1 - (1 - a) * t.delta * (b + (1 - b) * t.delta))
            assert d[i + 1] <= factor * d[i] + 1e-10

    def test_per_step_contraction_bound(self, halving):
        # d(x_n,p) <= [1 - (1-alpha_n)(1-delta)] d(x_{n-1},p) + tol
        space, t, _ = halving
        sched = default_schedule()
        tr = run(space, t, "implicit-s", sched.weights(50), np.array([1.0]))
        d = [r.dist_to_p for r in tr]
        for i, n in enumerate(range(2, 51)):
            factor = 1 - (1 - sched.alpha(n)) * (1 - t.delta)
            assert d[i + 1] <= factor * d[i] + 1e-10

    def test_beta_one_reduces_s_scheme(self, halving):
        # with beta == 1: y_n = x_n, so x_n = W(T x_{n-1}, T x_n, alpha)
        space, t, _ = halving
        sched = Schedule(lambda n: 0.0 if n < 2 else 1 - 1 / n, lambda n: 1.0)
        tr = run(space, t, "implicit-s", sched.weights(20), np.array([1.0]))
        for i, n in enumerate(range(2, 21)):
            a = sched.alpha(n)
            x_prev, rec = tr.records[i].x, tr.records[i + 1]
            direct = space.w(t.apply(x_prev), t.apply(rec.x), 1.0 - a)
            assert space.d(rec.x, direct) <= 1e-13
            assert space.d(rec.y, rec.x) <= 1e-15


class TestExactAffine:
    @pytest.mark.parametrize("scheme", schemes.SCHEME_IDS)
    def test_matches_picard(self, scheme):
        m = AffineMap([[0.3, 0.1], [0.0, 0.4]], [0.1, 0.2])
        space, t, _ = mappings.affine(m)
        x0 = np.array([1.0, 1.0])
        tr_p = run(space, t, scheme, default_schedule().weights(30), x0,
                   InnerSolverConfig(mode="picard"))
        tr_e = run(space, t, scheme, default_schedule().weights(30), x0,
                   InnerSolverConfig(mode="exact-affine"))
        for rp, re in zip(tr_p.records, tr_e.records):
            assert space.d(rp.x, re.x) <= 1e-12

    def test_exact_affine_requires_affine(self, halving):
        space, t, _ = halving  # halving's apply is a lambda, not AffineMap
        T, x1 = t.apply, np.array([1.0])
        cfg = InnerSolverConfig(mode="exact-affine")
        with pytest.raises(ConfigError):
            implicit_step(space, T, T, T(x1), x1, 0.5, 0.5, cfg)
        # the closed form needs one affine map in both places
        space, t, _ = mappings.affine(AffineMap([[0.5]], [0.0]))
        S = mappings.perturbed(space, t, np.array([0.01])).apply
        with pytest.raises(ConfigError):
            implicit_step(space, S, t.apply, S(x1), x1, 0.5, 0.5, cfg)

    def test_scalar_affine_equals_halving_oracle(self):
        space, t, _ = mappings.affine(AffineMap([[0.5]], [0.0]))
        tr = run(space, t, "implicit-s", default_schedule().weights(20), np.array([1.0]),
                 InnerSolverConfig(mode="exact-affine"))
        oracle = RationalOracle("implicit-s").sequence(20)
        for rec, exact in zip(tr.records, oracle):
            assert abs(rec.dist_to_p - float(exact)) <= 5e-14


# ---------------------------------------------------------------------------
# points are checked where they enter the solver


def bad_on(good, bad, calls):
    """A map that returns bad on the given call numbers (from 1), else good(x)."""
    count = []

    def f(x):
        count.append(None)
        return bad if len(count) in calls else good(x)
    return f


def halve(x):
    return tuple(0.5 * c for c in x)


BAD_MAP_OUTPUTS = [
    (Euclidean(1), np.array([1.0]), halve, np.array([np.nan])),
    (Euclidean(1), np.array([1.0]), halve, np.array([0.1, 0.2])),
    (Euclidean(2), np.array([1.0, 2.0]), halve, (0.1,)),
    (Euclidean(2), np.array([1.0, 2.0]), halve, (np.inf, 0.0)),
    (Tripod(), ("A", 1.0), lambda p: (p[0], 0.5 * p[1]), ("A", -0.5)),
    (Tripod(), ("A", 1.0), lambda p: (p[0], 0.5 * p[1]), ("D", 0.5)),
    (HalfPlane(), (0.0, 3.0), lambda z: (0.0, z[1] ** 0.5), (0.0, 0.0)),
    (HalfPlane(), (0.0, 3.0), lambda z: (0.0, z[1] ** 0.5), (0.0, -1.0)),
]
BAD_MAP_IDS = ["euclidean-nan", "euclidean-long", "euclidean-short", "euclidean-inf",
               "tripod-negative-radius", "tripod-unknown-ray", "halfplane-y-zero",
               "halfplane-y-negative"]


class TestCheckedAtTheBoundary:
    @pytest.mark.parametrize("space,x0,good,bad", BAD_MAP_OUTPUTS, ids=BAD_MAP_IDS)
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_bad_map_output_in_picard_loop(self, space, x0, good, bad, beta):
        t = bad_on(good, bad, range(4, 100))  # the first three calls are fine
        with pytest.raises(InvalidPointError):
            implicit_step(space, t, t, x0, x0, 0.5, beta)

    @pytest.mark.parametrize("space,x0,good,bad", BAD_MAP_OUTPUTS, ids=BAD_MAP_IDS)
    def test_bad_inner_behind_constant_outer(self, space, x0, good, bad):
        # the step map ignores inner's output, which is still checked; the
        # second call is inside the Picard loop
        c = good(x0)
        outer = lambda x: c  # noqa: E731
        inner = bad_on(good, bad, {2})
        with pytest.raises(InvalidPointError):
            implicit_step(space, outer, inner, x0, x0, 0.5, 0.5)

    @pytest.mark.parametrize("space,x0,bad", [
        (Euclidean(1), np.array([1.0]), np.array([np.nan])),
        (Euclidean(1), np.array([1.0]), np.array([-np.inf])),
        (Tripod(), ("A", 1.0), ("A", np.inf)),
        (HalfPlane(), (0.0, 1.0), (0.0, 0.0)),
        (HalfPlane(), (0.0, 1.0), (0.0, -1.0)),
        (HalfPlane(), (0.0, 1.0), (np.nan, 1.0)),
    ], ids=["euclidean-nan", "euclidean-inf", "tripod-inf", "halfplane-y-zero",
            "halfplane-y-negative", "halfplane-nan"])
    def test_invalid_step_output_raises(self, space, x0, bad):
        # raw_w can overflow or underflow; a non-finite residual re-checks
        calls = []

        class BadW(type(space)):
            def raw_w(self, x, y, lam):
                calls.append("w")
                return bad

            def raw_d(self, x, y):
                calls.append("d")
                return super().raw_d(x, y)

        bad_space = copy.copy(space)
        bad_space.__class__ = BadW
        t = lambda x: x0  # noqa: E731  (valid, so only raw_w gives a bad point)
        for beta, w_calls in ((1.0, ["w"]), (0.5, ["w", "w"])):
            calls.clear()
            with pytest.raises(InvalidPointError) as info:
                implicit_step(bad_space, t, t, x0, x0, 0.5, beta)
            # raised after the first residual, d(x0, bad), inside the Picard loop
            assert calls == w_calls + ["d"]
            assert "_picard_solve" in [entry.name for entry in info.traceback]

    def test_infinite_residual_between_valid_points(self):
        # d(-1.7e308, 1.7e308) overflows to inf; both points are valid, so the
        # solver goes on, as it did when every d call checked its points
        space, big = Euclidean(1), np.array([1.7e308])
        t = lambda x: big  # noqa: E731
        with np.errstate(over="ignore"):
            x, y, stats = implicit_step(space, t, t, big, -big, 0.5, 1.0)
        assert x[0] == 1.7e308 and stats.iterations == 2 and stats.residual == 0.0

    def test_bad_anchor_or_start_rejected(self, halving):
        space, t, _ = halving
        for anchor, x_prev in ((np.array([np.nan]), np.array([1.0])),
                               (np.array([1.0]), np.array([np.inf])),
                               (np.array([1.0, 2.0]), np.array([1.0]))):
            with pytest.raises(InvalidPointError):
                implicit_step(space, t, t, anchor, x_prev, 0.5, 0.5)

    def test_weights_checked(self, halving):
        space, t, _ = halving
        x1 = np.array([1.0])
        for alpha, beta in ((1.5, 0.5), (-0.1, 0.5), (0.5, 1.5), (1.0, -0.5)):
            with pytest.raises(ValueError):
                implicit_step(space, t, t, x1, x1, alpha, beta)

    def test_run_names_the_step(self):
        space = Euclidean(1)
        t = ContractiveLike(lambda x: (0.5 * x[0],) if x[0] > 0.01 else np.array([np.nan]),
                            0.5, fixed_point=np.array([0.0]))
        with pytest.raises(InvalidPointError, match=r"^step n=\d+: non-finite"):
            run(space, t, "implicit-s", default_schedule().weights(20), np.array([1.0]))

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_solver_uses_raw_primitives(self, monkeypatch, beta):
        class Counting(Euclidean):
            def __init__(self, dim):
                super().__init__(dim)
                self.calls = {"d": 0, "w": 0, "check_point": 0, "map": 0}

            def d(self, x, y):
                self.calls["d"] += 1
                return super().d(x, y)

            def w(self, x, y, lam):
                self.calls["w"] += 1
                return super().w(x, y, lam)

            def check_point(self, x):
                self.calls["check_point"] += 1
                return super().check_point(x)

        space = Counting(2)
        A = np.array([[0.3, 0.1], [0.0, 0.4]])

        def apply(x):
            space.calls["map"] += 1
            return A @ x + 0.1

        t = ContractiveLike(apply, 0.5, fixed_point=np.array([0.0, 0.0]))

        inside = []
        solve = schemes._picard_solve

        def counted(*args):
            before = dict(space.calls)
            out = solve(*args)
            inside.append({k: space.calls[k] - before[k] for k in before})
            return out

        monkeypatch.setattr(schemes, "_picard_solve", counted)
        steps = 20
        tr = run(space, t, "implicit-ishikawa",
                 Schedule(lambda n: 0.5, lambda n: beta).weights(steps + 1), np.array([1.0, -1.0]))
        assert len(tr) == steps + 1 and len(inside) == steps
        for c in inside:
            assert c["d"] == c["w"] == 0
            assert 0 < c["check_point"] <= c["map"]
        # per step, beyond one check per map call: x_prev and anchor
        total = space.calls
        assert total["d"] == total["w"] == 0
        assert total["check_point"] <= total["map"] + 2 * steps + 2


def test_oracle_ratios_match_hand_derivation():
    # solving each implicit step of Tx = x/2 by hand at alpha = beta = 1 - 1/n
    assert ORACLE_RATIOS["implicit-mann"](2) == Fraction(2, 3)
    assert ORACLE_RATIOS["implicit-ishikawa"](2) == Fraction(8, 13)
    assert ORACLE_RATIOS["implicit-s"](2) == Fraction(4, 13)


# ---------------------------------------------------------------------------
# outputs match a transcription of the solver that evaluates T afresh at
# every use, through the public d and w


def reference_step(space, outer, inner, anchor, x_prev, alpha, beta, cfg):
    """One implicit step as first written: (x, y, iterations, residual)."""
    d, w = space.d, space.w
    if alpha == 1.0:
        x, stats = anchor, (0, 0.0)
    elif cfg.mode == "exact-affine":
        A, b = outer.A, outer.b
        la, lb = 1.0 - alpha, 1.0 - beta
        M = la * (beta * A + lb * (A @ A))
        rhs = alpha * np.array(space.check_point(anchor)) + la * (lb * (A @ b) + b)
        x, stats = np.linalg.solve(np.eye(len(b)) - M, rhs), None
    else:
        if beta == 1.0:
            def step_map(x):
                return w(anchor, outer(x), 1.0 - alpha)
        else:
            def step_map(x):
                return w(anchor, outer(w(x, inner(x), 1.0 - beta)), 1.0 - alpha)
        x, best = x_prev, None
        for k in range(1, cfg.max_iterations + 1):
            fx = step_map(x)
            res = d(x, fx)
            if res <= cfg.tolerance:
                if best is None or res < best[0]:
                    best = (res, x)
                else:
                    x, stats = best[1], (k, best[0])
                    break
                if res == 0.0:
                    stats = (k, 0.0)
                    break
            x = fx
        else:
            x, stats = best[1], (cfg.max_iterations, best[0])
    y = x if beta == 1.0 else w(x, inner(x), 1.0 - beta)
    if stats is None:
        stats = (1, d(x, w(anchor, outer(y), 1.0 - alpha)))
    return (x, y) + stats


def reference_run(space, t, scheme, schedule, x0, n_max, cfg):
    p = t.fixed_point
    records = [(1, space.check_point(x0), None, 0, 0.0, space.d(x0, p))]
    x = x0
    for n in range(2, n_max + 1):
        a, b = float(schedule.alpha(n)), float(schedule.beta(n))
        if scheme == "implicit-mann":
            b = 1.0
        anchor = t.apply(x) if scheme == "implicit-s" else x
        x, y, iters, res = reference_step(space, t.apply, t.apply, anchor, x, a, b, cfg)
        records.append((n, x, y, iters, res, space.d(x, p)))
    return records


def reference_datadep(space, t, s, schedule, x0, n_max, cfg, proof_variant):
    d, phi, delta, eps = space.d, t.phi, t.delta, s.epsilon
    T, S = t.apply, s.apply
    x = u = x0
    a_seq, mu_seq, eta_seq, u_steps = [d(x, u)], [], [], []
    for n in range(2, n_max + 1):
        al, be = float(schedule.alpha(n)), float(schedule.beta(n))
        x_prev = x
        x, y, _, _ = reference_step(space, T, T, T(x), x, al, be, cfg)
        u_prev = u
        u = reference_step(space, S if proof_variant else T, S, S(u), u, al, be,
                           replace(cfg, mode="picard"))[0]
        u_steps.append(d(u, u_prev))
        a_seq.append(d(x, u))
        eta_seq.append((al / (1.0 - al) * phi(d(x_prev, T(x_prev))) + phi(d(y, T(y)))
                        + delta * (1.0 - be) * phi(d(x, T(x))) + 2.0 * eps) / (1.0 - delta) ** 2)
        mu_seq.append((1.0 - al) * (1.0 - delta))
    converged = len(u_steps) >= 10 and all(v <= 1e-10 * eps for v in u_steps[-10:])
    return u, d(t.fixed_point, u), converged, check_lemma1(a_seq, mu_seq, eta_seq)


def exact_form(value):
    """A point's coordinates as the repr of a tuple of Python floats, which
    is exact (repr round-trips every float, the sign of zero included).  A
    float64 array of shape (n,) and a tuple of reals give the tuple of their
    elements, whatever the container; any other value gives its repr."""
    if isinstance(value, np.ndarray):
        assert value.dtype == np.float64 and value.ndim == 1
        value = tuple(value.tolist())
    elif isinstance(value, tuple) and all(isinstance(c, (float, np.floating)) for c in value):
        value = tuple(map(float, value))
    return repr(value)


REFERENCE_MAPS = {
    "halving": lambda: mappings.halving()[:2] + (np.array([1.0]), np.array([0.01])),
    "affine-1": lambda: mappings.affine(AffineMap([[0.7]], [0.3]))[:2]
    + (np.array([-2.0]), np.array([0.02])),
    "affine-2": lambda: mappings.affine(AffineMap([[0.3, 0.1], [0.0, 0.4]], [0.1, 0.2]))[:2]
    + (np.array([1.0, -1.0]), np.array([0.01, -0.005])),
    "affine-3": lambda: mappings.affine(AffineMap([[0.5, 0.2, 0.0], [-0.1, 0.3, 0.1],
                                                  [0.0, 0.2, 0.6]], [1.0, 0.0, -1.0]))[:2]
    + (np.array([2.0, 1.0, 0.5]), np.array([0.003, 0.0, 0.004])),
    # dim 4: the generic kernels, w, perturbation and check loop
    "affine-4": lambda: mappings.affine(AffineMap([[0.4, 0.1, 0.0, 0.0], [0.0, 0.3, 0.1, 0.0],
                                                  [0.0, 0.0, 0.5, 0.1], [0.1, 0.0, 0.0, 0.2]],
                                                 [1.0, 0.0, -1.0, 0.5]))[:2]
    + (np.array([2.0, 1.0, 0.5, -1.0]), np.array([0.01, 0.0, -0.005, 0.002])),
    "tripod": lambda: mappings.tripod_radial(0.7)[:2] + (("B", 2.0), 0.05),
    "halfplane": lambda: mappings.halfplane_vertical(0.6)[:2] + ((0.0, 5.0), None),
}
REFERENCE_SCHEDULES = ["default", "constant:0.5", "polynomial:0.5"]
BETA_ONE, ALPHA_ONE = "constant:0.7,1.0", "constant:1.0"
# how far a step on a chart, started at its closed form, may sit from the
# generic loop's, in d, on points near 1: eight ulps of 1.0, for the rounding
# of log, exp and the loop's arithmetic in s (worst seen 8.9e-16 on the
# tripod, 1.0e-15 on the half-plane)
CHART_GAP = 2.0 ** -49


def assert_rows_close(space, chart_rows, own_rows, tol):
    """Rows (n, x, y, iterations, residual, dist) of one race, run on a chart
    and by the generic loop on the space's own W and d: the same n, x and y
    within CHART_GAP in d, the distances to p within it too, and every
    residual on the chart within tol."""
    assert [r[0] for r in chart_rows] == [r[0] for r in own_rows]
    for (n, x, y, _, res, dist), (_, x1, y1, _, _, dist1) in zip(chart_rows, own_rows):
        assert space.d(x, x1) <= CHART_GAP, n
        assert n == 1 or space.d(y, y1) <= CHART_GAP, n
        assert abs(dist - dist1) <= CHART_GAP and res <= tol, n


class TestAgainstReferenceSolver:
    @pytest.mark.parametrize("sched", REFERENCE_SCHEDULES + [BETA_ONE, ALPHA_ONE])
    @pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
    def test_run_traces_equal(self, name, sched):
        space, t, x0, _ = REFERENCE_MAPS[name]()
        schedule = schedule_from_name(sched)
        modes = ["picard", "exact-affine"] if name.startswith("affine") else ["picard"]
        for mode, scheme in [(m, s) for m in modes for s in schemes.SCHEME_IDS]:
            cfg = InnerSolverConfig(mode=mode)
            trace = run(space, t, scheme, schedule.weights(40), x0, cfg)
            ref = reference_run(space, t, scheme, schedule, x0, 40, cfg)
            if name in ("halving", "tripod", "halfplane"):  # a chart: its own bits
                assert_rows_close(space, trace._rows, ref, cfg.tolerance)
                continue
            got = [(r.n, exact_form(r.x), exact_form(r.y), r.inner_iterations,
                    repr(r.inner_residual), repr(r.dist_to_p)) for r in trace]
            want = [(n, exact_form(x), exact_form(y if n > 1 else None), it,
                     repr(res), repr(dist)) for n, x, y, it, res, dist in ref]
            assert got == want, (mode, scheme)

    @pytest.mark.parametrize("sched", REFERENCE_SCHEDULES + [BETA_ONE])
    @pytest.mark.parametrize("name", sorted(set(REFERENCE_MAPS) - {"halfplane"}))
    def test_datadep_reports_equal(self, name, sched):
        space, t, x0, offset = REFERENCE_MAPS[name]()
        s = mappings.perturbed(space, t, offset)
        schedule = schedule_from_name(sched)
        for proof_variant in (False, True):
            cfg = InnerSolverConfig()
            rep = run_datadep(space, t, s, schedule, x0=x0, n_max=40, cfg=cfg,
                              proof_variant=proof_variant)
            q, observed, converged, lemma = reference_datadep(
                space, t, s, schedule, x0, 40, cfg, proof_variant)
            assert exact_form(rep.q) == exact_form(q)
            assert repr(rep.observed) == repr(observed)
            assert rep.converged == converged
            assert repr(rep.lemma1) == repr(lemma)


@pytest.mark.parametrize("name", ["halving", "tripod-radial:0.5", "affine-2"])
def test_datadep_takes_its_x_sequence_from_run(monkeypatch, name):
    if name in REFERENCE_MAPS:
        space, t, x0, offset = REFERENCE_MAPS[name]()
    else:
        (space, t, _), x0, offset = mappings.from_name(name), ("A", 1.0), 0.05
    s = mappings.perturbed(space, t, offset)
    schedule = default_schedule()
    want = run(space, t, "implicit-s", schedule.weights(200), x0)._rows
    steps, seen = schemes._steps, []

    def recorded(*args, **kwargs):
        for x, y, stats in steps(*args, **kwargs):
            seen.append((x, y, stats.iterations, stats.residual))
            yield x, y, stats

    monkeypatch.setattr(schemes, "_steps", recorded)
    for proof_variant in (False, True):
        del seen[:]
        rep = run_datadep(space, t, s, schedule, x0=x0, n_max=200, proof_variant=proof_variant)
        assert repr(seen) == repr([row[1:5] for row in want])
        # and the report has the bits of a transcription that steps on its own
        q, observed, converged, lemma = reference_datadep(
            space, t, s, schedule, x0, 200, InnerSolverConfig(), proof_variant)
        assert (exact_form(rep.q), repr(rep.observed), rep.converged, repr(rep.lemma1)) == (
            exact_form(q), repr(observed), converged, repr(lemma))


# ---------------------------------------------------------------------------
# maps are evaluated inside Picard iterations only


def counting_map(space_and_map):
    """The corpus map, with a count of the solver's calls (of its raw form)."""
    space, t = space_and_map[:2]
    calls = []
    raw = t.raw

    def counted(x):
        calls.append(None)
        return raw(x)

    t.raw = counted
    return space, t, calls


def count_inside_solver(monkeypatch, calls):
    """Record how many map calls each _picard_solve makes, and its iterations."""
    inside = []
    solve = schemes._picard_solve

    def counted(*args):
        before = len(calls)
        x, stats = solve(*args)
        inside.append((len(calls) - before, stats.iterations))
        return x, stats

    monkeypatch.setattr(schemes, "_picard_solve", counted)
    return inside


def watch_affine_steps(monkeypatch):
    """Patch the solver's view of an affine map; returns (events, watch).

    events gets ("apply", x, caller) for each AffineMap call, ("step", None,
    None) as each step starts (a resume of `_steps` or a call of
    `implicit_step`, which takes the data-dependence u-steps) and, while it
    runs, ("check", x, caller) for each Euclidean check_point and ("output",
    y, None) for each point a watched raw form returns; watch(op) wraps
    op.raw that way.  Call it before the map is built, so the check
    AffineMap binds at construction is watched too.
    """
    events, stepping = [], []
    check, call = Euclidean.check_point, AffineMap.__call__
    step, steps = schemes.implicit_step, schemes._steps

    def caller():
        return sys._getframe(2).f_code.co_name

    def watched_check(self, x):
        if stepping:
            events.append(("check", x, caller()))
        return check(self, x)

    def watched_call(self, x):
        events.append(("apply", x, caller()))
        return call(self, x)

    def watched_step(*args):
        events.append(("step", None, None))
        stepping.append(None)
        try:
            return step(*args)
        finally:
            stepping.pop()

    def watched_steps(*args, **kwargs):
        items = steps(*args, **kwargs)
        while True:
            events.append(("step", None, None))
            stepping.append(None)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                stepping.pop()
            yield item

    def watch(op):
        raw = op.raw

        def watched_raw(x):
            y = raw(x)
            if stepping:
                events.append(("output", y, None))
            return y
        op.raw = watched_raw

    monkeypatch.setattr(Euclidean, "check_point", watched_check)
    monkeypatch.setattr(AffineMap, "__call__", watched_call)
    monkeypatch.setattr(schemes, "implicit_step", watched_step)
    monkeypatch.setattr(schemes, "_steps", watched_steps)
    return events, watch


def step_input_checks(events):
    """Assert that every check inside a step reads the point the previous
    map call returned, or a step input (x_prev, or the anchor of a u-step,
    checked by `_steps` or implicit_step before any map call), so never a
    map's own input; returns the number of step-input checks."""
    previous = mapped = None
    inputs = 0
    for kind, x, where in events:
        if kind == "step":
            previous = mapped = None
        elif kind == "check":
            if previous is not None and x is previous:
                previous = None  # a map output, checked once
                continue
            assert where in ("_steps", "implicit_step") and mapped is None, (where, x)
            inputs += 1
        elif kind == "output":
            previous = mapped = x
    return inputs


class TestEvaluatedOnce:
    @pytest.mark.parametrize("sched", REFERENCE_SCHEDULES)
    @pytest.mark.parametrize("name", ["halving", "affine-2", "tripod", "halfplane"])
    @pytest.mark.parametrize("scheme", schemes.SCHEME_IDS)
    def test_run_calls_t_only_in_picard_iterations(self, monkeypatch, scheme, name, sched):
        space, t, calls = counting_map(REFERENCE_MAPS[name]())
        x0 = REFERENCE_MAPS[name]()[2]
        inside = count_inside_solver(monkeypatch, calls)
        trace = run(space, t, scheme, schedule_from_name(sched).weights(30), x0)
        per_iteration = 1 if scheme == "implicit-mann" else 2  # outer, and inner
        assert len(inside) == 29
        # the first iteration takes T x_{n-1} from the caller
        assert all(c == per_iteration * k - 1 for c, k in inside)
        assert [r.inner_iterations for r in trace.records[1:]] == [k for _, k in inside]
        # outside: T x_1 only
        assert len(calls) == sum(c for c, _ in inside) + 1

    @pytest.mark.parametrize("proof_variant", [False, True])
    def test_datadep_calls_maps_only_in_picard_iterations(self, monkeypatch, proof_variant):
        space, t, calls = counting_map(mappings.halving())
        s = mappings.perturbed(space, t, np.array([0.01]))  # each S call calls T once
        inside = count_inside_solver(monkeypatch, calls)
        run_datadep(space, t, s, default_schedule(), n_max=30, proof_variant=proof_variant)
        assert len(inside) == 2 * 29
        # the first iteration takes T x_{n-1} (S u_{n-1}) from the caller
        assert all(c == 2 * k - 1 for c, k in inside)
        # outside: T x_1 and S u_1, the first anchors
        assert len(calls) == sum(c for c, _ in inside) + 2

    @pytest.mark.parametrize("scheme", schemes.SCHEME_IDS)
    def test_run_checks_each_affine_point_once(self, monkeypatch, scheme):
        events, watch = watch_affine_steps(monkeypatch)
        space, t, x0, _ = REFERENCE_MAPS["affine-2"]()
        watch(t)
        run(space, t, scheme, default_schedule().weights(30), x0)
        assert not [e for e in events if e[0] == "apply"]  # T.apply is never called
        # per step, x_prev: S's anchor T x_prev was checked as a map output
        assert step_input_checks(events) == 29

    @pytest.mark.parametrize("proof_variant", [False, True])
    def test_datadep_checks_each_affine_point_once(self, monkeypatch, proof_variant):
        events, watch = watch_affine_steps(monkeypatch)
        space, t, x0, offset = REFERENCE_MAPS["affine-2"]()
        watch(t)
        s = mappings.perturbed(space, t, offset)  # S.raw checks T.raw's output, then shifts it
        watch(s)
        rep = run_datadep(space, t, s, default_schedule(), x0=x0, n_max=30,
                          proof_variant=proof_variant)
        # T.apply is called once, outside the steps, for the closed form
        assert [e[2] for e in events if e[0] == "apply"] == ["run_datadep"]
        assert rep.closed_form_q is not None
        # per x-step x_prev; per u-step, which implicit_step takes, u_prev and its anchor
        assert step_input_checks(events) == (1 + 2) * 29

    @pytest.mark.parametrize("proof_variant", [False, True])
    @pytest.mark.parametrize("name", ["affine-2", "halving"])
    def test_datadep_checks_each_s_output_once(self, monkeypatch, name, proof_variant):
        # S over an AffineMap's kernel or a closed map shifts T's output
        # unchecked, and the solver checks S's output once
        events, watch = watch_affine_steps(monkeypatch)
        space, t, x0, offset = REFERENCE_MAPS[name]()
        s = mappings.perturbed(space, t, offset)  # built on T's own raw, before it is watched
        watch(t)
        watch(s)
        run_datadep(space, t, s, default_schedule(), x0=x0, n_max=30,
                    proof_variant=proof_variant)
        outputs = sum(kind == "output" for kind, _, _ in events)
        checks = sum(kind == "check" for kind, _, _ in events)
        assert outputs and checks == step_input_checks(events) + outputs

    def test_s_over_a_user_map_checks_its_output(self):
        # a user's T may return any sequence: after its first call this one
        # returns two coordinates on the line, which S must not shift as one
        calls = []

        def user(x):
            calls.append(x)
            return [0.5 * x[0]] if len(calls) == 1 else [0.5 * x[0], 0.0]

        space, t = mappings.halving()[:2]
        s = mappings.perturbed(space, ContractiveLike(user, 0.5), (0.01,))
        with pytest.raises(InvalidPointError, match="^u-step n=2: ") as info:
            run_datadep(space, t, s, default_schedule(), x0=(1.0,), n_max=30)
        # S u_1 was fine; S's first call inside the u-step's Picard loop raised
        assert len(calls) == 2
        cause = info.value.__cause__.__traceback__
        assert "_picard_solve" in [frame.name for frame in traceback.extract_tb(cause)]


def counting_checks(space):
    """A list that gets one entry per check_point call of space, counted
    through an instance attribute, as the benchmark's tracer counts them."""
    calls, check = [], space.check_point

    def counted(x):
        calls.append(None)
        return check(x)

    space.check_point = counted
    return calls


class TestClosedMaps:
    @pytest.mark.parametrize("sched", REFERENCE_SCHEDULES)
    @pytest.mark.parametrize("name", ["tripod-radial:0.7", "halfplane-vertical:0.6"])
    def test_a_race_checks_points_per_step_not_per_iteration(self, name, sched):
        space, t, _ = mappings.from_name(name)
        checks = counting_checks(space)
        rate_race(space, t, schedule_from_name(sched), n_max=200)
        # x0 for the race and d(x0, p); x0 and p per run.  Each run is on
        # its chart from step 2, and a step there checks no point
        assert len(checks) == 1 + 2 + 3 * 2

    @pytest.mark.parametrize("name,x0,sched", [
        # at alpha = 0 a step from x_prev polished s = log y down towards 0
        # through the dense floats there: 4 927 / 4 927 / 7 227 iterations
        # (S / Ishikawa / Mann) in this race
        ("halfplane-vertical:0.9", (0.0, 3.0), "constant:0.0,0.5"),
        ("tripod-radial:0.7", ("A", 1.0), "default"),
        ("halving", (1.0,), "polynomial:0.5"),
    ])
    def test_a_chart_step_only_polishes_its_closed_form(self, name, x0, sched):
        space, t, _ = mappings.from_name(name)
        race = rate_race(space, t, schedule_from_name(sched), x0=x0, n_max=200)
        for tr in race.traces.values():
            assert all(1 <= r.inner_iterations <= 2 for r in tr.records[1:])

    @pytest.mark.parametrize("name", ["halving", "tripod-radial:0.7", "halfplane-vertical:0.6"])
    def test_a_reassigned_raw_is_checked_again(self, name):
        space, t, _ = mappings.from_name(name)
        x0 = default_x0(space, t)
        want = run(space, t, "implicit-s", default_schedule().weights(30), x0)
        space, t, calls = counting_map((space, t))
        assert not t.closed_on(space)
        checks = counting_checks(space)
        got = run(space, t, "implicit-s", default_schedule().weights(30), x0)
        # every map output, then x0 and p, and per step x_prev
        assert len(checks) == len(calls) + 2 + 29
        assert_rows_close(space, want._rows, got._rows, 1e-14)  # want took the chart

    def test_off_its_chart_a_closed_map_has_every_output_checked(self):
        # a start off x = 0 takes the generic loop, which trusts no map; x
        # underflows to 0.0 at step 4, so two steps stay off the chart
        space, t, _ = mappings.from_name("halfplane-vertical:0.5")
        checks = counting_checks(space)
        tr = run(space, t, "implicit-ishikawa", default_schedule().weights(3), (7.0, 1e300))
        iterations = sum(r.inner_iterations for r in tr)
        assert iterations > 40 and all(x[0] > 0.0 for _, x, *_ in tr._rows)
        # x0, p and T x0; per step x_prev, its own anchor, and two outputs
        # per Picard iteration but the first, whose T x_prev the last step
        # handed over
        assert len(checks) == 3 + 2 * iterations

    def test_a_known_x_step_checks_the_outputs_of_a_closed_map(self):
        space, t, _ = mappings.halving()
        checks = counting_checks(space)
        run(space, t, "implicit-s", schedule_from_name("constant:1.0,0.5").weights(3), (1.0,))
        # x0 and p; per step x_prev, the anchor T x_prev, and at x = anchor
        # its T x and T y
        assert len(checks) == 2 + 4 * 2


# ---------------------------------------------------------------------------
# the chart path: a closed map with a chart is solved on one float, from the
# step's closed form


MAX_FLOAT = sys.float_info.max
# 0.0, the smallest subnormal and the wide scales, and anything in between
CHART_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300, MAX_FLOAT]),
                         st.floats(0.0, MAX_FLOAT))
FACTORS = st.floats(0.0, 1.0, exclude_max=True)
WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))


def scaled_line(c):
    """(space, x -> c*x on Euclidean(1), certified closed with chart factor c)."""
    space = Euclidean(1)
    return space, mappings._closed_map(space, lambda x: (c * x[0],), c, (0.0,), "scaled",
                                       chart=c)


def exact_chart_step(c, a, la, lb):
    """(s*, 1 - L) for one step in a chart coordinate: s* the exact solution
    of s = (1-la)*a + la*c*y, y = (1-lb)*s + lb*c*s (y = s for Mann), and L
    the step's contraction."""
    fc, fla = Fraction(c), Fraction(la)
    gap = 1 - fla * fc * (1 if lb is None else (1 - Fraction(lb)) + Fraction(lb) * fc)
    return (1 - fla) * Fraction(a) / gap, gap


# The chart path as `_steps` took it before its chart loop moved inline: the
# entry test (`_chart_forms`), the chart loop on floats (`chart_loop`, once
# `_picard_solve`'s chart branch) and the step loop (`reference_steps`),
# kept verbatim as the reference the inline loop must match bit for bit.
_LOG_CHART_Y = (math.exp(-2.0), math.exp(2.0))


def _on_vertical(p) -> bool:
    return (type(p) is tuple and len(p) == 2 and type(p[0]) is float and p[0] == 0.0
            and type(p[1]) is float and _LOG_CHART_Y[0] < p[1] < _LOG_CHART_Y[1])


def _chart_forms(chart, x, tx):
    """(c, point, coord) if the checked points x and tx = T x lie on chart."""
    if type(chart) is tuple:  # ("log", c): s = log y on the line x = 0, near y = 1
        if _on_vertical(x) and _on_vertical(tx):
            exp, log = math.exp, math.log
            return chart[1], lambda s: (0.0, exp(s)), lambda q: log(q[1])
    # a factor: x = head + (s,), and T x shares the same head objects
    elif type(x) is type(tx) is tuple and len(tx) == len(x) and all(map(operator.is_, x[:-1], tx)):
        head = x[:-1]
        return chart, lambda s: head + (s,), operator.itemgetter(-1)
    return None


def chart_loop(space, anchor, x0, la, lb, cfg, ix0, chart):
    """One step on a chart (c, point), in its coordinates: the Picard loop on
    floats from the step's closed form.  Returns (s, InnerStats in s)."""
    x, ix, best, tol = x0, ix0, None, cfg.tolerance  # best: (residual, x, y, ix, oy)
    (c, point), a = chart, anchor
    ma, mb = 1.0 - la, None if lb is None else 1.0 - lb
    # start at the step's closed form, bounds.step_factors' denominator
    den = 1.0 - la * c * (1.0 if lb is None else mb + lb * c)
    s = ma * a / den if den > 0.0 else math.nan
    if math.isfinite(s):
        x, ix = s, None
    for k in range(1, cfg.max_iterations + 1):
        if ix is None:
            ix = c * x
        if lb is None:
            y, oy = x, ix
        else:
            y = mb * x + lb * ix
            oy = c * y
        fx = ma * a + la * oy
        res = abs(x - fx)
        if res <= tol:
            if best is not None and res >= best[0]:
                break
            best = (res, x, y, ix, oy)
            if res == 0.0:
                break
        elif not math.isfinite(res):
            space.check_point(point(x))
            space.check_point(point(fx))
        x, ix = fx, None
    if best is None:
        raise NonconvergenceError(
            f"inner solver exceeded {cfg.max_iterations} iterations",
            residual=res)
    res, x, y, ix, oy = best
    return x, schemes.InnerStats(k, res, y, ix, oy)


def reference_steps(space, t, scheme, weights, x0, cfg, images=False):
    """`_steps` with the chart loop a call of `chart_loop`."""
    T = t.apply if cfg.mode == "exact-affine" else t.raw
    chart = schemes.step_chart(space, t, cfg)
    implicit_s, mann = scheme == "implicit-s", scheme == "implicit-mann"
    logy = type(chart) is tuple
    tx = T(x0) if chart is not None else space.check_point(T(x0))
    x, forms = x0, None
    yield x0, None, schemes.InnerStats(0, 0.0, inner_x=tx)
    for a, b in weights:
        if mann:
            b = 1.0
        if forms is None and chart is not None:
            forms = _chart_forms(chart, x, tx)
            if forms is not None:
                c, point, coord = forms
                s, ts = coord(x), coord(tx)
        if forms is None or a == 1.0:  # off the chart, or x is the anchor
            if tx is None:
                tx = point(ts)
            x, y, stats = implicit_step(space, T, T, tx if implicit_s else x, x, a, b, cfg, tx)
            tx = stats.inner_x
            if forms is not None:
                s, ts = coord(x), coord(tx)
            yield x, y, stats
            continue
        lb = None if b == 1.0 else 1.0 - b
        s, stats = chart_loop(space, ts if implicit_s else s, s, 1.0 - a, lb, cfg, ts,
                              (c, point))
        ts = stats.inner_x
        x, tx = point(s), point(ts) if images or (logy and implicit_s) else None
        y = x if lb is None else point(stats.y)
        if images:
            stats.y, stats.inner_x = y, tx
            stats.outer_y = tx if lb is None else point(stats.outer_y)
        if logy:  # the next anchor is read off its point, as off the chart
            if implicit_s:
                ts = coord(tx)
            else:
                s = coord(x)
        yield x, y, stats


def chart_solve(space, outer, inner, anchor, x0, la, lb, cfg, ix0, chart):
    """One step as `reference_steps` takes it, on points: where chart is given
    and x0, the anchor and ix0 (if given) lie on it (`_chart_forms`),
    `chart_loop` on their coordinates s, the points then built from s;
    else the generic loop.  Returns (x, InnerStats) with points."""
    forms = None if chart is None else _chart_forms(chart, x0, anchor)
    if forms is None or (ix0 is not None and _chart_forms(chart, x0, ix0) is None):
        return schemes._picard_solve(space, outer, inner, anchor, x0, la, lb, cfg, ix0)
    c, point, coord = forms
    s, stats = chart_loop(space, coord(anchor), coord(x0), la, lb, cfg,
                          None if ix0 is None else coord(ix0), (c, point))
    stats.y, stats.inner_x, stats.outer_y = map(point, (stats.y, stats.inner_x, stats.outer_y))
    return point(s), stats


def solve_outcome(*args):
    """repr of what chart_solve returns, or the exception's type, text and residual."""
    try:
        x, stats = chart_solve(*args)
    except (NonconvergenceError, InvalidPointError) as exc:
        return type(exc), str(exc), repr(getattr(exc, "residual", None))
    return repr((x, stats.y, stats.inner_x, stats.outer_y, stats.iterations, stats.residual))


@settings(max_examples=400, deadline=None)
@given(where=st.sampled_from(["A", "B", "C", "line+", "line-"]), c=FACTORS,
       s=CHART_COORDS, a=CHART_COORDS, alpha=WEIGHTS,
       beta=st.one_of(st.just(None), WEIGHTS),  # None: Mann, y = x
       given_ix0=st.booleans(), max_iterations=st.sampled_from([1, 2, 3, 200]))
@example(where="A", c=0.5, s=1e300, a=0.0, alpha=0.5, beta=0.0, given_ix0=True, max_iterations=3)
@example(where="line-", c=0.0, s=5e-324, a=MAX_FLOAT, alpha=0.0, beta=None, given_ix0=False,
         max_iterations=1)
@example(where="C", c=0.9, s=0.0, a=5e-324, alpha=1.0, beta=1.0, given_ix0=True,
         max_iterations=200)
# from x_prev the generic loop runs out of iterations; the closed form is a solution
@example(where="A", c=0.99, s=1e112, a=0.0, alpha=0.0, beta=0.5, given_ix0=True,
         max_iterations=10_000)
@example(where="line-", c=0.5, s=1.0, a=3.0, alpha=0.5, beta=0.5, given_ix0=False,
         max_iterations=1)
def test_the_chart_path_solves_each_step_where_the_generic_loop_does(
        where, c, s, a, alpha, beta, given_ix0, max_iterations):
    # the chart loop starts at the step's closed form and calls no map; its
    # s lies within (residual + some ulps of its arithmetic at the scale of a
    # and s)/(1 - L) of the exact solution, and it fails only where the
    # generic loop fails too
    if where.startswith("line"):
        space, t = scaled_line(c)
        sign = -1.0 if where == "line-" else 1.0
        x0, anchor = (sign * s,), (-sign * a,)
    else:
        space, t, _ = mappings.tripod_radial(c)
        x0, anchor = (where, s), (where, a)
    chart = schemes.step_chart(space, t, InnerSolverConfig())
    assert chart == c
    cfg = InnerSolverConfig(max_iterations=max_iterations)
    lb = None if beta is None else 1.0 - beta
    ix0 = t.raw(x0) if given_ix0 else None
    calls = []

    def counted(x):  # the chart path calls no map
        calls.append(x)
        return t.raw(x)

    la = 1.0 - alpha
    want = solve_outcome(space, t.raw, t.raw, anchor, x0, la, lb, cfg, ix0, None)
    try:
        x, stats = chart_solve(space, counted, counted, anchor, x0, la, lb, cfg, ix0, chart)
    except (NonconvergenceError, InvalidPointError) as exc:
        assert calls == [] and want[:2] == (type(exc), str(exc))
        return
    assert calls == [] and stats.residual <= cfg.tolerance
    # y, T x, T y and the residual are the step map's at x, as raw, raw_w and raw_d give them
    y = x if lb is None else space.raw_w(x, t.raw(x), lb)
    assert repr((stats.y, stats.inner_x, stats.outer_y)) == repr((y, t.raw(x), t.raw(y)))
    assert stats.residual == space.raw_d(x, space.raw_w(anchor, stats.outer_y, la))
    assert x[:-1] == x0[:-1]
    exact, gap = exact_chart_step(c, anchor[-1], la, lb)
    rounding = 2.0 ** -49 * max(abs(anchor[-1]), abs(x[-1])) + 2.0 ** -1070
    assert abs(Fraction(x[-1]) - exact) <= (Fraction(stats.residual) + Fraction(rounding)) / gap


@pytest.mark.parametrize("name,x0,anchor,chart", [
    ("halving", (1.0,), (0.25,), True),
    ("tripod-radial:0.7", ("A", 1.0), ("A", 2.0), True),
    ("tripod-radial:0.7", ("A", 1.0), ("B", 2.0), False),  # through the hub
    ("tripod-radial:0.7", ("A", 1.0), ("B", 0.0), False),  # the hub, labelled B
    ("halfplane-vertical:0.7", (0.0, 3.0), (0.0, 0.5), True),
    ("halfplane-vertical:0.7", (-0.0, 3.0), (-0.0, 0.5), True),
    ("halfplane-vertical:0.7", (-0.0, 3.0), (-0.0, 1e300), False),  # off the log chart's domain
    ("halfplane-vertical:0.7", (7.0, 1e300), (7.0, 1e300), False),  # off x = 0
    ("halfplane-vertical:0.7", (0.0, 3.0), (7.0, 0.5), False),
    ("halfplane-vertical:0.7", (0, 3.0), (0.0, 0.5), False),  # an int x takes the generic loop
    ("halfplane-vertical:0.7", [0.0, 3.0], (0.0, 0.5), False),  # so does a list
])
def test_the_certificate_and_one_chart_select_the_chart_path(name, x0, anchor, chart):
    space, t, _ = mappings.from_name(name)
    certified = schemes.step_chart(space, t, InnerSolverConfig())
    assert certified in (t.delta, ("log", t.delta))
    calls = []

    def counted(x):
        calls.append(x)
        return t.raw(x)

    # a run enters its chart at the first step whose x_{n-1} and anchor lie on it
    assert (schemes._chart_head(certified, x0, anchor) is not None) == chart
    args = (anchor, x0, 0.5, 0.5, InnerSolverConfig(), None)
    got = chart_solve(space, counted, counted, *args, certified)
    want = schemes._picard_solve(space, t.raw, t.raw, *args)
    if chart:  # the chart's own bits
        (x, on), (x1, own) = got, want
        assert on.residual <= 1e-14
        assert all(space.d(p, q) <= CHART_GAP for p, q in [
            (x, x1), (on.y, own.y), (on.inner_x, own.inner_x), (on.outer_y, own.outer_y)])
    else:
        assert repr(got) == repr(want)
    # the generic loop calls raw twice per iteration, for T x and T y
    assert len(calls) == (0 if chart else 2 * got[1].iterations)


@pytest.mark.parametrize("name", ["halving", "tripod-radial:0.5", "tripod-radial:0.9",
                                  "halfplane-vertical:0.5", "halfplane-vertical:0.9"])
def test_each_chart_loop_follows_the_exact_envelope(name):
    # in arc length s from p (r on a ray, |log y| on x = 0) T is s -> delta*s
    # and W is linear in s, so d(x_n, p) is the envelope product D_2..D_n * d0
    # itself: BoundSequences over Fraction copies of the run's own weights,
    # delta and d0 is the exact trace.  |log y| near y = 1 resolves only to
    # about 1e-15, so the half-plane is held to 1e-7 relative, not 1e-12.
    space, t, _ = mappings.from_name(name)
    x0, delta = default_x0(space, t), Fraction(t.delta)
    for sched in REFERENCE_SCHEDULES:
        weights = schedule_from_name(sched).weights(200)
        exact = [(Fraction(a), Fraction(b)) for a, b in weights]
        for scheme, row in [("implicit-s", 0), ("implicit-mann", 1), ("implicit-ishikawa", 2)]:
            d0, *dist = run(space, t, scheme, weights, x0).distances()
            env = BoundSequences.compute(exact, delta, Fraction(d0))
            for got, want in zip(dist, map(float, (env.a, env.b, env.c)[row]), strict=True):
                assert abs(got - want) <= 1e-14
                if got > 1e-8:
                    assert abs(got - want) <= (1e-7 if name.startswith("halfplane")
                                               else 1e-12) * want


# the half-plane's y: the smallest subnormal, the wide scales, the log
# chart's domain e**-2 < y < e**2 and its edges, and anything in between
VERTICAL_YS = st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 1e300, MAX_FLOAT]),
                        st.floats(5e-324, MAX_FLOAT), st.floats(0.13, 7.4))
LOG_CHART_DOMAIN = (math.exp(-2.0), math.exp(2.0))


@settings(max_examples=400, deadline=None)
@given(head=st.sampled_from([0.0, -0.0]), anchor_head=st.sampled_from([0.0, -0.0]),
       c=FACTORS, y=VERTICAL_YS, a=VERTICAL_YS, alpha=WEIGHTS,
       beta=st.one_of(st.just(None), WEIGHTS),  # None: Mann, y = x
       ix0_head=st.sampled_from([None, 0.0, -0.0]),  # None: no ix0
       max_iterations=st.sampled_from([1, 2, 3, 200]))
# raw_d's sqrt(y1)*sqrt(y2) and halved-coordinates branches: y1*y2 overflows
@example(head=0.0, anchor_head=0.0, c=0.5, y=1.7e308, a=1e308, alpha=1.0, beta=0.5,
         ix0_head=0.0, max_iterations=200)
# y1*y2 underflows, at the smallest subnormal
@example(head=-0.0, anchor_head=0.0, c=0.5, y=5e-324, a=5e-324, alpha=0.5, beta=None,
         ix0_head=None, max_iterations=200)
# q = h/den leaves the floats: the residual from the logs
@example(head=-0.0, anchor_head=-0.0, c=0.0, y=MAX_FLOAT, a=5e-324, alpha=1.0, beta=0.0,
         ix0_head=-0.0, max_iterations=1)
# W at lam == 1 and y2/y1 past the floats: y1**(1-lam) * y2**lam
@example(head=0.0, anchor_head=0.0, c=0.0, y=5e-324, a=MAX_FLOAT, alpha=0.0, beta=0.5,
         ix0_head=None, max_iterations=3)
# on the log chart, and just off its domain: y = e**2 itself
@example(head=-0.0, anchor_head=0.0, c=0.9, y=7.3, a=0.14, alpha=0.3, beta=0.5,
         ix0_head=-0.0, max_iterations=200)
@example(head=0.0, anchor_head=0.0, c=0.9, y=LOG_CHART_DOMAIN[1], a=0.14, alpha=0.3, beta=0.5,
         ix0_head=0.0, max_iterations=200)
# on the log chart, out of iterations
@example(head=0.0, anchor_head=0.0, c=0.875, y=2.0, a=1.0, alpha=0.0, beta=None,
         ix0_head=None, max_iterations=200)
def test_the_vertical_path_has_the_bits_of_the_generic_loop(head, anchor_head, c, y, a, alpha,
                                                           beta, ix0_head, max_iterations):
    # off the log chart's domain the generic loop runs, with its bits; on it
    # the loop runs on s = log y, calls no map, and lands within a bound of
    # the exact solution of the step in s
    space, t, _ = mappings.halfplane_vertical(c)
    chart = schemes.step_chart(space, t, InnerSolverConfig())
    assert chart == ("log", c)
    x0, anchor = (head, y), (anchor_head, a)
    # the steps' ix0 is T x0, whose x is 0.0; a -0.0 head must keep its bits too
    ix0 = None if ix0_head is None else (ix0_head, t.raw(x0)[1])
    cfg = InnerSolverConfig(max_iterations=max_iterations)
    la, lb = 1.0 - alpha, None if beta is None else 1.0 - beta
    calls = []

    def counted(x):
        calls.append(x)
        return t.raw(x)

    lo, hi = LOG_CHART_DOMAIN
    if not all(lo < p[1] < hi for p in (x0, anchor, ix0) if p is not None):
        want = solve_outcome(space, t.raw, t.raw, anchor, x0, la, lb, cfg, ix0, None)
        assert solve_outcome(space, counted, counted, anchor, x0, la, lb, cfg, ix0, chart) == want
        return
    try:
        x, stats = chart_solve(space, counted, counted, anchor, x0, la, lb, cfg, ix0, chart)
    except NonconvergenceError:  # a slow step may need more than max_iterations
        assert calls == []
        return
    assert calls == [] and stats.residual <= cfg.tolerance
    assert x[0] == 0.0
    exact, gap = exact_chart_step(c, math.log(a), la, lb)
    # the residual and some ulps of s's arithmetic, through 1/(1 - L), then
    # the rounding of exp and log
    bound = (cfg.tolerance + 2.0 ** -48) / gap + 2.0 ** -50
    assert abs(Fraction(math.log(x[1])) - exact) <= bound


def test_a_vertical_solve_keeps_its_residual_at_every_scale():
    # heights 2**u from 5e-324 to 1.7e308, and near y = 1 for half the
    # points: where the returned y is a normal float, its residual,
    # recomputed with the half-plane's own raw_w and raw_d, is within
    # tolerance.  A log chart taken at every height breaks this, as ulp(log y)
    # grows with |log y|.
    rng, cfg = random.Random(0), InnerSolverConfig()
    for _ in range(2000):
        space, t, _ = mappings.halfplane_vertical(rng.random())
        y, a = (2.0 ** rng.uniform(*rng.choice([(-1074.0, 1023.9), (-4.0, 4.0)]))
                for _ in range(2))
        la, lb = 1.0 - rng.random(), rng.choice([None, 1.0 - rng.random()])
        x0 = (rng.choice([0.0, -0.0]), y)
        ix0 = rng.choice([None, t.raw(x0)])
        try:
            x, _ = chart_solve(space, t.raw, t.raw, (0.0, a), x0, la, lb, cfg, ix0,
                               schemes.step_chart(space, t, cfg))
        except NonconvergenceError:
            continue
        if x[1] >= sys.float_info.min:
            y = x if lb is None else space.raw_w(x, t.raw(x), lb)
            assert space.raw_d(x, space.raw_w((0.0, a), t.raw(y), la)) <= cfg.tolerance, (x0, a)


@pytest.mark.parametrize("ix0_y", [0.0, math.inf])
@pytest.mark.parametrize("beta", [None, 0.5])
def test_the_vertical_path_rechecks_a_residual_past_the_floats(ix0_y, beta):
    # an ix0 off the half-plane sends W and the residual past the floats;
    # both loops re-check the points and reject the same one
    space, t, _ = mappings.halfplane_vertical(0.5)
    args = ((0.0, 2.0), (0.0, 3.0), 0.5, None if beta is None else 1.0 - beta,
            InnerSolverConfig(), (0.0, ix0_y))
    want = solve_outcome(space, t.raw, t.raw, *args, None)
    assert want[0] is InvalidPointError
    chart = schemes.step_chart(space, t, InnerSolverConfig())
    assert schemes._chart_head(chart, args[1], args[-1]) is None  # the ix0 is off the chart
    assert solve_outcome(space, t.raw, t.raw, *args, chart) == want


def stepped_rows(space, t, scheme, weights, x0):
    """run's rows with one `chart_solve` per step: each step tests its points
    for the chart afresh and reads s off them, where a run enters its chart
    once and carries s.  Every alpha_n < 1 here."""
    cfg = InnerSolverConfig()
    chart = schemes.step_chart(space, t, cfg)
    p, x = space.check_point(t.fixed_point), space.check_point(x0)
    rows, tx = [(1, x, None, 0, 0.0, space.raw_d(x, p))], t.raw(x)
    for n, (a, b) in enumerate(weights, start=2):
        b = 1.0 if scheme == "implicit-mann" else b
        x, stats = chart_solve(space, t.raw, t.raw, tx if scheme == "implicit-s" else x, x,
                               1.0 - a, None if b == 1.0 else 1.0 - b, cfg, tx, chart)
        rows.append((n, x, stats.y, stats.iterations, stats.residual, space.raw_d(x, p)))
        tx = stats.inner_x
    return rows


def chart_steps(monkeypatch):
    """A list that gets, per step `_steps` yields after record n = 1, whether
    it solved the step on a chart: without calling `_picard_solve` or
    `implicit_step`, through which every step off the chart goes."""
    on, calls = [], []
    steps, solve, step = schemes._steps, schemes._picard_solve, schemes.implicit_step

    def counted(fn):
        def f(*args):
            calls.append(None)
            return fn(*args)
        return f

    def watched(*args, **kwargs):
        items = steps(*args, **kwargs)
        yield next(items)
        for item in items:
            on.append(not calls)
            del calls[:]
            yield item

    monkeypatch.setattr(schemes, "_picard_solve", counted(solve))
    monkeypatch.setattr(schemes, "implicit_step", counted(step))
    monkeypatch.setattr(schemes, "_steps", watched)
    return on


@pytest.mark.parametrize("sched", REFERENCE_SCHEDULES)
@pytest.mark.parametrize("name,x0", [("halving", (1.0,)), ("halving", (-0.0,)),
                                     ("tripod-radial:0.5", ("A", 1.0)),
                                     ("tripod-radial:0.5", ("B", 0.0))])  # the hub
@pytest.mark.parametrize("scheme", schemes.SCHEME_IDS)
def test_a_run_on_its_chart_has_the_rows_of_one_solve_per_step(monkeypatch, scheme, name, x0,
                                                              sched):
    space, t, _ = mappings.from_name(name)
    weights = schedule_from_name(sched).weights(200)
    want = stepped_rows(space, t, scheme, weights, x0)
    on = chart_steps(monkeypatch)
    got = run(space, t, scheme, weights, x0)
    assert repr(got._rows) == repr(want)
    assert on == [True] * 199  # on the chart from step 2, one solve per step


@pytest.mark.parametrize("scheme,enters", [("implicit-s", 9), ("implicit-ishikawa", None),
                                           ("implicit-mann", None)])
def test_a_wide_half_plane_start_enters_the_chart_where_its_points_do(monkeypatch, scheme,
                                                                     enters):
    # y = 1e300 lies far off the log chart's domain: the generic loop runs
    # until x_{n-1} and T x_{n-1} lie on it, and Ishikawa and Mann, which
    # contract log y slowly, never get there within 200 steps
    space, t, _ = mappings.from_name("halfplane-vertical:0.5")
    weights = default_schedule().weights(200)
    want = stepped_rows(space, t, scheme, weights, (0.0, 1e300))
    on = chart_steps(monkeypatch)
    got = run(space, t, scheme, weights, (0.0, 1e300))
    assert len(on) == 199 and (on.index(True) + 2 if True in on else None) == enters
    assert all(on[enters - 2:]) if enters else not any(on)
    # the log chart reads s off the points each step, so every row keeps its bits
    assert repr(got._rows) == repr(want)



def step_bits(item):
    x, y, stats = item
    return repr((x, y, stats.iterations, stats.residual, stats.y, stats.inner_x, stats.outer_y))


@pytest.mark.parametrize("sched", REFERENCE_SCHEDULES)
@pytest.mark.parametrize("name,x0", [("halving", (1.0,)), ("halving", (-0.0,)),
                                     ("tripod-radial:0.5", ("A", 1.0)),
                                     ("tripod-radial:0.5", ("B", 0.0)),  # the hub
                                     ("halfplane-vertical:0.5", (0.0, 3.0)),
                                     ("halfplane-vertical:0.5", (0.0, 1e300))])
@pytest.mark.parametrize("scheme", schemes.SCHEME_IDS)
def test_the_inline_chart_loop_has_the_bits_of_one_loop_call_per_step(scheme, name, x0, sched):
    # every row of run, and every step _steps yields with the points of
    # T x_n and T y_n (the data-dependence x-sequence's form, which
    # run_datadep never takes on the half-plane), as reference_steps gives them
    space, t, _ = mappings.from_name(name)
    weights, cfg = schedule_from_name(sched).weights(200), InnerSolverConfig()
    p = space.check_point(t.fixed_point)
    rows = [(n, x, y, stats.iterations, stats.residual, space.raw_d(x, p)) for n, (x, y, stats)
            in enumerate(reference_steps(space, t, scheme, weights, x0, cfg), start=1)]
    assert repr(run(space, t, scheme, weights, x0)._rows) == repr(rows)
    got = schemes._steps(space, t, scheme, weights, x0, cfg, images=True)
    want = reference_steps(space, t, scheme, weights, x0, cfg, images=True)
    assert list(map(step_bits, got)) == list(map(step_bits, want))


@pytest.mark.parametrize("name", ["halving", "tripod-radial:0.5", "halfplane-vertical:0.5",
                                  "affine:0.5|0.1"])
@pytest.mark.parametrize("scheme", schemes.SCHEME_IDS)
def test_each_step_checks_the_weights_it_uses_on_and_off_a_chart(scheme, name):
    # the message is check_lambda's, on 1 - alpha or 1 - beta; Mann's beta is 1
    space, t, _ = mappings.from_name(name)
    x0, good = default_x0(space, t), [(0.5, 0.5)] * 3
    for bad, lam in [((1.5, 0.5), "-0.5"), ((-0.25, 0.5), "1.25"), ((math.nan, 0.5), "nan"),
                     ((0.5, 1.5), "-0.5"), ((0.5, -0.25), "1.25"), ((0.5, math.nan), "nan")]:
        weights = good + [bad]
        if scheme == "implicit-mann" and bad[0] == 0.5:
            assert len(run(space, t, scheme, weights, x0)) == 5
            continue
        with pytest.raises(ValueError, match=rf"^interpolation parameter {lam} outside \[0, 1\]$"):
            run(space, t, scheme, [bad] * 5, x0)
        done = []
        with pytest.raises(ValueError, match=rf"^interpolation parameter {lam} outside"):
            for item in schemes._steps(space, t, scheme, weights, x0, InnerSolverConfig()):
                done.append(item)
        assert len(done) == 4  # x0 and the three good steps; the bad one raises first

# ---------------------------------------------------------------------------
# Euclidean points: tuples of floats inside the solver and the maps, float
# arrays in traces and reports


EUCLIDEAN_MAPS = ["halving", "affine-1", "affine-2", "affine-3"]


def is_raw_point(x, dim):
    return type(x) is tuple and len(x) == dim and all(type(c) is float for c in x)


def is_public_point(x, dim):
    return isinstance(x, np.ndarray) and x.dtype == np.float64 and x.shape == (dim,)


def recording(apply, seen):
    """apply, noting every point it is called on."""
    def f(x):
        seen.append(x)
        return apply(x)
    return f


class TestPointForms:
    @pytest.mark.parametrize("name", EUCLIDEAN_MAPS)
    @pytest.mark.parametrize("scheme", schemes.SCHEME_IDS)
    def test_run_passes_tuples_and_records_arrays(self, name, scheme):
        space, t, x0, _ = REFERENCE_MAPS[name]()
        seen = []
        t.raw = recording(t.raw, seen)
        trace = run(space, t, scheme, default_schedule().weights(20), x0)
        assert len(seen) > 20 and all(is_raw_point(x, space.dim) for x in seen)
        assert all(is_public_point(r.x, space.dim) for r in trace)
        assert all(is_public_point(r.y, space.dim) for r in trace.records[1:])

    @pytest.mark.parametrize("name", EUCLIDEAN_MAPS)
    @pytest.mark.parametrize("proof_variant", [False, True])
    def test_datadep_passes_tuples_and_reports_arrays(self, name, proof_variant):
        space, t, x0, offset = REFERENCE_MAPS[name]()
        seen = []
        t.raw = recording(t.raw, seen)  # S = T + offset calls it too
        s = mappings.perturbed(space, t, offset)
        rep = run_datadep(space, t, s, default_schedule(), x0=x0, n_max=20,
                          proof_variant=proof_variant)
        assert len(seen) > 20 and all(is_raw_point(x, space.dim) for x in seen)
        assert is_public_point(rep.p, space.dim) and is_public_point(rep.q, space.dim)
        # the closed form reads the AffineMap from T.apply, which the recorder leaves as is
        if name.startswith("affine"):
            assert is_public_point(rep.closed_form_q, space.dim)
        else:
            assert rep.closed_form_q is None

    @pytest.mark.parametrize("name", EUCLIDEAN_MAPS)
    def test_records_are_built_once_when_first_read(self, name):
        space, t, x0, _ = REFERENCE_MAPS[name]()
        made = []
        public = space.public
        space.public = lambda x: made.append(x) or public(x)
        trace = run(space, t, "implicit-s", default_schedule().weights(20), x0)
        assert len(trace) == 20 and len(trace.distances()) == 20
        assert made == []  # neither len nor distances() builds a record
        records = trace.records
        assert len(made) == 2 * 20 - 1  # x of every record, y from n = 2
        assert trace.records is records and len(made) == 39
        assert all(is_public_point(r.x, space.dim) for r in records)
        assert trace.distances() == [r.dist_to_p for r in records]

    @pytest.mark.parametrize("name", EUCLIDEAN_MAPS)
    def test_report_points_are_built_once_when_first_read(self, name):
        space, t, x0, offset = REFERENCE_MAPS[name]()
        s = mappings.perturbed(space, t, offset)
        made = []
        public = space.public
        space.public = lambda x: made.append(x) or public(x)
        rep = run_datadep(space, t, s, default_schedule(), x0=x0, n_max=20,
                          proof_variant=True)
        text = rep.to_text(space)  # formats the checked points
        assert made == []
        p, q = rep.p, rep.q
        assert len(made) == 2 and rep.p is p and rep.q is q and len(made) == 2
        assert all(type(v) is np.ndarray and v.dtype == np.float64 and v.shape == (space.dim,)
                   for v in (p, q))
        assert f"p={space.format_point(p)}\nq={space.format_point(q)}\n" in text
        # perfbench's tampered report: replace takes the public points as given
        moved = replace(rep, q=rep.q + 1.0)
        assert np.array_equal(moved.q, q + 1.0) and np.array_equal(moved.p, p)
        assert rep.q is q and f"q={space.format_point(q + 1.0)}\n" in moved.to_text(space)

    def test_a_reassigned_record_point_persists(self):
        space, t, x0, _ = REFERENCE_MAPS["affine-2"]()
        trace = run(space, t, "implicit-ishikawa", default_schedule().weights(20), x0)
        moved = trace.records[10].x + 1e-6
        trace.records[10].x = moved
        assert trace.records[10].x is moved
        assert [r.x for r in trace][10] is moved

    def test_exact_affine_step_returns_a_checked_point(self):
        space, t, x0, _ = REFERENCE_MAPS["affine-3"]()
        cfg = InnerSolverConfig(mode="exact-affine")
        x, y, stats = implicit_step(space, t.apply, t.apply, x0, x0, 0.5, 0.5, cfg)
        assert is_raw_point(x, 3) and is_raw_point(y, 3)
        assert is_raw_point(stats.inner_x, 3) and is_raw_point(stats.outer_y, 3)


def numpy_calls_in(fn):
    """fn wrapped so that every function called while it runs that belongs
    to numpy (a numpy Python function, a numpy builtin or an ndarray
    method) is appended to the returned list."""
    found = []

    def hook(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__") or ""
            if module.split(".")[0] == "numpy":
                found.append(f"{module}.{frame.f_code.co_name}")
        elif event == "c_call":
            module = getattr(arg, "__module__", None) or ""
            owner = type(getattr(arg, "__self__", None))
            if module.split(".")[0] == "numpy" or owner.__module__.split(".")[0] == "numpy":
                found.append(getattr(arg, "__qualname__", repr(arg)))

    def wrapped(*args):
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(previous)

    return wrapped, found


def test_profile_hook_sees_numpy_calls():
    def uses_numpy(x):
        v = np.atleast_1d(np.asarray(x))
        return v.tolist()

    wrapped, found = numpy_calls_in(uses_numpy)
    assert wrapped((1.0,)) == [1.0]
    assert "asarray" in found and "ndarray.tolist" in found
    assert any(f.startswith("numpy.") and f.endswith(".atleast_1d") for f in found)


@pytest.mark.parametrize("name", EUCLIDEAN_MAPS)
def test_picard_iteration_calls_no_numpy(monkeypatch, name):
    space, t, x0, offset = REFERENCE_MAPS[name]()
    solve, found = numpy_calls_in(schemes._picard_solve)
    monkeypatch.setattr(schemes, "_picard_solve", solve)
    seen = []
    t.raw = recording(t.raw, seen)
    for sched in REFERENCE_SCHEDULES:
        for scheme in schemes.SCHEME_IDS:
            run(space, t, scheme, schedule_from_name(sched).weights(30), x0)
        run_datadep(space, t, mappings.perturbed(space, t, offset), schedule_from_name(sched),
                    x0=x0, n_max=30, proof_variant=True)
    # every point the map saw is a tuple of floats, so no ndarray operator ran
    assert seen and all(is_raw_point(x, space.dim) for x in seen)
    assert found == []

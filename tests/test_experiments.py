import math
from fractions import Fraction

import numpy as np
import pytest

from implicitfp import experiments, mappings, schemes
from implicitfp.bounds import BoundSequences, step_factors
from implicitfp.errors import ConfigError, InvalidPointError, NonconvergenceError
from implicitfp.experiments import (REFERENCE_TABLE, TABLE_ROWS,
                                    RationalOracle, format15, rate_race,
                                    reproduce_table, run_datadep, run_schemes)
from implicitfp.mappings import AffineMap, ContractiveLike, LinearPhi
from implicitfp.schemes import (InnerSolverConfig, constant_schedule,
                                default_schedule)
from implicitfp.spaces import Euclidean


class TestRationalOracle:
    def test_exact_values(self):
        isi = RationalOracle("implicit-s").sequence(5)
        assert isi[1] == Fraction(4, 13)
        assert isi[4] == Fraction(15360, 696787)

    def test_rounded_oracle_reproduces_reference_table(self):
        for scheme, col in (("implicit-mann", 0), ("implicit-ishikawa", 1),
                            ("implicit-s", 2)):
            seq = RationalOracle(scheme).sequence(50)
            for n in TABLE_ROWS:
                assert format15(seq[n - 1]) == REFERENCE_TABLE[n][col]


class TestFormatting:
    def test_fifteen_decimals(self):
        assert format15(Fraction(2, 3)) == "0.666666666666667"
        assert format15(0.0) == "0.000000000000000"

    def test_round_half_even(self):
        assert format15(Fraction(1, 2) * Fraction(1, 10) ** 15 * 3) == "0.000000000000002"
        assert format15(Fraction(25, 10 ** 16)) == "0.000000000000002"
        assert format15(Fraction(35, 10 ** 16)) == "0.000000000000004"

    @pytest.mark.parametrize("value,digits,text", [
        (1e14, 15, "100000000000000.000000000000000"),
        (2.0 ** 70, 2, "1180591620717411303424.00"),
        (0.1, 30, "0.100000000000000005551115123126"),
        (9.9999999999999999e13, 15, "100000000000000.000000000000000"),
        (1.7976931348623157e308, 0, str(int(1.7976931348623157e308))),
        (0.5, 0, "0"),
        (Fraction(10 ** 20, 3), 15, "33333333333333333333.333333333333333"),
        (Fraction(1, 3), 40, "0." + "3" * 40),
        (Fraction(-5, 2), 0, "-2"),
    ])
    def test_rounds_exactly_at_any_size(self, value, digits, text):
        # each of these needs more than 28 significant digits
        assert format15(value, digits) == text

    @pytest.mark.parametrize("value,text", [(float("inf"), "inf"), (float("-inf"), "-inf"),
                                            (float("nan"), "nan"), (np.float64("inf"), "inf")])
    def test_non_finite_prints_its_name(self, value, text):
        # a distance can overflow to inf on finite points; Fraction(inf) would raise
        assert format15(value) == format15(value, 0) == text

    def test_table_with_an_infinite_distance(self):
        # d((1.7e308,), (-1.7e308,)) overflows at n = 2 on all three schemes
        space, t, _ = mappings.affine(AffineMap([[0.9]], [-1.7e307]))
        traces = run_schemes(space, t, default_schedule().weights(5), (1.7e308,))
        table = reproduce_table(traces)
        assert table.rows[0] == (2, "inf", "inf", "inf")
        assert ("inf" in table.to_text()) and (",inf," in table.to_csv())
        assert table.verify()  # every cell differs from the reference

    @pytest.mark.parametrize("digits", [-1, experiments.MAX_DIGITS + 1])
    def test_digits_out_of_range_rejected(self, digits):
        with pytest.raises(ConfigError, match=r"digits must lie in \[0, 1074\]"):
            reproduce_table(digits=digits)

    def test_the_smallest_float_at_the_most_digits(self):
        text = format15(5e-324, experiments.MAX_DIGITS)
        assert text.startswith("0.000") and text.endswith("5") and len(text) == 1076



class TestTable:
    def test_full_fidelity(self):
        table = reproduce_table()
        assert table.verify() == []

    def test_row_n10(self):
        table = reproduce_table(rows=(10,))
        assert table.rows[0] == (10, "0.283773192751521", "0.240691952056443",
                                 "0.000470101468860")

    def test_row_n43_isi(self):
        table = reproduce_table(rows=(43,))
        assert table.rows[0][3] == "0.000000000000026"

    def test_monotone_ordering_isi_iii_imi(self):
        table = reproduce_table()
        for n, imi, iii, isi in table.rows:
            assert float(isi) <= float(iii) <= float(imi)

    def test_csv_layout(self):
        table = reproduce_table(rows=(2, 5))
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "n,imi,iii,isi"
        assert lines[1].startswith("2,0.666666666666667,")

    def test_formats_the_traces_it_is_given(self):
        space, t, _ = mappings.halving()
        traces = run_schemes(space, t, default_schedule().weights(50), np.array([1.0]))
        assert list(traces) == list(schemes.SCHEME_IDS)
        assert reproduce_table(traces) == reproduce_table()

    def test_rows_past_the_traces_are_dropped(self):
        space, t, _ = mappings.halving()
        traces = run_schemes(space, t, default_schedule().weights(12), np.array([1.0]))
        assert [row[0] for row in reproduce_table(traces).rows] == [2, 5, 7, 10]
        short = run_schemes(space, t, default_schedule().weights(1), np.array([1.0]))
        assert reproduce_table(short).rows == [(1,) + ("1.000000000000000",) * 3]

    def test_verify_reports_drift(self):
        table = reproduce_table(rows=(2,))
        table.rows[0] = (2, "0.666666666666667", "0.615384615384615",
                         "0.307692307692309")
        bad = table.verify()
        assert bad and bad[0][:2] == (2, "isi")

    def test_default_starts_are_checked_points(self):
        space, t, _ = mappings.halving()
        assert t.fixed_point == (0.0,) and experiments.default_x0(space, t) == (1.0,)
        space, t, _ = mappings.affine(AffineMap([[0.5, 0.1], [0.0, 0.4]], [1.0, 2.0]))
        assert experiments.default_x0(space, t) == (1.0, 1.0)
        for x in (mappings.halving()[1].fixed_point, experiments.default_x0(space, t)):
            assert Euclidean(len(x)).check_point(x) is x


class TestEnvelopeDominance:
    def test_traces_below_envelopes(self):
        # actual distances never exceed the cumulative-product envelopes
        space, t, _ = mappings.halving()
        sched = default_schedule()
        from implicitfp.bounds import BoundSequences
        env = BoundSequences.compute(sched.weights(50), t.delta, 1.0)
        cols = {"implicit-s": env.a, "implicit-mann": env.b,
                "implicit-ishikawa": env.c}
        for scheme, bound_seq in cols.items():
            tr = schemes.run(space, t, scheme, sched.weights(50), np.array([1.0]))
            for rec, bound in zip(tr.records[1:], bound_seq):
                assert rec.dist_to_p <= bound + 1e-12


class TestExactEnvelope:
    @pytest.mark.parametrize("scheme,row", [("implicit-s", 0), ("implicit-mann", 1),
                                            ("implicit-ishikawa", 2)])
    def test_envelope_over_exact_weights_is_the_oracle(self, scheme, row):
        """At the default schedule's ideal weights 1 - 1/n and delta = 1/2,
        the halving map's trace is the envelope product: in Fractions, the
        envelope equals the hand-derived oracle to n = 1000."""
        weights = [(1 - Fraction(1, n),) * 2 for n in range(2, 1001)]
        delta = Fraction(1, 2)
        oracle = RationalOracle(scheme).sequence(1000)[1:]
        factors = step_factors(weights, delta)[row]
        assert factors == [b / a for a, b in zip([Fraction(1)] + oracle, oracle)]
        env = BoundSequences.compute(weights, delta, 1)
        seq = (env.a, env.b, env.c)[row]
        assert all(type(v) is Fraction for v in seq)
        assert seq == oracle


class TestRateRace:
    def test_schedule_evaluated_once_per_race(self, counting_schedule):
        space, t, _ = mappings.halving()
        schedule, evaluated_once = counting_schedule
        rate_race(space, t, schedule, n_max=60, horizon=50)
        assert evaluated_once(60)

    def test_invalid_x0_reported_before_the_schedule(self):
        space, t, _ = mappings.halving()
        bad = schemes.Schedule(lambda n: 1.5, lambda n: 0.5)
        with pytest.raises(InvalidPointError):
            rate_race(space, t, bad, x0=(float("nan"),), n_max=10)
        with pytest.raises(ConfigError, match="alpha_2 = 1.5"):
            rate_race(space, t, bad, n_max=10)

    def test_benchmark_race_all_faster(self):
        space, t, _ = mappings.halving()
        race = rate_race(space, t, default_schedule(), n_max=60, horizon=50)
        assert race.all_faster

    def test_constant_map_converges_exactly(self):
        space = mappings.Euclidean(1)
        t = mappings.ContractiveLike(lambda x: np.array([0.25]), 0.0,
                                     fixed_point=np.array([0.25]),
                                     name="constant")
        race = rate_race(space, t, default_schedule(), x0=np.array([1.0]),
                         n_max=30, horizon=10, threshold=0.5)
        assert any(zi is not None for zi in race.converged_exactly.values())

    def test_tripod_same_verdict_as_scalar(self):
        space, t, _ = mappings.tripod_radial(0.5)
        race = rate_race(space, t, default_schedule(), n_max=60, horizon=50)
        assert race.all_faster


    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        space, t, _ = mappings.halving()
        with pytest.raises(ConfigError, match="threshold must be finite and > 0"):
            rate_race(space, t, default_schedule(), n_max=10, threshold=threshold)

    @pytest.mark.parametrize("n_max,horizon", [(200, 0), (200, 1), (1, 50), (2, 50), (2, None)])
    def test_too_few_comparison_points_rejected_before_running(self, n_max, horizon):
        calls = []
        t = mappings.ContractiveLike(lambda x: calls.append(None) or 0.5 * x, 0.5,
                                     fixed_point=np.array([0.0]))
        with pytest.raises(ConfigError, match="at least two comparison points"):
            rate_race(mappings.Euclidean(1), t, default_schedule(), x0=np.array([1.0]),
                      n_max=n_max, horizon=horizon)
        assert calls == []


class TestDataDependence:
    def test_schedule_evaluated_once(self, counting_schedule):
        space, t, _ = mappings.halving()
        s = mappings.perturbed(space, t, 0.01)
        schedule, evaluated_once = counting_schedule
        run_datadep(space, t, s, schedule, n_max=40, proof_variant=True)
        assert evaluated_once(40)

    def test_halving_proof_variant_hits_closed_form(self):
        # S's fixed point solves q = q/2 + 0.01, so q = 0.02
        space, t, _ = mappings.halving()
        s = mappings.perturbed(space, t, np.array([0.01]))
        rep = run_datadep(space, t, s, proof_variant=True)
        assert rep.converged
        assert rep.observed == pytest.approx(0.02, abs=1e-12)
        assert rep.bound == pytest.approx(0.08)
        assert rep.holds

    def test_halving_default_variant_bound_holds(self):
        # the displayed iteration approaches q = 2 eps only at rate O(1/n),
        # so the 1e-12 tail check stays inconclusive at n_max = 200 while
        # the bound itself holds with wide margin
        space, t, _ = mappings.halving()
        s = mappings.perturbed(space, t, np.array([0.01]))
        rep = run_datadep(space, t, s)
        assert not rep.converged
        assert rep.holds
        assert 0.019 <= rep.observed <= 0.02
        assert rep.lemma1.hypothesis_ok

    def test_identical_operator(self):
        space, t, _ = mappings.halving()
        s = mappings.ApproximateOperator(t.apply, 1e-6)
        rep = run_datadep(space, t, s, proof_variant=True)
        assert rep.observed == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_affine_r2_closed_form_crosscheck(self):
        m = AffineMap([[0.3, 0.1], [0.0, 0.4]], [0.1, 0.2])
        space, t, _ = mappings.affine(m)
        c = np.array([0.01, -0.005])
        s = mappings.perturbed(space, t, c)
        rep = run_datadep(space, t, s, proof_variant=True)
        shift = np.linalg.solve(np.eye(2) - m.A, c)
        assert rep.converged
        assert rep.observed == pytest.approx(float(np.linalg.norm(shift)), abs=1e-10)
        assert space.d(rep.q, rep.closed_form_q) <= 1e-10
        assert rep.holds

    def test_exact_affine_solver_in_both_variants(self):
        # the x-step has a closed form; the u-step pairs T with S and keeps
        # to Picard iteration
        m = AffineMap([[0.3, 0.1], [0.0, 0.4]], [0.1, 0.2])
        space, t, _ = mappings.affine(m)
        s = mappings.perturbed(space, t, np.array([0.01, -0.005]))
        for variant in (False, True):
            exact = run_datadep(space, t, s, proof_variant=variant,
                                cfg=InnerSolverConfig(mode="exact-affine"))
            picard = run_datadep(space, t, s, proof_variant=variant)
            assert exact.holds and exact.converged == picard.converged
            assert exact.observed == pytest.approx(picard.observed, abs=1e-12)

    def test_lemma1_hypothesis_on_run(self):
        space, t, _ = mappings.halving()
        s = mappings.perturbed(space, t, np.array([0.05]))
        for variant in (False, True):
            rep = run_datadep(space, t, s, proof_variant=variant)
            assert rep.lemma1.hypothesis_ok
            assert rep.lemma1.max_hypothesis_violation <= 1e-10

    def test_constant_schedule_proof_variant(self):
        space, t, _ = mappings.halving()
        s = mappings.perturbed(space, t, np.array([0.01]))
        rep = run_datadep(space, t, s, schedule=constant_schedule(0.5),
                          proof_variant=True)
        assert rep.converged
        assert rep.observed == pytest.approx(0.02, abs=1e-12)

    def test_report_text(self):
        space, t, _ = mappings.halving()
        s = mappings.perturbed(space, t, np.array([0.01]))
        rep = run_datadep(space, t, s, proof_variant=True)
        text = rep.to_text(space)
        assert "bound=0.08" in text
        assert "holds=True" in text

    def test_failed_step_names_the_x_or_u_step(self):
        # Tx = x/4 on [0, 1/2), x/5 on [1/2, 1]: a map with no chart, so the
        # x-step is Picard iteration from x_prev, which one iteration cannot finish
        space = Euclidean(1)
        t = ContractiveLike(lambda x: (x[0] / 4 if x[0] < 0.5 else x[0] / 5,), 3 / 7,
                            LinearPhi(6 / 7), fixed_point=(0.0,))
        s = mappings.perturbed(space, t, (0.01,))
        with pytest.raises(NonconvergenceError) as err:
            run_datadep(space, t, s, x0=(1.0,), cfg=InnerSolverConfig(max_iterations=1))
        assert str(err.value) == "x-step n=2: inner solver exceeded 1 iterations"
        assert err.value.residual > 0.0
        # S = T + 0.71: from 0.88 at alpha = 1/2, beta = 1 the x-step
        # x = (T(0.88) + Tx)/2 is solvable, the u-step u = (S(0.88) + Tu)/2 is
        # not (0.506 and 0.492 on the two pieces)
        s = mappings.perturbed(space, t, (0.71,))
        with pytest.raises(NonconvergenceError) as err:
            run_datadep(space, t, s, constant_schedule(0.5, 1.0), x0=(0.88,), n_max=5)
        assert str(err.value) == "u-step n=2: inner solver exceeded 10000 iterations"
        assert err.value.residual == pytest.approx(0.012, abs=1e-3)

    @pytest.mark.parametrize("name,x0,offset,message", [
        # T's image at n = 2 overflows: checked for the x-step
        ("affine:-0.9|1e308", (-1.7e308,), (0.01,), "x-step n=2: "),
        # T's image is finite, S's is not: checked for the u-step
        ("halving", (1.7e308,), (1.7e308,), r"u-step n=2: non-finite coordinates: \(inf,\)$"),
        # S = T + 1e308 leaves the floats inside the u-step
        ("halving", (1.0,), (1e308,), r"u-step n=7: non-finite coordinates: \(inf,\)$"),
    ])
    def test_an_invalid_point_names_the_x_or_u_step(self, name, x0, offset, message):
        space, t, _ = mappings.from_name(name)
        s = mappings.perturbed(space, t, offset)
        with pytest.raises(InvalidPointError, match="^" + message):
            run_datadep(space, t, s, x0=x0)

    def test_an_x_step_failure_comes_before_a_later_u_step_failure(self):
        # T has no image below 0.1, which the x-sequence passes at step 3;
        # S = T + 1e308 leaves the floats at u-step 7, as it does over the
        # halving map, whose x-sequence is the same and never fails
        space = Euclidean(1)
        halving = ContractiveLike(lambda x: (0.5 * x[0],), 0.5, fixed_point=(0.0,))
        t = ContractiveLike(lambda x: (0.5 * x[0] if x[0] >= 0.1 else math.nan,), 0.5,
                            fixed_point=(0.0,))
        with pytest.raises(InvalidPointError, match=r"^u-step n=7: "):
            run_datadep(space, halving, mappings.perturbed(space, halving, (1e308,)), x0=(1.0,))
        with pytest.raises(InvalidPointError, match=r"^x-step n=3: non-finite coordinates"):
            run_datadep(space, t, mappings.perturbed(space, t, (1e308,)), x0=(1.0,))

    @pytest.mark.parametrize("n_max", [1, 0, -3])
    def test_too_few_steps_rejected(self, n_max):
        # the averaging lemma needs at least one index, so n_max >= 2
        space, t, _ = mappings.halving()
        s = mappings.perturbed(space, t, np.array([0.01]))
        with pytest.raises(ConfigError, match="n_max >= 2"):
            run_datadep(space, t, s, n_max=n_max)
        assert run_datadep(space, t, s, n_max=2).lemma1 is not None

import math
import random
from fractions import Fraction

import pytest

from orbitgrowth.errors import ContractError
from orbitgrowth.fitting import LOGLOG_POWERS, _linear_fit, classify_growth, fit_model
from orbitgrowth.mertens import default_grid, dominant_sum, f_series_direct
from orbitgrowth.reproduce import ONTO_GRID, SQUAREFREE_GRID, ZERO_GRID
from orbitgrowth.sets import CompositeNumbers, ExplicitList, MultiplesOf, SquarefreeAugmented


def synth(k, c, g, grid):
    return [(n, k * g(n) + c) for n in grid]


GRID = default_grid(10**6)


def exact_line(g, vs):
    """The least-squares slope and intercept of the floats g and vs, as
    exact rationals."""
    g = [Fraction(x) for x in g]
    vs = [Fraction(v) for v in vs]
    g_mean, v_mean = sum(g) / len(g), sum(vs) / len(vs)
    slope = (sum((x - g_mean) * (v - v_mean) for x, v in zip(g, vs))
             / sum((x - g_mean) ** 2 for x in g))
    return slope, v_mean - slope * g_mean


def ulps_off(got: float, exact: Fraction) -> Fraction:
    return abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))


# Columns the fits regress on: the growth models on the half-decade grid,
# a 2-point fit, and log N on the grids of the recipes that fit (`onto`,
# `logdelta`, `zero`, and the squarefree slope of `transcendental`).
ORACLE_COLUMNS = {
    **{f"logdelta_{d}": [math.log(n) ** d for n in default_grid(10**7)]
       for d in (0.05, 0.5, 1, 3)},
    **{f"loglogr_{r}": [math.log(math.log(n)) ** r for n in default_grid(10**7)]
       for r in LOGLOG_POWERS},
    "two_points": [math.log(64), math.log(100)],
    **{f"recipe_{name}": [math.log(n) for n in grid] for name, grid in (
        ("onto", ONTO_GRID), ("logdelta", default_grid(10**7, start=100)),
        ("zero", ZERO_GRID), ("squarefree", SQUAREFREE_GRID))},
}


class TestLinearFit:
    @pytest.mark.parametrize("column", sorted(ORACLE_COLUMNS))
    def test_matches_exact_least_squares(self, column):
        # Seeded lines with noise, some nearly flat against the column.
        g = ORACLE_COLUMNS[column]
        rng = random.Random(column)
        for _ in range(20):
            k, c, noise = rng.uniform(-2, 2), rng.uniform(-3, 3), rng.choice([0, 1e-6, 1e-2])
            vs = [k * x + c + rng.gauss(0, noise) for x in g]
            slope, intercept, pred = _linear_fit(g, vs)
            exact_slope, exact_intercept = exact_line(g, vs)
            assert ulps_off(slope, exact_slope) <= 4
            assert ulps_off(intercept, exact_intercept) <= 4
            assert pred == [intercept + slope * x for x in g]

    def test_squarefree_slope_is_the_exact_line(self):
        # The `transcendental` recipe's slope, on its own samples.
        series = dominant_sum(10**7, SquarefreeAugmented(ExplicitList([])),
                              grid=list(SQUAREFREE_GRID))
        pts = series.float_samples()
        slope, _ = exact_line([math.log(n) for n, _ in pts], [v for _, v in pts])
        assert ulps_off(fit_model(pts, "k_log").k, slope) <= 4


class TestFitModel:
    def test_recovers_synthetic_klog(self):
        samples = synth(0.37, 1.23, math.log, GRID)
        rep = fit_model(samples, "k_log")
        assert abs(rep.k - 0.37) < 1e-6
        assert abs(rep.constant - 1.23) < 1e-6

    def test_harmonic_slope_is_1(self):
        series = dominant_sum(10**6, ExplicitList([]))
        rep = fit_model(series.float_samples(), "k_log")
        assert abs(rep.k - 1.0) < 0.005

    def test_dominant_multiples_of_3(self):
        series = dominant_sum(10**6, MultiplesOf(ells=[3]))
        rep = fit_model(series.float_samples(), "k_log")
        assert abs(rep.k - 2 / 3) < 0.01

    def test_loglog_free_r_on_prime_harmonic(self):
        series = dominant_sum(10**7, CompositeNumbers(),
                              grid=default_grid(10**7, start=100))
        rep = fit_model(series.float_samples(), "k_loglogr")
        assert rep.r == 1
        assert abs(rep.k - 1.0) <= 0.05

    def test_logdelta_free(self):
        samples = synth(2.0, 0.4, lambda n: math.log(n) ** 0.5, GRID)
        free = fit_model(samples, "k_logdelta")
        assert abs(free.delta - 0.5) < 0.01
        assert abs(free.k - 2.0) < 1e-6

    def test_bounded_residual_is_tail_oscillation(self):
        samples = [(10 * (i + 1), 1.0 + 0.001 * (i % 2)) for i in range(10)]
        rep = fit_model(samples, "bounded")
        assert rep.model == "bounded"
        assert abs(rep.residual - 0.001) < 1e-12

    def test_strict_grid_contract(self):
        small = synth(1.0, 0.0, math.log, [10, 20, 40, 80])
        with pytest.raises(ContractError):
            fit_model(small, "k_log")
        # bounded has no decade requirement
        fit_model([(n, 1.0) for n in (10, 20, 30, 40)], "bounded")

    def test_unknown_model(self):
        with pytest.raises(ContractError):
            fit_model(synth(1, 0, math.log, GRID), "exp")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value(self, bad):
        samples = synth(1, 0, math.log, GRID)
        samples[3] = (samples[3][0], bad)
        with pytest.raises(ContractError, match="non-finite"):
            classify_growth(samples)


class TestClassify:
    def test_synthetic_klog(self):
        assert classify_growth(synth(0.6, 0.1, math.log, GRID)).model == "k_log"

    @pytest.mark.parametrize("grid", [GRID, default_grid(10**7, start=100)],
                             ids=["default", "recipe"])
    def test_noise_free_lines_take_the_fewest_parameters(self, grid):
        # k (log N)^delta with delta next to 1 fits k log N + c as well, to
        # rounding; residuals below an ulp of the values score as that ulp,
        # so the penalty, not the last bit, decides.  Without that floor
        # about 1 line in 20 classified as k_logdelta.
        rng = random.Random(5)
        for _ in range(100):
            k, c = rng.uniform(0.1, 2), rng.uniform(-1, 1)
            assert classify_growth(synth(k, c, math.log, grid)).model == "k_log"
            loglog = synth(k, c, lambda n: math.log(math.log(n)), grid)
            rep = classify_growth(loglog)
            assert (rep.model, rep.r) == ("k_loglogr", 1)

    def test_synthetic_logdelta(self):
        samples = synth(1.5, 0.2, lambda n: math.log(n) ** 0.5, GRID)
        rep = classify_growth(samples)
        assert rep.model == "k_logdelta"
        assert abs(rep.delta - 0.5) < 0.02

    def test_synthetic_bounded(self):
        samples = [(n, 2.5 - 1.0 / n) for n in GRID]
        assert classify_growth(samples).model == "bounded"

    def test_permutation_invariance(self):
        samples = synth(0.6, 0.1, math.log, GRID)
        rng = random.Random(3)
        shuffled = samples[:]
        rng.shuffle(shuffled)
        assert classify_growth(shuffled) == classify_growth(samples)

    def test_nested_sets_fit_monotonicity(self):
        small = f_series_direct(2000, [3])
        large = f_series_direct(2000, [3, 7])
        rep_small = fit_model(small.float_samples(), "k_log", strict=False)
        rep_large = fit_model(large.float_samples(), "k_log", strict=False)
        slack = 2 * (rep_small.residual + rep_large.residual)
        assert rep_large.k <= rep_small.k + slack

    def test_report_json_fields(self):
        rep = classify_growth(synth(0.6, 0.1, math.log, GRID))
        assert set(rep.to_json()) == {"model", "k", "delta", "r", "residual",
                                      "n_samples"}

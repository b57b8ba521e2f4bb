import math
import random
from fractions import Fraction

import pytest

from orbitgrowth.errors import ContractError
from orbitgrowth.fitting import classify_growth, fit_model
from orbitgrowth.mertens import (
    default_grid,
    dominant_sum,
    f_series_direct,
)
from orbitgrowth.sets import CompositeNumbers, ExplicitList, MultiplesOf


def synth(k, c, g, grid):
    return [(n, k * g(n) + c) for n in grid]


GRID = default_grid(10**6)


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


class TestClassify:
    def test_synthetic_klog(self):
        assert classify_growth(synth(0.6, 0.1, math.log, GRID)).model == "k_log"

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

    def test_nested_sets_fit_monotonicity(self, orders, cache):
        small = f_series_direct(2000, [3], orders, cache)
        large = f_series_direct(2000, [3, 7], orders, cache)
        rep_small = fit_model(small.float_samples(), "k_log", strict=False)
        rep_large = fit_model(large.float_samples(), "k_log", strict=False)
        slack = 2 * (rep_small.residual + rep_large.residual)
        assert rep_large.k <= rep_small.k + slack

    def test_report_json_fields(self):
        rep = classify_growth(synth(0.6, 0.1, math.log, GRID))
        assert set(rep.to_json()) == {"model", "k", "delta", "r", "residual",
                                      "n_samples"}

"""Tests for the parameter sets and derived quantities."""

import math

import pytest

from repro.core import Parameters, paper_time_bound, suggested_max_slots
from repro.graphs import random_udg


def practical(n=100, delta=10, k1=4, k2=9, **kw):
    return Parameters.practical(n, delta, k1, k2, **kw)


class TestValidation:
    def test_rejects_tiny_estimates(self):
        with pytest.raises(ValueError):
            Parameters.practical(1, 10, 4, 9)
        with pytest.raises(ValueError):
            Parameters.practical(10, 1, 4, 9)

    def test_rejects_kappa2_one(self):
        # kappa2 = 1 would make leaders transmit always and deadlock.
        with pytest.raises(ValueError, match="kappa"):
            Parameters(n=10, delta=5, kappa1=1, kappa2=1, alpha=1, beta=1, gamma=1, sigma=3)

    def test_rejects_kappa1_above_kappa2(self):
        with pytest.raises(ValueError, match="kappa1"):
            Parameters(n=10, delta=5, kappa1=5, kappa2=4, alpha=1, beta=1, gamma=1, sigma=3)

    def test_rejects_sigma_at_most_2gamma(self):
        # Theorem 2's case split needs sigma > 2*gamma.
        with pytest.raises(ValueError, match="sigma"):
            Parameters(n=10, delta=5, kappa1=2, kappa2=4, alpha=1, beta=1, gamma=2, sigma=4)


class TestDerivedQuantities:
    def test_zeta(self):
        p = practical(delta=17)
        assert p.zeta(0) == 1
        assert p.zeta(1) == 17
        assert p.zeta(5) == 17

    def test_critical_range_scales_with_zeta(self):
        p = practical(delta=20)
        assert p.critical_range(1) > p.critical_range(0)
        assert p.critical_range(1) == math.ceil(p.gamma * 20 * math.log(p.n))

    def test_probabilities(self):
        p = practical(delta=10, k2=9)
        assert p.p_active == pytest.approx(1 / 90)
        assert p.p_leader == pytest.approx(1 / 9)

    def test_threshold_exceeds_twice_critical_range_coeff(self):
        p = practical()
        assert p.sigma > 2 * p.gamma

    def test_color_for_tc(self):
        p = practical(k2=9)
        assert p.color_for_tc(0) == 0
        assert p.color_for_tc(1) == 10
        assert p.color_for_tc(3) == 30


class TestTheoretical:
    def test_formulas_positive_and_large(self):
        p = Parameters.theoretical(n=100, delta=10, kappa1=5, kappa2=18)
        # sigma = 10 e^2 k2 / ((1-1/k2)(1-1/(k2 D))) >= 10 e^2 k2.
        assert p.sigma >= 10 * math.e**2 * 18
        assert p.gamma >= 5 * 18

    def test_satisfies_analysis_preconditions(self):
        p = Parameters.theoretical(n=100, delta=10, kappa1=5, kappa2=18)
        assert p.check_analysis_preconditions() == []

    def test_practical_violates_alpha_condition(self):
        p = practical()
        problems = p.check_analysis_preconditions()
        assert any("alpha" in s for s in problems)
        with pytest.raises(ValueError):
            p.check_analysis_preconditions(strict=True)

    def test_exact_sigma_formula(self):
        k1, k2, d = 3, 7, 12
        p = Parameters.theoretical(n=50, delta=d, kappa1=k1, kappa2=k2)
        expected = 10 * math.e**2 * k2 / ((1 - 1 / k2) * (1 - 1 / (k2 * d)))
        assert p.sigma == pytest.approx(expected)

    def test_exact_gamma_formula(self):
        k1, k2, d = 3, 7, 12
        p = Parameters.theoretical(n=50, delta=d, kappa1=k1, kappa2=k2)
        denom = (math.exp(-1) * (1 - 1 / k2)) ** (k1 / k2) * (
            math.exp(-1) * (1 - 1 / (k2 * d))
        ) ** (1 / k2)
        assert p.gamma == pytest.approx(5 * k2 / denom)


class TestForDeployment:
    def test_measures_kappas(self):
        dep = random_udg(50, expected_degree=8, seed=4)
        p = Parameters.for_deployment(dep)
        assert 2 <= p.kappa2 <= 18
        assert p.delta == max(2, dep.max_degree)

    def test_unknown_regime(self):
        dep = random_udg(10, side=3.0, seed=4)
        with pytest.raises(ValueError, match="regime"):
            Parameters.for_deployment(dep, regime="mystical")

    def test_bad_regime_fails_before_kappa_is_measured(self, monkeypatch):
        # Exact kappa can take long on a dense deployment: a bad regime or
        # a keyword its constructor does not take must fail first.
        from repro.graphs import independence

        def no_search(dep):
            raise RuntimeError("kappa measured before the arguments were checked")

        monkeypatch.setattr(independence, "kappas", no_search)
        dep = random_udg(10, side=3.0, seed=4)
        with pytest.raises(ValueError, match="unknown regime 'mystical'"):
            Parameters.for_deployment(dep, regime="mystical")
        with pytest.raises(ValueError, match="'theoretical' takes no keyword argument 'scale'"):
            Parameters.for_deployment(dep, regime="theoretical", scale=2.0)
        with pytest.raises(ValueError, match="'practical' takes no keyword argument 'gamma'"):
            Parameters.for_deployment(dep, gamma=1.0)
        with pytest.raises(RuntimeError, match="kappa measured"):
            Parameters.for_deployment(dep, scale=2.0)

    def test_overrides(self):
        p = practical()
        q = p.with_overrides(gamma=p.gamma, sigma=p.sigma * 2)
        assert q.sigma == p.sigma * 2 and q.n == p.n


class TestTimeBounds:
    def test_paper_bound_positive_and_monotone_in_delta(self):
        a = paper_time_bound(practical(delta=5))
        b = paper_time_bound(practical(delta=50))
        assert 0 < a < b

    def test_suggested_max_slots_offsets_wake(self):
        p = practical()
        assert suggested_max_slots(p, wake_max=1000) == suggested_max_slots(p) + 1000

import json
import math

import numpy as np
import pytest

from corpusforge.scaling import (
    BudgetSpec,
    MixObservation,
    ScalingCurve,
    ScalingError,
    _linear_fit_at_alpha,
    compute_budget,
    fit_power_law,
    load_observations,
    optimal_mix_ratio,
    predict_loss,
)

TRUE_C, TRUE_K, TRUE_ALPHA = 0.55, 0.75, -0.35
XS = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6]


def synthetic_obs(noise_sigma=0.0, seed=4, benchmark="bench"):
    rng = np.random.default_rng(seed)
    out = []
    for x in XS:
        loss = TRUE_C + TRUE_K * x ** TRUE_ALPHA
        if noise_sigma:
            loss += rng.normal(0.0, noise_sigma)
        out.append(MixObservation(x, loss, benchmark))
    return out


def grid_oracle_best_rmse(obs, step=1e-3):
    """Brute-force alpha grid with exactly optimal (c, k) at each point."""
    x = np.array([o.x for o in obs])
    y = np.array([o.loss for o in obs])
    best = math.inf
    alpha = -2.0
    while alpha <= 2.0 + step / 2:
        if abs(alpha) > step / 2:
            _, _, sse = _linear_fit_at_alpha(x, y, alpha)
            best = min(best, math.sqrt(sse / len(obs)))
        alpha += step
    return best


class TestFitPowerLaw:
    def test_noiseless_recovery(self):
        curve = fit_power_law(synthetic_obs())
        assert abs(curve.c - TRUE_C) / abs(TRUE_C) < 1e-4
        assert abs(curve.k - TRUE_K) / abs(TRUE_K) < 1e-4
        assert abs(curve.alpha - TRUE_ALPHA) / abs(TRUE_ALPHA) < 1e-4

    def test_flat_data_degenerate(self):
        obs = [MixObservation(x, 2.0, "flat") for x in XS]
        curve = fit_power_law(obs)
        for x in XS:
            assert abs(predict_loss(curve, x) - 2.0) < 1e-6

    def test_noisy_recovery_and_grid_oracle(self):
        obs = synthetic_obs(noise_sigma=0.002, seed=4)
        curve = fit_power_law(obs)
        assert abs(curve.c - TRUE_C) / abs(TRUE_C) < 0.02
        assert abs(curve.k - TRUE_K) / abs(TRUE_K) < 0.02
        assert abs(curve.alpha - TRUE_ALPHA) / abs(TRUE_ALPHA) < 0.02
        assert curve.rmse <= grid_oracle_best_rmse(obs) + 1e-15

    def test_order_invariant(self):
        obs = synthetic_obs(noise_sigma=0.002, seed=8)
        a = fit_power_law(obs)
        b = fit_power_law(list(reversed(obs)))
        assert a == b

    def test_too_few_points(self):
        with pytest.raises(ScalingError):
            fit_power_law(synthetic_obs()[:3])

    def test_identical_x_unidentifiable(self):
        obs = [MixObservation(0.3, 1.0 + i * 0.01, "b") for i in range(5)]
        with pytest.raises(ScalingError, match="distinct"):
            fit_power_law(obs)

    def test_benchmark_filter(self):
        mixed = synthetic_obs() + [MixObservation(x, 9.0, "other") for x in XS]
        curve = fit_power_law(mixed, benchmark="bench")
        assert curve.benchmark == "bench"
        with pytest.raises(ScalingError, match="multiple"):
            fit_power_law(mixed)

    def test_observation_validation(self):
        with pytest.raises(ScalingError):
            MixObservation(1.5, 1.0, "b")
        with pytest.raises(ScalingError):
            MixObservation(0.5, -1.0, "b")


class TestPredictLoss:
    def test_k_zero(self):
        curve = ScalingCurve(1.0, 0.0, 0.5, 0.0, "b")
        assert predict_loss(curve, 0.3) == 1.0

    def test_linear_identity(self):
        curve = ScalingCurve(0.0, 1.0, 1.0, 0.0, "b")
        assert predict_loss(curve, 0.36) == 0.36

    def test_matches_high_precision(self):
        from decimal import Decimal, getcontext
        getcontext().prec = 50
        curve = ScalingCurve(TRUE_C, TRUE_K, TRUE_ALPHA, 0.0, "b")
        expected = float(Decimal("0.55") + Decimal("0.75")
                         * Decimal(str(math.exp(TRUE_ALPHA * math.log(0.2)))))
        assert abs(predict_loss(curve, 0.2) - expected) < 1e-12

    def test_domain_error_at_zero_with_negative_alpha(self):
        curve = ScalingCurve(1.0, 1.0, -0.5, 0.0, "b")
        with pytest.raises(ScalingError):
            predict_loss(curve, 0.0)

    def test_monotone_decreasing_when_k_pos_alpha_neg(self):
        curve = ScalingCurve(TRUE_C, TRUE_K, TRUE_ALPHA, 0.0, "b")
        values = [predict_loss(curve, x) for x in np.linspace(0.01, 1.0, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))


def opposing_curves(x_star=0.36):
    """Decreasing power curve plus a linear increasing curve whose summed
    derivative vanishes exactly at x_star (closed-form calculus oracle:
    k2 = -k1*a1*x*^(a1-1) for the linear term's slope)."""
    k2 = -TRUE_K * TRUE_ALPHA * x_star ** (TRUE_ALPHA - 1.0)
    agent = ScalingCurve(TRUE_C, TRUE_K, TRUE_ALPHA, 0.0, "agent_bench")
    general = ScalingCurve(1.0, k2, 1.0, 0.0, "mmlu")
    return [agent, general]


class TestOptimalMixRatio:
    def test_monotone_single_curve_hits_upper_bound(self):
        curve = ScalingCurve(TRUE_C, TRUE_K, TRUE_ALPHA, 0.0, "b")
        x_star, _ = optimal_mix_ratio([curve], [1.0], (0.05, 0.6), 0.01)
        assert abs(x_star - 0.6) < 1e-6

    def test_interior_optimum_at_036(self):
        x_star, loss = optimal_mix_ratio(opposing_curves(), [1.0, 1.0],
                                         (0.05, 0.6), 0.001)
        assert abs(x_star - 0.36) < 1e-4
        assert loss > 0

    def test_weight_rescaling_invariant(self):
        curves = opposing_curves()
        a, _ = optimal_mix_ratio(curves, [1.0, 1.0], (0.05, 0.6), 0.001)
        b, _ = optimal_mix_ratio(curves, [17.0, 17.0], (0.05, 0.6), 0.001)
        assert abs(a - b) < 1e-9

    def test_validation(self):
        with pytest.raises(ScalingError):
            optimal_mix_ratio([], [], (0.05, 0.6), 0.01)
        curves = opposing_curves()
        with pytest.raises(ScalingError):
            optimal_mix_ratio(curves, [1.0], (0.05, 0.6), 0.01)
        with pytest.raises(ScalingError):
            optimal_mix_ratio(curves, [1.0, 1.0], (0.05, 0.6), 0.5)
        with pytest.raises(ScalingError):
            optimal_mix_ratio(curves, [1.0, -1.0], (0.05, 0.6), 0.01)


class TestComputeBudget:
    def test_lower_bracket(self):
        tokens, flops = compute_budget(BudgetSpec(model_params=45_000_000))
        assert tokens == 2_250_000_000
        assert flops == pytest.approx(6.075e17)
        assert 1e17 <= flops < 1e18  # same order as the quoted lower bound

    def test_upper_bracket(self):
        tokens, flops = compute_budget(BudgetSpec(model_params=650_000_000))
        assert tokens == 32_500_000_000
        assert flops == pytest.approx(1.2675e20)
        assert 1e20 <= flops < 1e21

    def test_positivity_enforced(self):
        with pytest.raises(ScalingError):
            BudgetSpec(model_params=45_000_000, token_multiplier=0)


class TestObservationsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        lines = [json.dumps({"x": x, "loss": TRUE_C + TRUE_K * x ** TRUE_ALPHA,
                             "benchmark": "bench"}) for x in XS]
        path.write_text("\n".join(lines) + "\n")
        obs = load_observations(str(path))
        assert len(obs) == len(XS)
        curve = fit_power_law(obs)
        assert abs(curve.alpha - TRUE_ALPHA) < 1e-4

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"x": 0.1}\n')
        with pytest.raises(ScalingError, match=":1:"):
            load_observations(str(path))

    def test_out_of_range_x_names_line(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"x": 0.5, "loss": 1.0, "benchmark": "b"}\n'
                        '{"x": 2, "loss": 1.0, "benchmark": "b"}\n')
        with pytest.raises(ScalingError, match=r"obs\.jsonl:2: .*\[0, 1\]"):
            load_observations(str(path))

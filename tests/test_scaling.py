import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from corpusforge.scaling import (
    ALPHA_GRID_HI,
    ALPHA_GRID_LO,
    ALPHA_GRID_STEP,
    ALPHA_REFINE_TOL,
    BudgetSpec,
    MixObservation,
    ScalingCurve,
    ScalingError,
    X_MIN_REL_SPREAD,
    _golden_section,
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


def lstsq_fit(x, y, alpha):
    """(c, k, sse) of c + k * x**alpha from LAPACK's lstsq at one alpha;
    sse is inf where x**alpha overflows."""
    with np.errstate(over="ignore"):
        u = np.power(x, alpha)
    if not np.isfinite(u).all():
        return math.nan, math.nan, math.inf
    design = np.column_stack([np.ones_like(u), u])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def grid_oracle_best_rmse(obs, step=1e-3):
    """Brute-force alpha grid with exactly optimal (c, k) at each point."""
    x = np.array([o.x for o in obs])
    y = np.array([o.loss for o in obs])
    best = math.inf
    alpha = -2.0
    while alpha <= 2.0 + step / 2:
        if abs(alpha) > step / 2:
            _, _, sse = lstsq_fit(x, y, alpha)
            best = min(best, math.sqrt(sse / len(obs)))
        alpha += step
    return best


def reference_fit_power_law(obs):
    """fit_power_law of one benchmark's observations as a per-point loop:
    lstsq at every grid alpha, the first strict minimum wins, then the
    same golden-section refinement."""
    obs = sorted((o for o in obs if o.x > 0.0), key=lambda o: (o.x, o.loss))
    x = np.array([o.x for o in obs], dtype=np.float64)
    y = np.array([o.loss for o in obs], dtype=np.float64)
    grid = np.arange(ALPHA_GRID_LO, ALPHA_GRID_HI + ALPHA_GRID_STEP / 2,
                     ALPHA_GRID_STEP)
    grid = grid[np.abs(grid) > ALPHA_GRID_STEP / 2]
    best_alpha, best_sse = None, math.inf
    for alpha in grid:
        _, _, sse = lstsq_fit(x, y, alpha)
        if sse < best_sse:
            best_alpha, best_sse = float(alpha), sse
    alpha = _golden_section(lambda a: lstsq_fit(x, y, a)[2],
                            best_alpha - ALPHA_GRID_STEP,
                            best_alpha + ALPHA_GRID_STEP, ALPHA_REFINE_TOL)
    c, k, sse = lstsq_fit(x, y, alpha)
    if sse > best_sse:
        alpha = best_alpha
        c, k, sse = lstsq_fit(x, y, alpha)
    return ScalingCurve(c, k, alpha, math.sqrt(sse / len(obs)),
                        obs[0].benchmark)


def curve_sse(curve, obs):
    """Sum of squared residuals of the curve, at its own float c, k and
    alpha, on the observations, computed in 60-digit decimal: in float64,
    c + k * x**alpha can cancel most of its digits near alpha = 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        c, k, alpha = (decimal.Decimal(v)
                       for v in (curve.c, curve.k, curve.alpha))
        return float(sum((decimal.Decimal(o.loss) - c
                          - k * decimal.Decimal(o.x) ** alpha) ** 2
                         for o in obs))


@st.composite
def observation_sets(draw):
    """4 to 40 observations of c + k * x**alpha plus noise, shifted so
    every loss is positive: exact (noise 0) or noisy up to 0.1, repeated
    and nearly repeated x values, k of either sign, true alpha anywhere
    in the grid and often near its ends or near zero, and flat losses."""
    n = draw(st.integers(4, 40))
    if draw(st.booleans()):
        distinct = draw(st.lists(st.floats(1e-3, 1.0), min_size=3,
                                 max_size=n, unique=True))
    else:  # x values within a relative spread of 1e-9 to 0.1
        x0, spread = draw(st.floats(1e-3, 0.5)), 10.0 ** draw(st.floats(-9, -1))
        distinct = sorted({x0 * (1.0 + spread * f) for f in draw(
            st.lists(st.floats(0.0, 1.0), min_size=3, max_size=n))})
        assume(len(distinct) >= 3)
    xs = distinct + draw(st.lists(st.sampled_from(distinct),
                                  min_size=n - len(distinct),
                                  max_size=n - len(distinct)))
    alpha = draw(st.floats(-2.0, 2.0) | st.floats(-2.025, -1.975)
                 | st.floats(1.975, 2.025) | st.floats(-0.002, 0.002))
    k = draw(st.floats(-2.0, 2.0))
    if draw(st.booleans()):
        noise = 0.0
    else:
        noise = 10.0 ** draw(st.floats(-12.0, -1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.array(xs)
    if draw(st.integers(0, 9)) == 0:  # flat
        y = np.full(n, 1.0)
    else:
        y = k * x ** alpha + rng.normal(0.0, noise, n)
    y += draw(st.floats(0.05, 3.0)) - y.min()
    return [MixObservation(float(a), float(b), "b") for a, b in zip(x, y)]


class TestGridScanOracle:
    @settings(deadline=None)  # the reference makes 4,000 lstsq calls
    @given(observation_sets())
    @example([MixObservation(x, 2.0, "flat") for x in XS])
    @example([MixObservation(x, 0.48975639698214657, "flat")
              for x in [0.5] * 32 + [0.525, 0.55]])
    @example([MixObservation(x, y, "b") for x, y in [
        (0.5, 1.0257835084384697), (0.5, 1.0),
        (0.5000001, 1.0772527513734584), (0.50000005, 1.0237004980444342)]])
    def test_matches_per_point_lstsq(self, obs):
        xs = [o.x for o in obs]
        if max(xs) - min(xs) < X_MIN_REL_SPREAD * max(xs):
            with pytest.raises(ScalingError, match="spread"):
                fit_power_law(obs)
            return
        # Both solve the same least-squares problems by different
        # arithmetic, so the fitted curve's exact SSE may not exceed the
        # lstsq reference's by more than rounding.
        got, expected = fit_power_law(obs), reference_fit_power_law(obs)
        y = np.array([o.loss for o in obs])
        assert curve_sse(got, obs) <= curve_sse(expected, obs) + 1e-13 * (y @ y)

    # x spreads 3.1e-6 of the largest, just above X_MIN_REL_SPREAD. The
    # lstsq reference refines to alpha -0.00049 with c ~ 2.97e6 and
    # k ~ -2.97e6, where c + k * x**alpha cancels about six digits in
    # float64: its float SSE reads 1.3e-11 below that of the fit's
    # alpha = -2, but exactly it is 6.5e-12 above.
    def test_narrow_spread_near_zero_alpha(self):
        points = [
            (0.46875, 1.015540636040496),
            (0.46875063403821493, 1.0020709665168803),
            (0.46875064851397324, 1.0153626713495456),
            (0.4687507411588266, 1.0330009323369054),
            (0.46875083380367993, 1.0349220262310777),
            (0.4687509264485332, 1.0),
            (0.46875097277095995, 1.0156376630810027),
            (0.4687513201891599, 1.01913030163832),
            (0.46875147073704654, 1.0116941327148585),
            (0.46875063403821493, 1.025642334276117),
            (0.46875064851397324, 1.0305877845175693),
            (0.46875147073704654, 1.0283762676275685),
            (0.4687507411588266, 1.0108110217942703),
            (0.4687513201891599, 1.0288951922015417)]
        self.test_matches_per_point_lstsq.hypothesis.inner_test(
            self, [MixObservation(x, y, "b") for x, y in points])


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

    @pytest.mark.parametrize("xs", [
        [0.5, 0.5, 0.5000001, 0.50000005],
        [0.001, 0.001 * (1 + 5e-7), 0.001 * (1 + 9e-7), 0.001]])
    def test_degenerate_x_spread_rejected(self, xs):
        # x values within a relative 2e-7 (or 9e-7) of each other used to
        # be fitted, with |k| above 6e8 (or 2e10).
        ys = [1.0257835084384697, 1.0, 1.0772527513734584, 1.0237004980444342]
        obs = [MixObservation(x, y, "b") for x, y in zip(xs, ys)]
        with pytest.raises(ScalingError, match="spread"):
            fit_power_law(obs)

    def test_x_spread_just_above_minimum_fits(self):
        xs = [0.5, 0.5 * (1 + 2 * X_MIN_REL_SPREAD), 0.5 * (1 + X_MIN_REL_SPREAD),
              0.5]
        curve = fit_power_law([MixObservation(x, 1.0 + x, "b") for x in xs])
        assert math.isfinite(curve.rmse)

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

    @pytest.mark.parametrize("x,loss", [(0.5, math.nan), (0.5, math.inf),
                                        (math.nan, 1.0)])
    def test_non_finite_observation_rejected(self, x, loss):
        with pytest.raises(ScalingError):
            MixObservation(x, loss, "b")

    def test_overflowing_alphas_score_inf(self, capfd):
        # 1e-200 ** alpha overflows for every alpha below about -1.54.
        obs = synthetic_obs() + [MixObservation(1e-200, 3.0, "bench")]
        curve = fit_power_law(obs)
        assert math.isfinite(curve.c) and math.isfinite(curve.k)
        assert math.isfinite(1e-200 ** curve.alpha)
        assert curve.rmse <= grid_oracle_best_rmse(obs) + 1e-15
        assert capfd.readouterr().err == ""

    def test_no_finite_grid_alpha(self):
        # Losses near 1e200: every grid SSE overflows to inf.
        obs = [MixObservation(x, 1e200 * (1.0 + x * x), "b") for x in XS]
        with pytest.raises(ScalingError, match="finite"):
            fit_power_law(obs)


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

    # A NaN weight gave a NaN aggregate loss and an infinite one inf.
    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ScalingError, match="finite and positive"):
            optimal_mix_ratio(opposing_curves(), [1.0, weight], (0.05, 0.6),
                              0.01)

    # A NaN grid_step failed in np.arange with no ScalingError.
    @pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0])
    def test_grid_step_outside_range_rejected(self, step):
        with pytest.raises(ScalingError, match="grid_step"):
            optimal_mix_ratio(opposing_curves(), [1.0, 1.0], (0.05, 0.6), step)


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

    @pytest.mark.parametrize("loss", ["NaN", "Infinity"])
    def test_non_finite_loss_names_line(self, tmp_path, loss):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"x": 0.5, "loss": 1.0, "benchmark": "b"}\n'
                        f'{{"x": 0.6, "loss": {loss}, "benchmark": "b"}}\n')
        with pytest.raises(ScalingError, match=r"obs\.jsonl:2: .*finite"):
            load_observations(str(path))

    def test_out_of_range_x_names_line(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        path.write_text('{"x": 0.5, "loss": 1.0, "benchmark": "b"}\n'
                        '{"x": 2, "loss": 1.0, "benchmark": "b"}\n')
        with pytest.raises(ScalingError, match=r"obs\.jsonl:2: .*\[0, 1\]"):
            load_observations(str(path))

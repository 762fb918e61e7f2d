"""Power-law fits of benchmark loss against the agent-data mixing ratio,
aggregate-loss minimization over the mixing ratio, and compute-budget
arithmetic for the small-model sweeps.

The fitted form is loss(x) = c + k * x**alpha. A single curve of this
form is monotone, so an interior optimum only ever comes from aggregating
opposing curves (agent benchmarks improving with x, general benchmarks
degrading); optimal_mix_ratio minimizes a weighted sum of curves.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import convert, read_json, read_jsonl

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

ALPHA_GRID_LO = -2.0
ALPHA_GRID_HI = 2.0
ALPHA_GRID_STEP = 1e-3
ALPHA_REFINE_TOL = 1e-6
# _least_squares works on blocks of about this many (alpha, observation)
# elements, so its temporaries stay small.
ALPHA_SCAN_BLOCK = 1 << 16
# Smallest accepted (max x - min x) / max x. Only the curvature of x**alpha
# across the x values tells alpha apart from c and k, and it is of
# relative order spread**2: under 1e-12 of the values below this spread,
# a few thousand roundings, so the fit would follow rounding error (|c|
# and |k| above 1e8 for x = 0.5 .. 0.5000001).
X_MIN_REL_SPREAD = 1e-6


class ScalingError(Exception):
    pass


@dataclass(frozen=True)
class MixObservation:
    x: float
    loss: float
    benchmark: str

    def __post_init__(self):
        if not 0.0 <= self.x <= 1.0:
            raise ScalingError(f"mixing ratio x must be in [0, 1], got {self.x}")
        if not 0.0 < self.loss < math.inf:
            raise ScalingError(f"loss must be positive and finite, got {self.loss}")


@dataclass(frozen=True)
class ScalingCurve:
    c: float
    k: float
    alpha: float
    rmse: float
    benchmark: str


@dataclass(frozen=True)
class BudgetSpec:
    model_params: int
    token_multiplier: float = 50.0
    flops_per_param_token: float = 6.0

    def __post_init__(self):
        if self.model_params <= 0 or self.token_multiplier <= 0 \
                or self.flops_per_param_token <= 0:
            raise ScalingError("budget parameters must be positive")


def _least_squares(x, y, alphas):
    """Least-squares (c, k) of c + k * x**alpha and its SSE at each alpha.

    The 2x2 normal equations in centered form, with u = x**alpha:
    k = sum(uc * yc) / sum(uc**2) and c = mean(y) - k * mean(u), where uc
    and yc are u and y less their means. Sums run in numpy's own loops,
    not in BLAS or LAPACK. An alpha at which x**alpha overflows, or whose
    column is constant, has SSE +inf.
    """
    per_block = max(1, ALPHA_SCAN_BLOCK // len(x))
    y_mean = y.mean()
    yc = y - y_mean
    c, k, sse = (np.empty(len(alphas)) for _ in range(3))
    with np.errstate(all="ignore"):
        for start in range(0, len(alphas), per_block):
            block = slice(start, start + per_block)
            u = np.power(x, alphas[block, None])
            u_mean = u.mean(axis=1)
            u -= u_mean[:, None]
            k[block] = (np.einsum("ij,j->i", u, yc)
                        / np.einsum("ij,ij->i", u, u))
            c[block] = y_mean - k[block] * u_mean
            resid = yc - k[block, None] * u
            sse[block] = np.einsum("ij,ij->i", resid, resid)
    sse[~np.isfinite(sse)] = math.inf
    return c, k, sse


def fit_power_law(obs, benchmark: str | None = None) -> ScalingCurve:
    """Least-squares fit of c + k * x**alpha to one benchmark's observations.

    Method: dense grid over alpha (zero excluded: alpha = 0 is degenerate
    with c), then golden-section refinement of alpha around the best grid
    point (the first on ties). The grid, every refinement step and the
    final (c, k) all come from one closed-form method, _least_squares,
    with no BLAS or LAPACK call. An alpha at which some x**alpha overflows
    has SSE +inf; if no grid alpha has a finite SSE, ScalingError. So are
    fewer than 3 distinct x values, or x values whose spread is under
    X_MIN_REL_SPREAD of the largest. Deterministic.
    """
    obs = list(obs)
    if benchmark is not None:
        obs = [o for o in obs if o.benchmark == benchmark]
    obs = [o for o in obs if o.x > 0.0]  # x = 0 cannot constrain alpha
    if len(obs) < 4:
        raise ScalingError(f"need at least 4 observations with x > 0, got {len(obs)}")
    names = {o.benchmark for o in obs}
    if len(names) > 1:
        raise ScalingError(f"observations span multiple benchmarks: {sorted(names)}")
    obs.sort(key=lambda o: (o.x, o.loss))  # exact order invariance
    x = np.array([o.x for o in obs], dtype=np.float64)
    y = np.array([o.loss for o in obs], dtype=np.float64)
    if len(np.unique(x)) < 3:
        raise ScalingError("need >= 3 distinct x values (alpha unidentifiable)")
    if x[-1] - x[0] < X_MIN_REL_SPREAD * x[-1]:
        raise ScalingError(f"x values {x[0]!r} .. {x[-1]!r} spread less than "
                           f"{X_MIN_REL_SPREAD:g} of the largest "
                           "(alpha unidentifiable)")

    grid = np.arange(ALPHA_GRID_LO, ALPHA_GRID_HI + ALPHA_GRID_STEP / 2,
                     ALPHA_GRID_STEP)
    grid = grid[np.abs(grid) > ALPHA_GRID_STEP / 2]

    sse = _least_squares(x, y, grid)[2]
    best = int(np.argmin(sse))
    if sse[best] == math.inf:
        raise ScalingError("no alpha in the grid gives a finite least-squares fit")
    best_alpha, best_sse = float(grid[best]), float(sse[best])

    def fit_at(alpha):
        return [float(v[0]) for v in _least_squares(x, y, np.array([alpha]))]

    alpha = _golden_section(lambda a: fit_at(a)[2],
                            best_alpha - ALPHA_GRID_STEP,
                            best_alpha + ALPHA_GRID_STEP, ALPHA_REFINE_TOL)
    c, k, sse = fit_at(alpha)
    if sse > best_sse:  # refinement must never lose to its own grid point
        alpha = best_alpha
        c, k, sse = fit_at(alpha)
    rmse = math.sqrt(sse / len(obs))
    return ScalingCurve(c, k, alpha, rmse, obs[0].benchmark)


def _golden_section(fn, lo, hi, tol):
    """Golden-section minimization of a unimodal scalar function."""
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = fn(x2)
    return (a + b) / 2.0


def predict_loss(curve: ScalingCurve, x: float) -> float:
    if x <= 0.0 and curve.alpha < 0.0:
        raise ScalingError(f"x = {x} is outside the curve's domain (alpha < 0)")
    if x < 0.0:
        raise ScalingError(f"mixing ratio must be non-negative, got {x}")
    return curve.c + curve.k * x ** curve.alpha


def optimal_mix_ratio(curves, weights, domain=(0.05, 0.6),
                      grid_step=1e-3):
    """Minimize the weighted sum of curve losses over the mixing ratio.

    Grid argmin over [lo, hi] followed by golden-section refinement
    between the grid neighbors; exact ties resolve to the smallest x.
    Returns (x_star, aggregate_loss).
    """
    curves = list(curves)
    weights = [float(w) for w in weights]
    if not curves:
        raise ScalingError("no curves to optimize over")
    if len(weights) != len(curves):
        raise ScalingError(f"{len(weights)} weights for {len(curves)} curves")
    if not all(0 < w < math.inf for w in weights):  # false for NaN too
        raise ScalingError(f"weights must be finite and positive, got {weights}")
    lo, hi = domain
    if not (0.0 < lo < hi <= 1.0):
        raise ScalingError(f"domain must satisfy 0 < lo < hi <= 1, got {domain}")
    if not 0 < grid_step <= (hi - lo) / 10:
        raise ScalingError(f"grid_step must be in (0, (hi-lo)/10], got {grid_step}")

    def aggregate(x):
        return sum(w * predict_loss(curve, x) for curve, w in zip(curves, weights))

    xs = np.arange(lo, hi + grid_step / 2, grid_step)
    xs[-1] = min(xs[-1], hi)
    values = [aggregate(float(x)) for x in xs]
    best = min(range(len(xs)), key=lambda i: (values[i], xs[i]))

    bracket_lo = float(xs[max(best - 1, 0)])
    bracket_hi = float(xs[min(best + 1, len(xs) - 1)])
    x_star = _golden_section(aggregate, bracket_lo, bracket_hi, 1e-9)
    if aggregate(x_star) > values[best]:
        x_star = float(xs[best])
    return x_star, aggregate(x_star)


def compute_budget(spec: BudgetSpec):
    """Token and FLOPs budget for one sampling model: D = m*N, F = 6*N*D."""
    tokens = round(spec.token_multiplier * spec.model_params)
    flops = spec.flops_per_param_token * spec.model_params * tokens
    return tokens, flops


def load_observations(path: str) -> list:
    return list(read_jsonl(path, lambda o, _: MixObservation(
        convert(float, o["x"]), convert(float, o["loss"]),
        convert(str, o["benchmark"])), ScalingError))


def load_curve(path: str) -> ScalingCurve:
    """The ScalingCurve of a fit report (what the `fit` stage writes)."""
    return read_json(path, lambda o: ScalingCurve(
        convert(float, o["c"]), convert(float, o["k"]),
        convert(float, o["alpha"]), convert(float, o.get("rmse", 0.0)),
        convert(str, o.get("benchmark", ""))), ScalingError)

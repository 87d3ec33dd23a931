"""Built-in verification battery, runnable from the CLI without pytest.

Covers the evader's closed-form minimizer through the functions that step
the evader (including the two canonical three-pursuer cases), gradient
correctness of the network backward pass on a two-agent stack and a batch
of rows (the layout every learner update runs), the velocity schedule
arithmetic, the encirclement inner-minimum identity against a dense grid,
and the mutual-information estimator oracles. Includes a negative control:
the gradient checker must flag a deliberately corrupted backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curriculum import VelocitySchedule, velocity_at_epoch
from .environment import WorldState, make_state
from .evader import contact_headings, evade_heading
from .geometry import normalize_angle
from .metrics import mutual_information_bits
from .nn import MlpParams, backward, forward, mlp_init
from .pursuit import pincer_objective


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def angular_difference(a: float, b: float) -> float:
    return abs(normalize_angle(a - b))


# The two canonical three-pursuer cases: a label, the evader-to-pursuer
# bearings, and the escape heading they must give.
EVADER_CASES = (
    ("bearings {0, pi/2, pi}", (0.0, math.pi / 2, math.pi), -math.pi / 2),
    ("bearings {0, pi/2, -pi/2}", (0.0, math.pi / 2, -math.pi / 2), math.pi),
)


def surround(bearing_sets: Sequence[Sequence[float]]) -> WorldState:
    """One episode per set of bearings: its pursuers sit 0.25 from an evader
    at (0.5, 0.5), at those evader-to-pursuer bearings. Every coordinate and
    offset of the canonical cases is then an exact dyadic."""
    pursuers = [[(0.5 + 0.25 * math.cos(b), 0.5 + 0.25 * math.sin(b)) for b in bearings]
                for bearings in bearing_sets]
    return make_state(pursuers, [(0.5, 0.5)] * len(pursuers))


def evader_cases() -> list[tuple[str, float, float, bool]]:
    """(label, heading, wanted heading, passed) of each canonical case, with
    the headings that `evade_heading` steps the evader along."""
    state = surround([bearings for _, bearings, _ in EVADER_CASES])
    headings = evade_heading(state, np.random.default_rng(0)).tolist()
    return [
        (label, got, want, angular_difference(got, want) < 1e-9)
        for (label, _, want), got in zip(EVADER_CASES, headings)
    ]


def check_evader_cases() -> CheckResult:
    (_, h1, _, ok1), (_, h2, _, ok2) = evader_cases()
    detail = f"case1 -> {h1:.6f} (want -pi/2), case2 -> {h2:.6f} (want +-pi)"
    return CheckResult("evader-unit-cases", ok1 and ok2, detail)


def _potential(rs: np.ndarray, bs: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Escape potential sum_i cos(theta - b_i) / r_i at each heading theta."""
    return ((1.0 / rs)[:, None] * np.cos(thetas[None, :] - bs[:, None])).sum(axis=0)


def check_evader_optimality(n_sets: int = 200, grid: int = 10_000) -> CheckResult:
    rng = np.random.default_rng(1)
    thetas = np.linspace(-math.pi, math.pi, grid, endpoint=False)
    worst = 0.0
    for _ in range(n_sets):
        k = int(rng.integers(1, 6))
        contacts = [(rng.uniform(0.2, 0.7), rng.uniform(-math.pi, math.pi)) for _ in range(k)]
        rs, bs = np.array(contacts).T
        h = contact_headings(rs.tolist(), bs.tolist(), k, rng)
        worst = max(worst, float(_potential(rs, bs, h)[0] - _potential(rs, bs, thetas).min()))
    return CheckResult(
        "evader-closed-form-optimality", worst <= 1e-9, f"max excess over grid min {worst:.2e}"
    )


def check_pincer_inner_minimum(n_states: int = 200, grid: int = 32_768) -> CheckResult:
    rng = np.random.default_rng(2)
    thetas = np.linspace(-math.pi, math.pi, grid, endpoint=False)
    worst = 0.0
    for _ in range(n_states):
        k = int(rng.integers(1, 5))
        rs = rng.uniform(0.05, 1.4, size=k)
        bs = rng.uniform(-math.pi, math.pi, size=k)
        replicas = [(r * math.cos(b), r * math.sin(b)) for r, b in zip(rs, bs)]
        closed = pincer_objective(replicas, (0.0, 0.0))
        worst = max(worst, abs(closed - float(_potential(rs, bs, thetas).min())))
    return CheckResult(
        "pincer-inner-minimum", worst <= 1e-6, f"max |closed - grid| = {worst:.2e}"
    )


def directional_gradient_check(
    scalar_fn: Callable[[np.ndarray], float],
    gradient: np.ndarray,
    point: np.ndarray,
    rng: np.random.Generator,
    probes: int = 20,
    h: float = 1e-5,
) -> float:
    """Worst relative error between analytic and central-difference slopes."""
    worst = 0.0
    for _ in range(probes):
        v = rng.standard_normal(point.shape)
        v /= np.linalg.norm(v)
        analytic = float(np.vdot(gradient, v))
        numeric = (scalar_fn(point + h * v) - scalar_fn(point - h * v)) / (2 * h)
        scale = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / scale)
    return worst


def check_network_gradients(perturb: bool = False) -> CheckResult:
    """Backward-vs-finite-difference agreement on a small representative
    two-agent stack, run on a (2, rows, in) batch as every update runs it.

    With perturb=True the analytic gradient is deliberately corrupted; the
    check then PASSES only if the mismatch is detected (negative control).
    """
    rng = np.random.default_rng(3)
    sizes = (5, 16, 16, 2)
    params = MlpParams(np.stack([mlp_init(sizes, rng) for _ in range(2)]), sizes)
    x = rng.standard_normal((2, 4, sizes[0]))
    gy = rng.standard_normal((2, 4, sizes[-1]))
    _, cache = forward(params, x)
    grads, _ = backward(params, cache, gy)
    if perturb:
        grads = grads + 0.05 * np.abs(grads).max() + 0.01

    point = params.flat.copy()

    def loss(flat: np.ndarray) -> float:
        params.flat[...] = flat
        y, _ = forward(params, x)
        return float(np.vdot(y, gy))

    worst = directional_gradient_check(loss, grads, point, rng)
    if perturb:
        return CheckResult(
            "gradient-check-negative-control",
            worst > 1e-4,
            f"corrupted gradient error {worst:.2e} (must be detected)",
        )
    return CheckResult("network-gradients", worst < 1e-4, f"max relative error {worst:.2e}")


def check_velocity_schedule() -> CheckResult:
    schedule = VelocitySchedule(1.2, 0.4, 15_000)
    probes = {0: 1.2, 7_500: 0.8, 15_000: 0.4, 22_500: 0.4}
    worst = max(abs(velocity_at_epoch(schedule, i) - v) for i, v in probes.items())
    return CheckResult("velocity-schedule", worst <= 1e-12, f"max deviation {worst:.2e}")


def check_mi_estimator() -> CheckResult:
    rng = np.random.default_rng(4)
    bins = 16
    # independent uniform: plug-in bias only
    a = rng.integers(0, bins, size=50_000)
    b = rng.integers(0, bins, size=50_000)
    counts = np.zeros((bins, bins), dtype=np.int64)
    np.add.at(counts, (a, b), 1)
    mi_indep = mutual_information_bits(counts)
    # deterministic copy with uniform marginals
    copy_counts = np.diag(np.full(bins, 100, dtype=np.int64))
    mi_copy = mutual_information_bits(copy_counts)
    # hand table vs direct summation
    hand = np.array([[40, 10], [10, 40]], dtype=np.int64)
    mi_hand = mutual_information_bits(hand)
    direct = 0.0
    n = hand.sum()
    for i in range(2):
        for j in range(2):
            p = hand[i, j] / n
            direct += p * math.log2(p / ((hand[i].sum() / n) * (hand[:, j].sum() / n)))
    ok = mi_indep < 0.05 and abs(mi_copy - 4.0) < 1e-9 and abs(mi_hand - direct) < 1e-12
    return CheckResult(
        "mi-estimator",
        ok,
        f"independent {mi_indep:.4f} bits, copy {mi_copy:.4f} bits, "
        f"hand-table delta {abs(mi_hand - direct):.2e}",
    )


def run_selfcheck() -> tuple[bool, list[CheckResult]]:
    checks = [
        check_evader_cases(),
        check_evader_optimality(),
        check_pincer_inner_minimum(),
        check_network_gradients(),
        check_network_gradients(perturb=True),
        check_velocity_schedule(),
        check_mi_estimator(),
    ]
    return all(c.passed for c in checks), checks

"""Coordination metrics: binning, mutual information, capture statistics."""

import math

import numpy as np
import pytest

from torus_pursuit.metrics import (
    _step_pair_bins,
    capture_angle_histogram,
    capture_success_rate,
    high_influence_fraction,
    high_influence_share,
    ic_report,
    instantaneous_coordination,
    mutual_information_bits,
)


def bin_center(idx, bins=16):
    width = 2 * math.pi / bins
    return -math.pi + (idx + 0.5) * width


def bins_of(thetas, bins):
    """Bin of each heading, as the estimator bins it: the log steps agent 0
    through the headings, so its bins at t are theirs."""
    log = np.zeros((len(thetas) + 1, 2))
    log[:-1, 0] = thetas
    now, _ = _step_pair_bins([log], bins)
    return now[:, 0].tolist()


def pointwise_bits(joint):
    """Pointwise value log2 p(a, b) / (p(a) p(b)) of every observed cell, with
    the cell's count."""
    n = joint.sum()
    rows, cols = np.nonzero(joint)
    p_a = joint.sum(axis=1)[rows] / n
    p_b = joint.sum(axis=0)[cols] / n
    return np.log2(joint[rows, cols] / n / (p_a * p_b)), joint[rows, cols]


def copy_log(bins, per_bin):
    """Agent 1 repeats agent 0's previous bin-centre heading; each of the
    `bins` bins occurs `per_bin` times among the (0 at t, 1 at t+1) pairs."""
    headings = np.array([bin_center(t % bins, bins) for t in range(bins * per_bin + 1)])
    return np.stack([headings, np.roll(headings, 1)], axis=1)


class TestDiscretize:
    def test_edges_and_midpoint(self):
        assert bins_of([-math.pi], 16) == [0]
        assert bins_of([0.0], 16) == [8]
        assert bins_of([math.pi - 1e-9], 16) == [15]

    def test_right_edge_clamps(self):
        assert bins_of([math.pi], 16) == [15]

    def test_invalid(self):
        with pytest.raises(ValueError):
            bins_of([0.0], 1)
        with pytest.raises(ValueError):
            bins_of([float("nan")], 16)

    @pytest.mark.parametrize("bins", [1, 0, -4])
    def test_fewer_than_two_bins_rejected(self, bins):
        logs = [np.zeros((5, 3))]
        with pytest.raises(ValueError, match=f"need at least 2 bins, got {bins}"):
            instantaneous_coordination(logs, 0, 1, bins)
        with pytest.raises(ValueError, match="need at least 2 bins"):
            high_influence_fraction(logs, 0, 1, bins)
        with pytest.raises(ValueError, match="need at least 2 bins"):
            ic_report(logs, 3, bins)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_heading_rejected(self, bad):
        logs = [np.zeros((5, 3)), np.zeros((4, 3))]
        logs[1][2, 1] = bad
        with pytest.raises(ValueError, match="non-finite heading"):
            instantaneous_coordination(logs, 0, 2, 16)
        with pytest.raises(ValueError, match="non-finite heading"):
            high_influence_fraction(logs, 0, 2, 16)
        with pytest.raises(ValueError, match="non-finite heading"):
            ic_report(logs, 3, 16)

    def test_uniform_partition(self):
        # probe mid-interval points so float rounding at bin edges cannot bite
        for b in (2, 8, 16, 36):
            step = 2 * math.pi / (b * 100)
            probes = [-math.pi + (i + 0.5) * step for i in range(b * 100)]
            assert np.bincount(bins_of(probes, b), minlength=b).tolist() == [100] * b


class TestMutualInformation:
    def test_independent_product_table_is_zero(self):
        row = np.array([10, 20, 30, 40])
        col = np.array([25, 25, 25, 25])
        joint = np.outer(row, col)  # exactly product form
        mi = mutual_information_bits(joint)
        assert mi == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_copy_uniform_marginals(self):
        joint = np.diag(np.full(16, 50, dtype=np.int64))
        mi = mutual_information_bits(joint)
        assert mi == pytest.approx(4.0, abs=1e-12)

    def test_hand_table_matches_direct_summation(self):
        joint = np.array([[40, 10], [10, 40]], dtype=np.int64)
        # independent direct-summation oracle
        n = joint.sum()
        direct = 0.0
        for i in range(2):
            for j in range(2):
                p = joint[i, j] / n
                pi = joint[i].sum() / n
                pj = joint[:, j].sum() / n
                direct += p * math.log2(p / (pi * pj))
        mi = mutual_information_bits(joint)
        assert mi == pytest.approx(direct, abs=1e-12)

    def test_non_negative_and_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            b = int(rng.integers(2, 12))
            joint = rng.integers(0, 20, size=(b, b))
            if joint.sum() == 0:
                continue
            mi = mutual_information_bits(joint)
            assert -1e-12 <= mi <= math.log2(b) + 1e-12

    def test_symmetric_under_transpose(self):
        rng = np.random.default_rng(5)
        joint = rng.integers(0, 50, size=(8, 8))
        a = mutual_information_bits(joint)
        b = mutual_information_bits(joint.T)
        assert a == pytest.approx(b, abs=1e-12)

    def test_plug_in_bias_bound(self):
        rng = np.random.default_rng(7)
        n = 50_000
        a = rng.integers(0, 16, size=n)
        b = rng.integers(0, 16, size=n)
        joint = np.zeros((16, 16), dtype=np.int64)
        np.add.at(joint, (a, b), 1)
        mi = mutual_information_bits(joint)
        assert mi < 0.05

    def test_mean_pointwise_equals_plug_in(self):
        rng = np.random.default_rng(9)
        joint = rng.integers(0, 30, size=(6, 6))
        cells, counts = pointwise_bits(joint)
        assert float(np.mean(np.repeat(cells, counts))) == pytest.approx(
            mutual_information_bits(joint), abs=1e-12
        )


class TestTrajectoryPooling:
    def test_copycat_trajectories_hit_log2_bins(self):
        # agent 1 copies agent 0's previous action; marginals uniform over 16 bins
        mi = instantaneous_coordination([copy_log(16, 40)], 0, 1, bins=16)
        assert mi == pytest.approx(4.0, abs=0.01)

    def test_independent_actions_near_zero(self):
        rng = np.random.default_rng(11)
        logs = [rng.uniform(-math.pi, math.pi, size=(500, 2)) for _ in range(20)]
        mi = instantaneous_coordination(logs, 0, 1, bins=16)
        assert mi < 0.05

    def test_pairs_pool_within_trajectories_only(self):
        # two one-step trajectories contribute nothing; need length >= 2
        logs = [np.zeros((1, 2)), np.zeros((1, 2))]
        with pytest.raises(ValueError):
            instantaneous_coordination(logs, 0, 1, bins=4)

    def test_directional_pairing(self):
        # a_1^{t+1} copies a_0^t, so (0 -> 1) is high while (1 -> 0) is low
        rng = np.random.default_rng(13)
        steps = 2000
        base = rng.uniform(-math.pi, math.pi, size=steps)
        log = np.stack([base, np.roll(base, 1)], axis=1)
        forward_ic = instantaneous_coordination([log], 0, 1, bins=16)
        backward_ic = instantaneous_coordination([log], 1, 0, bins=16)
        assert forward_ic > 3.5
        assert backward_ic < 0.5


class TestHighInfluence:
    def test_degenerate_copy_gives_zero(self):
        assert high_influence_fraction([copy_log(16, 20)], 0, 1, bins=16) == 0.0

    def test_hand_table_fraction(self):
        joint = np.array([[40, 10], [10, 40]], dtype=np.int64)
        share = high_influence_share(joint)
        # direct enumeration: the 80 diagonal entries have pmi log2(1.6) > mean
        mean = mutual_information_bits(joint)
        diag_pmi = math.log2((40 / 100) / (0.5 * 0.5))
        off_pmi = math.log2((10 / 100) / (0.5 * 0.5))
        hand = (80 * (diag_pmi > mean) + 20 * (off_pmi > mean)) / 100
        assert share == pytest.approx(hand, abs=1e-12)
        assert share == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("bins", [3, 6, 11, 12])
    def test_balanced_copy_gives_exactly_zero(self, bins):
        # every pair sits at log2(bins) bits, so none is strictly above the
        # mean, though at these bin counts the rounded mean falls below them
        for per_bin in (5, 40):
            log = copy_log(bins, per_bin)
            assert high_influence_fraction([log], 0, 1, bins=bins) == 0.0
            pair = ic_report([log], 2, bins)[(0, 1)]
            assert pair["high_influence_fraction"] == 0.0
            assert pair["n_pairs"] == bins * per_bin
            assert pair["mi_bits"] == pytest.approx(math.log2(bins), abs=1e-12)

    def test_independent_band(self):
        rng = np.random.default_rng(17)
        logs = [rng.uniform(-math.pi, math.pi, size=(1000, 2)) for _ in range(10)]
        frac = high_influence_fraction(logs, 0, 1, bins=16)
        assert 0.2 <= frac <= 0.8


class TestCaptureAngles:
    def test_single_hot_bin_due_east(self):
        angles = [[0.0, 0.0, 0.0]] * 25
        hist = capture_angle_histogram(angles, 36)
        assert hist.n_captures == 25
        for p in range(3):
            assert hist.counts[p, 0] == 25
            assert hist.counts[p].sum() == 25
            assert hist.circular_variance[p] == pytest.approx(0.0, abs=1e-12)
            assert hist.circular_mean[p] == pytest.approx(0.0, abs=1e-12)

    def test_counts_sum_to_captures(self):
        rng = np.random.default_rng(19)
        angles = rng.uniform(0, 2 * math.pi, size=(100, 3))
        hist = capture_angle_histogram(angles.tolist(), 36)
        assert hist.counts.shape == (3, 36)
        assert np.all(hist.counts.sum(axis=1) == 100)

    def test_uniform_angles_roughly_flat(self):
        rng = np.random.default_rng(23)
        angles = rng.uniform(0, 2 * math.pi, size=(10_000, 1))
        hist = capture_angle_histogram(angles.tolist(), 8)
        counts = hist.counts[0]
        assert counts.max() / counts.min() < 2.0
        assert hist.circular_variance[0] > 0.9

    def test_empty_marker(self):
        hist = capture_angle_histogram([], 36)
        assert hist.empty and hist.n_captures == 0


class TestSuccessRate:
    def test_values(self):
        assert capture_success_rate([True] * 10) == 1.0
        assert capture_success_rate([False] * 10) == 0.0
        assert capture_success_rate([True] * 73 + [False] * 27) == pytest.approx(0.73)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            capture_success_rate([])

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptive_fbl.concurrent_learning import (
    HistoryStack,
    LearnerConfig,
    Record,
    stack_sigma_min,
    weight_update_derivative,
)
from adaptive_fbl.numerics import rk4_step

W_STAR = np.array([1.0, -1.0, 0.5])
P_BENCH = np.array([[1.025, 0.025], [0.025, 0.02625]])


def record_from_truth(phi, u, w_star=W_STAR):
    """Build a record as the disturbance-free training stage would."""
    phi = np.asarray(phi, dtype=float)
    xdot_n = float(w_star @ phi) + u
    return Record(phi, xdot_n, u)


def stack_of(records):
    stack = HistoryStack(len(records))
    for rec in records:
        stack.try_record(rec.phi, rec.xdot_n, rec.u)
    return stack


def record_sum(stack, w):
    """sum_j phi_j eps_j from the cached Gram matrix: gram . w - phi_rhs."""
    return np.array(stack.gram) @ w - np.array(stack.phi_rhs)


def direct_record_sum(stack, w):
    """sum_j phi_j eps_j with eps_j = w . phi_j - (xdot_n_j - u_j), record by record."""
    return sum(rec.phi * (float(w @ rec.phi) - (rec.xdot_n - rec.u)) for rec in stack.records)


class TestPredictionError:
    def test_ideal_weights_give_zero(self):
        rng = np.random.default_rng(0)
        stack = stack_of(
            [record_from_truth(rng.uniform(-1, 1, 3), rng.uniform(-2, 2)) for _ in range(10)]
        )
        np.testing.assert_allclose(record_sum(stack, W_STAR), np.zeros(3), atol=1e-12)

    def test_mismatched_estimate_at_origin(self):
        rec = record_from_truth([0.0, 0.0, 1.0], u=1.0)
        assert rec.xdot_n == 1.5
        # eps = 0.25, carried along phi = [0, 0, 1]
        w = np.array([0.5, -1.3, 0.75])
        np.testing.assert_allclose(record_sum(stack_of([rec]), w), [0.0, 0.0, 0.25], atol=1e-12)

    def test_linear_in_weight_error(self):
        rng = np.random.default_rng(1)
        stack = stack_of([record_from_truth(rng.uniform(-1, 1, 3), 0.3) for _ in range(4)])
        delta = rng.uniform(-1, 1, 3)
        e1 = record_sum(stack, W_STAR + delta)
        e2 = record_sum(stack, W_STAR + 2.0 * delta)
        np.testing.assert_allclose(e2, 2.0 * e1, atol=1e-12)

    def test_cached_sum_matches_record_by_record(self):
        rng = np.random.default_rng(3)
        stack = HistoryStack(6)
        for _ in range(40):
            stack.try_record(rng.uniform(-1, 1, 3), rng.uniform(-1, 1), rng.uniform(-1, 1))
            w = rng.uniform(-2, 2, 3)
            np.testing.assert_allclose(record_sum(stack, w), direct_record_sum(stack, w), atol=1e-12)


class TestWeightUpdateDerivative:
    def test_zero_error_empty_stack(self):
        wdot = weight_update_derivative(3.0, HistoryStack(5), np.array([0.5, -1.3, 0.75]), np.ones(3), np.zeros(2), P_BENCH)
        np.testing.assert_array_equal(wdot, np.zeros(3))

    def test_ideal_weights_quiescent(self):
        stack = HistoryStack(5)
        rng = np.random.default_rng(2)
        for _ in range(5):
            rec = record_from_truth(rng.uniform(-1, 1, 3), rng.uniform(-1, 1))
            stack.try_record(rec.phi, rec.xdot_n, rec.u)
        wdot = weight_update_derivative(3.0, stack, W_STAR.copy(), np.ones(3), np.zeros(2), P_BENCH)
        np.testing.assert_allclose(wdot, np.zeros(3), atol=1e-12)

    def test_single_record_sum_term(self):
        stack = HistoryStack(5)
        # eps_j = w.phi - (xdot - u) = 0.25 for this record and estimate
        stack.try_record(np.array([1.0, 0.0, 0.0]), xdot_n=0.75, u=0.0)
        w = np.array([1.0, 0.0, 0.0])
        wdot = weight_update_derivative(3.0, stack, w, np.zeros(3), np.zeros(2), P_BENCH)
        np.testing.assert_allclose(wdot, [-0.75, 0.0, 0.0], atol=1e-15)



class TestHistoryStack:
    def test_filling_phase_accepts(self):
        stack = HistoryStack(3)
        assert stack.try_record(np.array([1.0, 0.0, 0.0]), 1.0, 0.0)
        assert len(stack) == 1

    def test_rank_increase_accepted_on_full_stack(self):
        stack = HistoryStack(4)
        for _ in range(4):
            stack.try_record(np.array([1.0, 0.0, 0.0]), 1.0, 0.0)
        before = stack.min_singular_value
        accepted = stack.try_record(np.array([0.0, 1.0, 0.0]), -1.0, 0.0)
        assert accepted
        # direct SVD oracle: rank grew from 1 to 2
        assert np.linalg.matrix_rank(stack.phi_matrix) == 2
        assert stack.min_singular_value >= before

    def test_duplicate_rejected_on_full_stack(self):
        stack = HistoryStack(3)
        vecs = [np.array([1.0, 0.0, 0.1]), np.array([0.0, 1.0, 0.2]), np.array([0.3, 0.1, 1.0])]
        for v in vecs:
            stack.try_record(v, 0.5, 0.1)
        for v in vecs:
            assert not stack.try_record(v.copy(), 0.9, -0.4)
        assert len(stack) == 3

    def test_sigma_min_improving_replacement(self):
        stack = HistoryStack(3)
        stack.try_record(np.array([1.0, 0.0, 0.0]), 0.0, 0.0)
        stack.try_record(np.array([0.0, 1.0, 0.0]), 0.0, 0.0)
        stack.try_record(np.array([0.0, 1e-3, 1e-3]), 0.0, 0.0)
        before = stack.min_singular_value
        assert stack.try_record(np.array([0.0, 0.0, 1.0]), 0.0, 0.0)
        assert stack.min_singular_value > before

    def test_tiny_offer_does_not_displace_the_largest_record(self):
        """Against its own largest singular value, the trial that swaps
        [100, 0, 0] for [1e-15, 0, 0] counts rank 3; against the stack's,
        it has rank 2 and loses the stack's best direction. It is rejected."""
        columns = ([100.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-14])
        stack = stack_of([record_from_truth(phi, 0.0) for phi in columns])
        before = stack.phi_matrix.copy()
        assert not stack.try_record(np.array([1e-15, 0.0, 0.0]), 0.0, 0.0)
        np.testing.assert_array_equal(stack.phi_matrix, before)

    def test_cached_sigma_matches_recomputation(self):
        rng = np.random.default_rng(4)
        stack = HistoryStack(6)
        for _ in range(60):
            stack.try_record(rng.uniform(-1, 1, 3), rng.uniform(-1, 1), rng.uniform(-1, 1))
            recomputed = stack_sigma_min(stack.phi_matrix)
            assert abs(stack.min_singular_value - recomputed) <= 1e-9

    def test_sigma_min_non_decreasing_over_offers(self):
        rng = np.random.default_rng(5)
        stack = HistoryStack(8)
        last = 0.0
        for _ in range(120):
            stack.try_record(rng.uniform(-1, 1, 3), 0.0, 0.0)
            assert stack.min_singular_value >= last - 1e-15
            last = stack.min_singular_value


    def test_batched_scoring_matches_per_slot_loop(self):
        """Stored records equal those of a reference that scores each
        replacement slot with its own SVD, over a seeded mix of fresh,
        duplicate and rank-deficient offers; capacity 2 keeps the stack
        narrower than weight space, where sigma_min stays 0."""
        for capacity in (2, 6, 35):
            rng = np.random.default_rng(capacity)
            stack, reference = HistoryStack(capacity), []
            offered = []
            for _ in range(300):
                kind = rng.integers(3)
                if kind == 0 and offered:
                    phi = offered[rng.integers(len(offered))].copy()
                elif kind == 1:
                    phi = np.array([rng.uniform(-1, 1), 0.0, 0.0])
                else:
                    phi = rng.uniform(-1, 1, 3)
                offered.append(phi)
                xdot_n, u = rng.uniform(-1, 1, 2)
                stored = stack.try_record(phi, xdot_n, u)
                assert stored == per_slot_try_record(reference, capacity, phi, xdot_n, u)
                assert len(stack.records) == len(reference)
                for rec, (phi_r, xdot_r, u_r) in zip(stack.records, reference):
                    assert np.array_equal(rec.phi, phi_r)
                    assert (rec.xdot_n, rec.u) == (xdot_r, u_r)


entry = st.floats(-10.0, 10.0)
offers = st.lists(st.tuples(st.lists(entry, min_size=3, max_size=3), entry, entry), max_size=20)


class TestHistoryStackProperties:
    @settings(max_examples=60)
    @given(capacity=st.integers(1, 5), offers=offers)
    # rank 2 with a last singular value of 1e-14, under the rank tolerance
    # that the 100 sets; swapping the 100 for 1e-15 makes rank 3 at 1e-15
    @example(3, [([100.0, 0.0, 0.0], 0.0, 0.0), ([0.0, 1.0, 0.0], 0.0, 0.0),
                 ([0.0, 0.0, 1e-14], 0.0, 0.0), ([1e-15, 0.0, 0.0], 0.0, 0.0)])
    def test_cached_sums_and_sigma_over_any_offers(self, capacity, offers):
        """After every offer the cached gram and phi_rhs are the sums of
        phi phi.T and phi (xdot_n - u) over the stored records, and once the
        stack is full its min_singular_value never decreases."""
        stack = HistoryStack(capacity)
        full_sigma = None
        for phi, xdot_n, u in offers:
            stack.try_record(phi, xdot_n, u)
            gram = sum(np.outer(r.phi, r.phi) for r in stack.records)
            rhs = sum(r.phi * (r.xdot_n - r.u) for r in stack.records)
            sizes = [np.abs(r.phi).sum() for r in stack.records]
            scale = sum(a * (a + abs(r.xdot_n - r.u)) for a, r in zip(sizes, stack.records))
            np.testing.assert_allclose(stack.gram, gram, rtol=0, atol=1e-14 * scale)
            np.testing.assert_allclose(stack.phi_rhs, rhs, rtol=0, atol=1e-14 * scale)
            if len(stack) == capacity:
                if full_sigma is not None:
                    assert stack.min_singular_value >= full_sigma
                full_sigma = stack.min_singular_value


def per_slot_try_record(records, capacity, phi, xdot_n, u):
    """Reference replacement rule: one SVD per candidate slot."""

    def quality(mat, tol):
        sv = np.linalg.svd(mat, compute_uv=False)
        return int(np.sum(sv > tol)), float(sv[-1]) if mat.shape[1] >= mat.shape[0] else 0.0

    phi = np.array(phi, dtype=float)
    if len(records) < capacity:
        records.append((phi, float(xdot_n), float(u)))
        return True
    if any(np.array_equal(r[0], phi) for r in records):
        return False
    trial = np.stack([r[0] for r in records], axis=1)
    # every slot's rank counts against the current stack's tolerance
    tol = max(trial.shape) * np.finfo(float).eps * np.linalg.svd(trial, compute_uv=False)[0]
    best_j, best = -1, quality(trial, tol)
    for j in range(capacity):
        saved = trial[:, j].copy()
        trial[:, j] = phi
        q = quality(trial, tol)
        trial[:, j] = saved
        if q > best:
            best_j, best = j, q
    if best_j < 0:
        return False
    records[best_j] = (phi, float(xdot_n), float(u))
    return True


class TestExponentialConvergence:
    def test_full_rank_stack_contracts_weights(self):
        """With the error forced to zero, a frozen spanning stack drives the
        weight error inside the analytic exponential envelope."""
        rng = np.random.default_rng(6)
        stack = HistoryStack(6)
        while len(stack) < 6:
            stack.try_record(rng.uniform(-1, 1, 3), 0.0, 0.0)
        # rebuild records against the true weights so eps_j = (w - w*).phi_j
        for j, rec in enumerate(list(stack.records)):
            stack.records[j] = record_from_truth(rec.phi, u=0.0)
        stack._rebuild()

        gamma = 3.0
        gram = stack.phi_matrix @ stack.phi_matrix.T
        lam_min = float(np.min(np.linalg.eigvalsh(gram)))
        assert lam_min > 0.0

        w = np.array([0.5, -1.3, 0.75])
        h = 1e-3
        norm0 = np.linalg.norm(w - W_STAR)
        prev = norm0

        def f(t, w_vec):
            return weight_update_derivative(gamma, stack, w_vec, np.zeros(3), np.zeros(2), P_BENCH)

        for i in range(2000):
            w = rk4_step(f, i * h, w, h)
            t = (i + 1) * h
            err = np.linalg.norm(w - W_STAR)
            assert err <= norm0 * np.exp(-gamma * lam_min * t) * (1 + 1e-6)
            assert err <= prev + 1e-15
            prev = err


class TestLearnerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LearnerConfig(gamma_w=0.0)
        with pytest.raises(ValueError):
            LearnerConfig(stack_capacity=0)
        with pytest.raises(ValueError):
            LearnerConfig(record_period=-1.0)

import math

import numpy as np
import pytest

from catnet import autodiff as ad
from catnet.aggregate import (
    HeadParams,
    fuse_and_predict,
    global_time_gate,
    visit_self_attention,
)
from catnet.time_kernel import TimeKernelParams
from gradcheck import central_difference, max_relative_error


def make_states(values):
    """One patient's hidden states as a (1, T, H) batch."""
    return ad.tensor(np.stack(values)[None])


def one(values):
    """States and lengths of a one-patient batch."""
    return make_states(values), [len(values)]


def zero_gate_kernel(hidden_dim):
    return TimeKernelParams(w1=ad.parameter(np.zeros(hidden_dim)),
                            b1=ad.parameter(np.zeros(hidden_dim)),
                            w2=ad.parameter(np.zeros((hidden_dim, hidden_dim))),
                            b2=ad.parameter(np.zeros(hidden_dim)))


class TestVisitAttention:
    def test_single_visit(self):
        h = np.array([0.3, -0.7, 1.1])
        pooled, alpha = visit_self_attention(*one([h]))
        np.testing.assert_array_equal(alpha[0], [[1.0]])
        np.testing.assert_allclose(pooled.data[0], h, rtol=1e-15)

    def test_identical_states_attend_uniformly(self):
        h = np.array([0.5, 0.2])
        pooled, alpha = visit_self_attention(*one([h, h, h]))
        np.testing.assert_allclose(alpha[0], 1.0 / 3.0, atol=1e-15)
        # each of the three contexts is h, so their sum is 3h
        np.testing.assert_allclose(pooled.data[0], 3 * h, rtol=1e-12)

    def test_three_visits_match_brute_force(self):
        rng = np.random.default_rng(0)
        hs = [rng.uniform(-1, 1, 4) for _ in range(3)]
        pooled, alpha = visit_self_attention(*one(hs))

        H = np.stack(hs)
        contexts = []
        for t in range(3):
            logits = H @ hs[t] / math.sqrt(4)
            e = np.exp(logits - logits.max())
            w = e / e.sum()
            np.testing.assert_allclose(alpha[0][t], w, rtol=1e-12)
            contexts.append(w @ H)
        np.testing.assert_allclose(pooled.data[0], sum(contexts), rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            hs = [rng.uniform(-3, 3, 5) for _ in range(rng.integers(1, 7))]
            _, alpha = visit_self_attention(*one(hs))
            assert np.all(np.abs(alpha[0].sum(axis=1) - 1.0) <= 1e-9)

    def test_invariant_under_orthogonal_transform(self):
        rng = np.random.default_rng(2)
        hs = [rng.uniform(-1, 1, 4) for _ in range(5)]
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        _, alpha = visit_self_attention(*one(hs))
        _, alpha_rot = visit_self_attention(*one([q @ h for h in hs]))
        np.testing.assert_allclose(alpha[0], alpha_rot[0], atol=1e-9)


def padded_states(rows, lengths):
    """A (B, max length, H) batch of the given rows per patient, zero past each length."""
    states = np.zeros((len(lengths), max(lengths), rows[0].shape[-1]))
    for b, (patient, n) in enumerate(zip(rows, lengths)):
        states[b, :n] = patient
    return states


class TestPooledReadout:
    """Gradient and batch exactness of the visit-attention readout on padded batches."""

    def pooled_loss(self, states, lengths, coeff):
        pooled, _ = visit_self_attention(states, lengths)
        return ad.sum_over(ad.mul(pooled, ad.tensor(coeff)))

    def test_gradients_match_finite_differences_on_padded_batch(self):
        rng = np.random.default_rng(10)
        lengths = [3, 1, 4]
        data = padded_states([rng.uniform(-1, 1, (n, 5)) for n in lengths], lengths)
        states = ad.parameter(data)
        coeff = rng.uniform(-1, 1, (3, 5))
        with ad.Tape():
            ad.backward(self.pooled_loss(states, lengths, coeff))
        numeric = central_difference(
            lambda: self.pooled_loss(ad.tensor(data), lengths, coeff).item(), [data])
        assert max_relative_error([states.grad], numeric) <= 1e-4

    def test_short_patient_same_alone_as_beside_longer_patients(self):
        rng = np.random.default_rng(11)
        lengths = [4, 2, 6]
        rows = [rng.uniform(-1, 1, (n, 5)) for n in lengths]
        coeff = rng.uniform(-1, 1, (3, 5))
        batch = ad.parameter(padded_states(rows, lengths))
        alone = ad.parameter(rows[1][None])
        with ad.Tape():
            ad.backward(self.pooled_loss(batch, lengths, coeff))
        with ad.Tape():
            ad.backward(self.pooled_loss(alone, [2], coeff[1:2]))
        np.testing.assert_array_equal(visit_self_attention(batch, lengths)[0].data[1],
                                      visit_self_attention(alone, [2])[0].data[0])
        np.testing.assert_array_equal(batch.grad[1, :2], alone.grad[0])
        np.testing.assert_array_equal(batch.grad[1, 2:], 0.0)


class TestGlobalGate:
    def test_zero_kernel_gates_at_half(self):
        hs, lengths = one([np.array([1.0, -2.0]), np.array([0.5, 0.5])])
        gated, gates = global_time_gate(hs, [0.0, 3.0], lengths, zero_gate_kernel(2))
        np.testing.assert_array_equal(gates[0], 0.5)
        np.testing.assert_allclose(gated.data, [[0.75, -0.75]], rtol=1e-15)

    def test_gates_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        kernel = TimeKernelParams.init(4, rng)
        hs, lengths = one([rng.uniform(-1, 1, 4) for _ in range(4)])
        _, gates = global_time_gate(hs, [0.0, 1.0, 5.0, 5.0], lengths, kernel)
        assert np.all(gates[0] > 0.0) and np.all(gates[0] < 1.0)

    def test_packed_times_checked_per_patient(self):
        kernel = zero_gate_kernel(2)
        two = ad.tensor(np.zeros((2, 2, 2)))
        _, gates = global_time_gate(two, [0.0, 5.0, 0.0, 1.0], [2, 2], kernel)  # drop at a boundary
        assert [g.shape for g in gates] == [(2, 2), (2, 2)]

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        kernel = TimeKernelParams.init(3, rng)
        hs_data = [rng.uniform(-1, 1, 3) for _ in range(3)]
        coeff = rng.uniform(-1, 1, 3)
        tensors = [kernel.w1, kernel.b1, kernel.w2, kernel.b2]

        def forward():
            gated, _ = global_time_gate(make_states(hs_data), [0.0, 2.0, 7.0], [3], kernel)
            return ad.sum_over(ad.mul(ad.take_row(gated, 0), ad.tensor(coeff)))

        with ad.Tape():
            ad.backward(forward())
        analytic = [t.grad.copy() for t in tensors]
        numeric = central_difference(lambda: forward().item(), [t.data for t in tensors])
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_patient_same_alone_as_padded_by_a_longer_patient(self):
        rng = np.random.default_rng(12)
        kernel = TimeKernelParams.init(3, rng)
        short, longer = rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (4, 3))
        coeff = ad.tensor(rng.uniform(-1, 1, 3))
        tensors = [kernel.w1, kernel.b1, kernel.w2, kernel.b2]

        def run(states, deltas, lengths):
            """Patient 0's gated sum and gates, and the gradients of a loss on that sum."""
            states = ad.parameter(states)
            for t in tensors:
                t.grad = None
            with ad.Tape():
                gated, gates = global_time_gate(states, deltas, lengths, kernel)
                ad.backward(ad.sum_over(ad.mul(ad.take_row(gated, 0), coeff)))
            return gated.data[0], gates[0], states.grad[0], [t.grad.copy() for t in tensors]

        alone = run(short[None], [0.0, 2.5], [2])
        padded = run(padded_states([short, longer], [2, 4]), [0.0, 2.5, 0.0, 1.0, 3.0, 9.0], [2, 4])
        np.testing.assert_array_equal(alone[0], padded[0])
        np.testing.assert_array_equal(alone[1], padded[1])
        np.testing.assert_array_equal(alone[2], padded[2][:2])
        np.testing.assert_array_equal(padded[2][2:], 0.0)
        for a, b in zip(alone[3], padded[3]):
            np.testing.assert_array_equal(a, b)


class TestFuseAndPredict:
    def zero_head(self, hidden_dim=3, demo_dim=2, n_targets=4):
        return HeadParams(demo_w=ad.parameter(np.zeros((demo_dim, 3))),
                          demo_b=ad.parameter(np.zeros(demo_dim)),
                          out_w=ad.parameter(np.zeros((n_targets, hidden_dim + demo_dim))),
                          out_b=ad.parameter(np.zeros(n_targets)))

    def fused(self, hs, deltas, lengths, kernel):
        """Visit-attention and gate sums added, as the network fuses them."""
        pooled, alpha = visit_self_attention(hs, lengths)
        gated, gates = global_time_gate(hs, deltas, lengths, kernel)
        return ad.add(pooled, gated), alpha, gates

    def test_all_zero_params_predict_half(self):
        hs, lengths = one([np.array([1.0, 2.0, 3.0])])
        fused, _, _ = self.fused(hs, [0.0], lengths, zero_gate_kernel(3))
        y = fuse_and_predict(fused, np.array([[0.5, 1.0, 0.0]]), self.zero_head())
        np.testing.assert_array_equal(y.data, 0.5)

    def test_single_visit_zero_gate_fuses_to_one_and_a_half(self):
        h = np.array([0.4, -1.0, 2.0])
        hs, lengths = one([h])
        fused, _, _ = self.fused(hs, [0.0], lengths, zero_gate_kernel(3))
        np.testing.assert_allclose(fused.data[0], 1.5 * h, rtol=1e-15)

    def test_identical_states_and_times_sum_to_t_times_first(self):
        rng = np.random.default_rng(5)
        h = rng.uniform(-1, 1, 4)
        kernel = TimeKernelParams.init(4, rng)
        T = 5
        hs, lengths = one([h] * T)
        total, alpha, gates = self.fused(hs, [0.0] * T, lengths, kernel)
        first_context = alpha[0][0] @ hs.data[0]
        np.testing.assert_allclose(total.data[0], T * (first_context + gates[0][0] * h), rtol=1e-12)

    def test_random_instance_matches_straight_line_oracle(self):
        rng = np.random.default_rng(6)
        hidden_dim, demo_dim, n_targets, T = 4, 3, 5, 3
        hs = [rng.uniform(-1, 1, hidden_dim) for _ in range(T)]
        demo = rng.uniform(0, 1, 3)
        deltas = [0.0, 1.5, 4.0]
        kernel = TimeKernelParams.init(hidden_dim, rng)
        head = HeadParams.init(3, demo_dim, hidden_dim, n_targets, rng)
        head.demo_b.data[...] = rng.uniform(-0.5, 0.5, demo_dim)
        head.out_b.data[...] = rng.uniform(-0.5, 0.5, n_targets)

        fused, _, _ = self.fused(make_states(hs), deltas, [T], kernel)
        y = fuse_and_predict(fused, demo[None], head)

        # independent straight-line evaluation on plain arrays
        H = np.stack(hs)
        fused = np.zeros(hidden_dim)
        for t in range(T):
            logits = H @ hs[t] / math.sqrt(hidden_dim)
            e = np.exp(logits - logits.max())
            ctx = (e / e.sum()) @ H
            u = kernel.w1.data * deltas[t] + kernel.b1.data
            emb = kernel.w2.data @ (1 - np.tanh(u * u)) + kernel.b2.data
            beta = 1 / (1 + np.exp(-emb))
            fused += ctx + beta * hs[t]
        es = head.demo_w.data @ demo + head.demo_b.data
        logits = head.out_w.data @ np.concatenate([fused, es]) + head.out_b.data
        expected = 1 / (1 + np.exp(-logits))
        np.testing.assert_allclose(y.data[0], expected, rtol=1e-10)

    def test_probabilities_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(7)
        head = HeadParams.init(3, 2, 3, 6, rng)
        pooled, _ = visit_self_attention(*one([rng.uniform(-5, 5, 3) for _ in range(2)]))
        y = fuse_and_predict(pooled, rng.uniform(0, 1, (1, 3)), head)
        assert np.all(y.data > 0.0) and np.all(y.data < 1.0)

    def test_demographics_encoding_is_linear(self):
        rng = np.random.default_rng(8)
        head = HeadParams.init(3, 4, 2, 1, rng)
        a = rng.uniform(0, 1, 3)
        b = rng.uniform(0, 1, 3)
        ea, eb, eab = (ad.linear(ad.tensor(d), head.demo_w, head.demo_b).data
                       for d in (a, b, a + b))
        np.testing.assert_allclose(eab + head.demo_b.data, ea + eb, rtol=1e-12)


class TestLoss:
    def test_half_probabilities_give_log_two(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        loss = ad.binary_cross_entropy(ad.tensor([0.5] * 4), y)
        np.testing.assert_allclose(loss.item(), math.log(2), rtol=1e-15)

    def test_exact_prediction_costs_epsilon(self):
        loss = ad.binary_cross_entropy(ad.tensor([1.0, 0.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(loss.item(), 1e-7, rtol=1e-6)

    def test_closed_form_pair(self):
        loss = ad.binary_cross_entropy(ad.tensor([0.9, 0.1]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(loss.item(), 0.105361, atol=5e-7)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = rng.uniform(0, 1, 6)
            y = (rng.random(6) < 0.5).astype(float)
            assert ad.binary_cross_entropy(ad.tensor(p), y).item() >= 0.0

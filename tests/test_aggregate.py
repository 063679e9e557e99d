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
from catnet.time_kernel import TimeKernelParams, time_embed
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


def padded_visit_attention(states, lengths):
    """Visit attention as it ran on the padded grid: one masked ``(B, T, T)`` softmax of
    tape primitives.  The reference that the grouped op matches bit for bit."""
    mask = ad.packed_rows(lengths) >= 0
    logits = ad.scale(ad.einsum("bqh,bkh->bqk", states, states), 1.0 / math.sqrt(states.shape[-1]))
    alpha = ad.stable_softmax(logits, mask[:, None, :])
    column = ad.weighted_row_sum(ad.tensor(mask[:, None, :]), alpha)
    pooled = ad.reshape(ad.weighted_row_sum(column, states), (len(mask), states.shape[-1]))
    return pooled, [alpha.data[b, :n, :n] for b, n in enumerate(lengths)]


def padded_time_gate(states, delta_global, lengths, kernel):
    """The global gate as it ran on the padded grid: gates placed by ``take_row``, scaled
    and summed over visits by ``mul`` and ``sum_over``.  The reference for the grouped op."""
    gates = ad.sigmoid(time_embed(delta_global, kernel))
    grid = ad.take_row(gates, ad.packed_rows(lengths))
    return ad.sum_over(ad.mul(grid, states), axis=1), np.split(gates.data, np.cumsum(lengths)[:-1])


MIXED_LENGTHS = {
    "all-equal": [5] * 6,
    "lone-one-visit": [1, 7, 4, 7, 2],
    "one-to-47": [int(n) for n in np.random.default_rng(20).permutation(np.arange(1, 48))],
}


class TestGroupedRoutesMatchThePaddedGrid:
    """Both routes, one op per group of equal visit counts, against the padded composition:
    values, alpha, gates and the gradients of the states, the gates and the gate kernel in
    raw bytes, so +0.0 and -0.0 differ."""

    def run(self, attention, gate, lengths, routes, seed):
        rng = np.random.default_rng(seed)
        hidden = 8
        states = ad.parameter(padded_states([rng.uniform(-1, 1, (n, hidden)) for n in lengths],
                                            lengths))
        deltas = np.concatenate([np.cumsum(rng.uniform(0, 2, n)) - 0.5 for n in lengths])
        kernel = TimeKernelParams.init(hidden, np.random.default_rng(seed + 1))
        coeff = rng.uniform(-1, 1, (len(lengths), hidden))
        coeff[rng.random(coeff.shape) < 0.15] = 0.0
        coeff[rng.random(coeff.shape) < 0.15] = -0.0   # gradients of -0.0 reach both ops
        with ad.Tape() as tape:
            parts, alpha, gates = [], [], []
            if "visit" in routes:
                pooled, alpha = attention(states, lengths)
                parts.append(pooled)
            if "global" in routes:
                gated, gates = gate(states, deltas, lengths, kernel)
                parts.append(gated)
            fused = parts[0] if len(parts) == 1 else ad.add(*parts)
            # the gates tensor: the output of the last sigmoid on the tape
            gate_tensor = [out for out, fn in tape._nodes if fn.__qualname__.startswith("sigmoid")]
            ad.backward(ad.sum_over(ad.mul(fused, ad.tensor(coeff))))
        grads = [t.grad for t in gate_tensor[-1:] + [kernel.w1, kernel.b1, kernel.w2, kernel.b2]]
        return fused.data, states.grad, alpha, gates, [g.tobytes() for g in grads if g is not None]

    @pytest.mark.parametrize("routes", [("visit", "global"), ("visit",), ("global",)],
                             ids=["both", "visit", "global"])
    @pytest.mark.parametrize("name", list(MIXED_LENGTHS))
    def test_values_and_gradients_bitwise(self, name, routes):
        lengths = MIXED_LENGTHS[name]
        new = self.run(visit_self_attention, global_time_gate, lengths, routes, seed=21)
        old = self.run(padded_visit_attention, padded_time_gate, lengths, routes, seed=21)
        assert new[0].tobytes() == old[0].tobytes()
        real = ad.packed_rows(lengths) >= 0
        assert new[1][real].tobytes() == old[1][real].tobytes()
        # padded rows: exact +0.0; the padded gate alone left g * 0.0 there, of either sign
        assert new[1][~real].tobytes() == np.zeros(np.count_nonzero(~real) * 8).tobytes()
        if "visit" in routes:   # the padded attention's sums from +0.0 left +0.0 there too
            assert new[1].tobytes() == old[1].tobytes()
        for got, want in zip(new[2] + new[3], old[2] + old[3]):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert new[4] == old[4]

    def test_each_route_records_one_tape_node(self):
        lengths = MIXED_LENGTHS["lone-one-visit"]
        states = ad.parameter(np.ones((len(lengths), max(lengths), 3)))
        with ad.Tape() as tape:
            pooled, _ = visit_self_attention(states, lengths)
            assert [out for out, _ in tape._nodes] == [pooled]
            gated, _ = global_time_gate(states, np.zeros(sum(lengths)), lengths,
                                        TimeKernelParams.init(3, np.random.default_rng(23)))
            ops = [backward_fn.__qualname__.split(".")[0] for _, backward_fn in tape._nodes]
        assert tape._nodes[-1][0] is gated
        assert ops[-2:] == ["sigmoid", "global_time_gate"]   # the gates, then the one op

    @pytest.mark.parametrize("route", ["visit", "global"])
    def test_gradients_match_finite_differences_on_mixed_lengths(self, route):
        rng = np.random.default_rng(22)
        lengths = [2, 3, 1, 3, 2]
        data = padded_states([rng.uniform(-1, 1, (n, 4)) for n in lengths], lengths)
        deltas = np.concatenate([np.cumsum(rng.uniform(0, 2, n)) - 0.5 for n in lengths])
        coeff = ad.tensor(rng.uniform(-1, 1, (len(lengths), 4)))
        kernel = TimeKernelParams.init(4, rng)
        kernel_tensors = [kernel.w1, kernel.b1, kernel.w2, kernel.b2] if route == "global" else []

        def loss(states):
            if route == "visit":
                out, _ = visit_self_attention(states, lengths)
            else:
                out, _ = global_time_gate(states, deltas, lengths, kernel)
            return ad.sum_over(ad.mul(out, coeff))

        states = ad.parameter(data)
        with ad.Tape():
            ad.backward(loss(states))
        analytic = [states.grad] + [t.grad.copy() for t in kernel_tensors]
        numeric = central_difference(lambda: loss(ad.tensor(data)).item(),
                                     [data] + [t.data for t in kernel_tensors])
        assert max_relative_error(analytic, numeric) <= 1e-4


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

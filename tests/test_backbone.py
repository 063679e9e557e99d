import numpy as np
import pytest

from catnet import autodiff as ad
from catnet.backbone import RecurrentParams, run_sequence, step_mask
from gradcheck import central_difference, max_relative_error


def zero_params(kind, input_dim=3, hidden_dim=3):
    params = RecurrentParams.init(kind, input_dim, hidden_dim, np.random.default_rng(0))
    for t in params.weights.values():
        t.data[...] = 0.0
    return params


def sigm(x):
    return 1.0 / (1.0 + np.exp(-x))


def run(rows, params, lengths=None):
    """States (B, T, H) of packed input rows; one sequence unless ``lengths`` is given."""
    rows = np.asarray(rows, dtype=np.float64)
    return run_sequence(ad.tensor(rows), [len(rows)] if lengths is None else lengths, params)


class TestGRUCell:
    """One GRU step, read off the second state of a two-step sequence."""

    def test_zero_weights_halve_previous_state(self):
        params = zero_params("gru")
        params.weights["wh"].data[...] = np.eye(3)   # step 1 writes tanh(x) / 2 into h
        states = run([[1.0, -2.0, 0.4], [0.0, 0.0, 0.0]], params).data[0]
        h_prev = states[0]
        assert np.all(h_prev != 0.0)
        np.testing.assert_allclose(states[1], 0.5 * h_prev, rtol=1e-15)

    def test_zero_weights_zero_state_stays_zero(self):
        params = zero_params("gru")
        h = run([[1.0, 2.0, 3.0]], params).data[0, 0]
        np.testing.assert_array_equal(h, 0.0)

    def test_matches_hand_evaluation(self):
        rng = np.random.default_rng(5)
        params = RecurrentParams.init("gru", 3, 3, rng)
        for t in params.weights.values():
            t.data[...] = rng.uniform(-0.5, 0.5, t.data.shape)
        xs = rng.uniform(-1, 1, (2, 3))

        w = {k: t.data for k, t in params.weights.items()}
        hp = np.zeros(3)
        for x in xs:
            z = sigm(w["wz"] @ x + w["uz"] @ hp + w["bz"])
            r = sigm(w["wr"] @ x + w["ur"] @ hp + w["br"])
            cand = np.tanh(w["wh"] @ x + w["uh"] @ (r * hp) + w["bh"])
            expected = (1 - z) * hp + z * cand
            hp = expected

        h = run(xs, params).data[0, 1]
        np.testing.assert_allclose(h, expected, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        params = zero_params("gru", input_dim=3, hidden_dim=3)
        with pytest.raises(ValueError, match="shape mismatch"):
            run(np.zeros((1, 5)), params)


class TestLSTMCell:
    """One LSTM step, read off the second state of a two-step sequence."""

    def test_zero_weights_zero_cell(self):
        params = zero_params("lstm")
        h = run([[1.0, 1.0, 1.0]], params).data[0, 0]
        # o = 1/2 with zero weights, so h = tanh(c) / 2 is zero exactly when c is
        np.testing.assert_array_equal(h, 0.0)

    def test_zero_weights_halve_cell_state(self):
        params = zero_params("lstm")
        params.weights["wg"].data[...] = np.eye(3)   # step 1 writes c = tanh(x) / 2
        x = np.array([0.8, -0.5, 2.0])
        v = 0.5 * np.tanh(x)
        h = run([x, np.zeros(3)], params).data[0, 1]
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * v), rtol=1e-15)

    def test_matches_hand_evaluation(self):
        rng = np.random.default_rng(6)
        params = RecurrentParams.init("lstm", 3, 3, rng)
        for t in params.weights.values():
            t.data[...] = rng.uniform(-0.5, 0.5, t.data.shape)
        xs = rng.uniform(-1, 1, (2, 3))

        w = {k: t.data for k, t in params.weights.items()}
        hp, cp = np.zeros(3), np.zeros(3)
        for x in xs:
            i = sigm(w["wi"] @ x + w["ui"] @ hp + w["bi"])
            f = sigm(w["wf"] @ x + w["uf"] @ hp + w["bf"])
            o = sigm(w["wo"] @ x + w["uo"] @ hp + w["bo"])
            g = np.tanh(w["wg"] @ x + w["ug"] @ hp + w["bg"])
            c_exp = f * cp + i * g
            h_exp = o * np.tanh(c_exp)
            hp, cp = h_exp, c_exp

        h = run(xs, params).data[0, 1]
        np.testing.assert_allclose(h, h_exp, rtol=1e-12)


class TestRunSequence:
    def make_inputs(self, lengths, input_dim=3, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.uniform(-1, 1, (n, input_dim)) for n in lengths]

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_single_step_equals_cell_from_zero_state(self, kind):
        rng = np.random.default_rng(1)
        params = RecurrentParams.init(kind, 3, 4, rng)
        xs = rng.uniform(-1, 1, (3, 3))
        alone = run(xs[:1], params).data[0, 0]
        first_of_three = run(xs, params).data[0, 0]
        np.testing.assert_array_equal(alone, first_of_three)

    def test_batching_transparency(self):
        params = RecurrentParams.init("gru", 3, 4, np.random.default_rng(2))
        seqs = self.make_inputs([3, 2, 5], seed=3)
        alone = run(seqs[0], params)
        together = run(np.concatenate(seqs), params, lengths=[3, 2, 5])
        for t in range(3):
            np.testing.assert_allclose(alone.data[0, t], together.data[0, t], atol=1e-12)

    def test_order_sensitivity_witness(self):
        params = RecurrentParams.init("gru", 3, 4, np.random.default_rng(4))
        seq = self.make_inputs([4], seed=5)[0]
        fwd = run(seq, params)
        rev = run(seq[::-1], params)
        assert not np.allclose(fwd.data[0, -1], rev.data[0, -1])

    def test_padded_values_zero_beyond_length(self):
        params = RecurrentParams.init("lstm", 3, 4, np.random.default_rng(7))
        out = run(np.concatenate(self.make_inputs([2, 4], seed=8)), params, lengths=[2, 4])
        padded = out.data
        assert padded.shape == (2, 4, 4)
        np.testing.assert_array_equal(padded[0, 2:], 0.0)

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_padding_inertness_values_and_grads(self, kind):
        rng = np.random.default_rng(9)
        params = RecurrentParams.init(kind, 3, 4, rng)
        steps = rng.uniform(-1, 1, (3, 3))
        longer = rng.uniform(-1, 1, (5, 3))
        coeff = ad.tensor(rng.uniform(-1, 1, 4))

        def last_state_loss(rows, lengths):
            out = run(rows, params, lengths=lengths)
            return ad.sum_over(ad.mul(ad.take_row(ad.take_row(out, 0), 2), coeff))

        results = []
        # the same 3 valid steps, alone and padded to 5 steps by a longer sequence
        for rows, lengths in ((steps, [3]), (np.concatenate([steps, longer]), [3, 5])):
            for t in params.weights.values():
                t.grad = None
            with ad.Tape():
                loss = last_state_loss(rows, lengths)
                ad.backward(loss)
            grads = {k: t.grad.copy() for k, t in params.weights.items()}
            results.append((loss.item(), grads))

        assert results[0][0] == results[1][0]
        for k in results[0][1]:
            np.testing.assert_array_equal(results[0][1][k], results[1][1][k])

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_three_step_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(10)
        params = RecurrentParams.init(kind, 2, 3, rng)
        rows = ad.parameter(rng.uniform(-1, 1, (5, 2)))   # a 3-step and a 2-step sequence
        coeff = ad.tensor(rng.uniform(-1, 1, (2, 3, 3)))  # weighs the padded state too
        tensors = list(params.weights.values()) + [rows]

        def forward():
            return ad.sum_over(ad.mul(run_sequence(rows, [3, 2], params), coeff))

        with ad.Tape():
            ad.backward(forward())
        analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                    for t in tensors]
        numeric = central_difference(lambda: forward().item(), [t.data for t in tensors])
        assert max_relative_error(analytic, numeric) <= 1e-4

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_overflowing_pre_activation_rejected(self, kind):
        params = zero_params(kind)
        first, last = ("z", "h") if kind == "gru" else ("i", "g")
        params.weights[f"w{last}"].data[...] = np.eye(3)      # step 1 writes a nonzero state
        params.weights[f"b{first}"].data[...] = 1.5e308
        params.weights[f"u{first}"].data[...] = 1e308         # step 2 overflows on that state
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError,
                              match=f"{kind} recurrence produced non-finite values from inputs"):
            run(np.ones((2, 3)), params)

    def test_lengths_must_split_the_inputs(self):
        params = RecurrentParams.init("gru", 3, 4, np.random.default_rng(11))
        with pytest.raises(ValueError, match="do not split"):
            run(np.zeros((4, 3)), params, lengths=[2, 3])
        np.testing.assert_array_equal(step_mask([1, 3]), [[True, False, False], [True, True, True]])

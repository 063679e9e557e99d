import numpy as np
import pytest

from catnet import autodiff as ad
from catnet.backbone import GATES, RecurrentParams, run_sequence
from gradcheck import central_difference, max_relative_error


def zero_params(kind, input_dim=3, hidden_dim=3):
    params = RecurrentParams.init(kind, input_dim, hidden_dim, np.random.default_rng(0))
    for t in params.named().values():
        t.data[...] = 0.0
    return params


def gate_slices(params):
    """Per-gate views ``{"wz": w[0], "uz": u[0], "bz": b[0], ...}`` of the stacked maps."""
    return {f"{m}{g}": getattr(params, m).data[k]
            for k, g in enumerate(GATES[params.kind]) for m in "wub"}


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
        gate_slices(params)["wh"][...] = np.eye(3)   # step 1 writes tanh(x) / 2 into h
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
        for t in gate_slices(params).values():
            t[...] = rng.uniform(-0.5, 0.5, t.shape)
        xs = rng.uniform(-1, 1, (2, 3))

        w = gate_slices(params)
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
        gate_slices(params)["wg"][...] = np.eye(3)   # step 1 writes c = tanh(x) / 2
        x = np.array([0.8, -0.5, 2.0])
        v = 0.5 * np.tanh(x)
        h = run([x, np.zeros(3)], params).data[0, 1]
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * v), rtol=1e-15)

    def test_matches_hand_evaluation(self):
        rng = np.random.default_rng(6)
        params = RecurrentParams.init("lstm", 3, 3, rng)
        for t in gate_slices(params).values():
            t[...] = rng.uniform(-0.5, 0.5, t.shape)
        xs = rng.uniform(-1, 1, (2, 3))

        w = gate_slices(params)
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
        # the second sequence ends first, so the packed state shrinks from its middle
        lengths = [3, 1, 5, 2]
        seqs = self.make_inputs(lengths, seed=3)
        for kind in ("gru", "lstm"):
            params = RecurrentParams.init(kind, 3, 4, np.random.default_rng(2))
            together = run(np.concatenate(seqs), params, lengths=lengths).data
            for b, seq in enumerate(seqs):
                np.testing.assert_array_equal(together[b, :len(seq)], run(seq, params).data[0])
                np.testing.assert_array_equal(together[b, len(seq):], 0.0)

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

    def padding_inertness(self, kind, lengths):
        """Each sequence's last-state loss and gradients match alone and in the batch; its
        input-gradient rows bitwise, and the other sequences' rows get zero."""
        rng = np.random.default_rng(9)
        params = RecurrentParams.init(kind, 3, 4, rng)
        seqs = self.make_inputs(lengths, seed=12)
        starts = np.cumsum(lengths) - lengths
        coeff = ad.tensor(rng.uniform(-1, 1, 4))

        def last_state_loss_and_grads(rows, lengths, b):
            for t in params.named().values():
                t.grad = None
            rows = ad.parameter(rows)
            with ad.Tape():
                out = run_sequence(rows, lengths, params)
                state = ad.take_row(ad.take_row(out, b), lengths[b] - 1)
                loss = ad.sum_over(ad.mul(state, coeff))
                ad.backward(loss)
            return loss.item(), {k: t.grad.copy() for k, t in params.named().items()}, rows.grad

        for b, seq in enumerate(seqs):
            alone = last_state_loss_and_grads(seq, [len(seq)], 0)
            batched = last_state_loss_and_grads(np.concatenate(seqs), lengths, b)
            assert alone[0] == batched[0]
            for k in alone[1]:
                np.testing.assert_array_equal(alone[1][k], batched[1][k])
            own = slice(starts[b], starts[b] + lengths[b])
            assert alone[2].tobytes() == batched[2][own].tobytes()
            np.testing.assert_array_equal(np.delete(batched[2], np.r_[own], axis=0), 0.0)

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_padding_inertness_values_and_grads(self, kind):
        self.padding_inertness(kind, [3, 1, 5, 2])   # a middle sequence ends first

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_padding_inertness_when_every_row_reads_the_zero_row(self, kind):
        self.padding_inertness(kind, [1, 1, 1, 1])

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_batch_transparency_across_row_blocks(self, kind):
        # 17 -> 9 -> 8 -> 1 running sequences: 3, 2, 1 and 1 blocks of ROW_BLOCK = 8 rows,
        # so later steps leave rows of earlier, larger steps in the reused buffers
        lengths = [1] * 8 + [2] + [3] * 7 + [6]
        assert ad.ROW_BLOCK == 8
        np.testing.assert_array_equal((ad.packed_rows(lengths) >= 0).sum(axis=0), [17, 9, 8, 1, 1, 1])
        seqs = self.make_inputs(lengths, seed=18)
        params = RecurrentParams.init(kind, 3, 4, np.random.default_rng(19))
        together = run(np.concatenate(seqs), params, lengths=lengths).data
        for b, seq in enumerate(seqs):
            assert together[b, :len(seq)].tobytes() == run(seq, params).data[0].tobytes()
            np.testing.assert_array_equal(together[b, len(seq):], 0.0)
        self.padding_inertness(kind, lengths)

    def gradients_match_finite_differences(self, kind, lengths, seed):
        rng = np.random.default_rng(seed)
        params = RecurrentParams.init(kind, 2, 3, rng)
        rows = ad.parameter(rng.uniform(-1, 1, (sum(lengths), 2)))
        coeff = ad.tensor(rng.uniform(-1, 1, (len(lengths), max(lengths), 3)))  # padding too
        tensors = list(params.named().values()) + [rows]

        def forward():
            return ad.sum_over(ad.mul(run_sequence(rows, lengths, params), coeff))

        with ad.Tape():
            ad.backward(forward())
        analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                    for t in tensors]
        numeric = central_difference(lambda: forward().item(), [t.data for t in tensors])
        assert max_relative_error(analytic, numeric) <= 1e-4

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_three_step_gradients_match_finite_differences(self, kind):
        self.gradients_match_finite_differences(kind, [3, 2], seed=10)

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_gradients_through_a_middle_sequence_ending_first(self, kind):
        # every state is weighted: the state shrinks after step 0 and regrows in backward
        self.gradients_match_finite_differences(kind, [3, 1, 2], seed=13)

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_overflowing_pre_activation_rejected(self, kind):
        params = zero_params(kind)
        first, last = ("z", "h") if kind == "gru" else ("i", "g")
        w = gate_slices(params)
        w[f"w{last}"][...] = np.eye(3)      # step 1 writes a nonzero state
        w[f"b{first}"][...] = 1.5e308
        w[f"u{first}"][...] = 1e308         # step 2 overflows on that state
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError,
                              match=f"{kind} recurrence produced non-finite values from inputs"):
            run(np.ones((2, 3)), params)

    def test_lengths_must_split_the_inputs(self):
        params = RecurrentParams.init("gru", 3, 4, np.random.default_rng(11))
        with pytest.raises(ValueError, match="do not split"):
            run(np.zeros((4, 3)), params, lengths=[2, 3])
        np.testing.assert_array_equal(ad.packed_rows([1, 3]), [[0, -1, -1], [1, 2, 3]])

    @pytest.mark.parametrize("kind", ["gru", "lstm"])
    def test_records_one_tape_node(self, kind):
        params = RecurrentParams.init(kind, 3, 4, np.random.default_rng(14))
        rows = ad.parameter(np.concatenate(self.make_inputs([3, 1, 2], seed=15)))
        with ad.Tape() as tape:
            states = run_sequence(rows, [3, 1, 2], params)
            assert [out for out, _ in tape._nodes] == [states]


@pytest.mark.parametrize("kind", ["gru", "lstm"])
def test_init_equals_per_gate_draws_in_gate_order(kind):
    params = RecurrentParams.init(kind, 3, 4, np.random.default_rng(16))
    rng = np.random.default_rng(16)
    bound_w, bound_u = np.sqrt(6.0 / (3 + 4)), np.sqrt(6.0 / (2 * 4))
    slices = gate_slices(params)
    for g in GATES[kind]:   # input map then state map, gate after gate
        np.testing.assert_array_equal(slices[f"w{g}"], rng.uniform(-bound_w, bound_w, (4, 3)))
        np.testing.assert_array_equal(slices[f"u{g}"], rng.uniform(-bound_u, bound_u, (4, 4)))
        np.testing.assert_array_equal(slices[f"b{g}"], 0.0)
    assert {name: t.shape for name, t in params.named().items()} == {
        "rnn_w": (len(GATES[kind]), 4, 3), "rnn_u": (len(GATES[kind]), 4, 4),
        "rnn_b": (len(GATES[kind]), 4)}

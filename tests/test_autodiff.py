import math

import numpy as np
import pytest

from catnet import autodiff as ad
from gradcheck import central_difference, max_relative_error


def test_softmax_uniform_on_equal_logits():
    out = ad.stable_softmax(ad.tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_overflow_safe():
    out = ad.stable_softmax(ad.tensor([1000.0, 1000.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=0)


def test_softmax_exp_ratio():
    out = ad.stable_softmax(ad.tensor([math.log(1.0), math.log(3.0)]))
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-15)


def test_softmax_masked_entries_exact_zero_and_sum_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(2, 12)
        offset = rng.choice([-1e3, 0.0, 1e3])
        logits = offset + rng.uniform(-50, 50, n)
        mask = rng.random(n) < 0.6
        if not mask.any():
            mask[rng.integers(0, n)] = True
        out = ad.stable_softmax(ad.tensor(logits), mask).data
        assert np.all(out[~mask] == 0.0)
        assert np.all(out[mask] > 0.0)
        assert abs(out.sum() - 1.0) <= 1e-12


def test_softmax_sum_survives_extreme_spread():
    out = ad.stable_softmax(ad.tensor([-1e3, 0.0, 1e3, 999.5])).data
    assert abs(out.sum() - 1.0) <= 1e-12


def test_softmax_empty_mask_rejected():
    with pytest.raises(ValueError, match=r"^stable_softmax: empty attention support .*\(2,\)"):
        ad.stable_softmax(ad.tensor([1.0, 2.0]), np.array([False, False]))


def test_backward_sum_gives_ones():
    x = ad.parameter(np.arange(6.0).reshape(2, 3))
    with ad.Tape():
        loss = ad.sum_over(x)
        ad.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sigmoid_at_zero_is_quarter_times_coefficient():
    w = ad.parameter(np.array(0.0))
    with ad.Tape():
        loss = ad.sigmoid(ad.scale(w, 3.0))
        ad.backward(loss)
    np.testing.assert_allclose(w.grad, 0.25 * 3.0, rtol=1e-15)


def test_backward_rejects_non_scalar():
    x = ad.parameter([1.0, 2.0])
    with ad.Tape():
        y = ad.tanh(x)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(y)


def test_backward_rejects_untaped_loss():
    x = ad.parameter([1.0])
    y = ad.sum_over(x)  # no tape active
    with pytest.raises(ValueError, match="tape"):
        ad.backward(y)


def test_second_backward_on_same_loss_rejected():
    x = ad.parameter([1.0, 2.0])
    with ad.Tape():
        loss = ad.sum_over(ad.tanh(x))
        ad.backward(loss)
        with pytest.raises(ValueError, match="already replayed"):
            ad.backward(loss)


def test_op_after_inner_tape_exits_lands_on_outer_tape():
    x = ad.parameter([0.5, -1.0])
    with ad.Tape():
        before = ad.tanh(x)
        with ad.Tape():
            inner_loss = ad.sum_over(ad.tanh(x))
        loss = ad.sum_over(ad.add(before, ad.tanh(x)))      # recorded after the inner tape exits
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * (1 - np.tanh(x.data) ** 2), rtol=1e-15)
    x.grad = None
    ad.backward(inner_loss)                                  # the inner tape kept its own record
    np.testing.assert_allclose(x.grad, 1 - np.tanh(x.data) ** 2, rtol=1e-15)
    with pytest.raises(ValueError, match="not recorded on a tape"):
        ad.backward(ad.sum_over(x))                          # no tape is active after both exit


def test_backward_rejects_non_tensor():
    with pytest.raises(TypeError, match="Tensor"):
        ad.backward(1.0)


def test_stack_hands_repeated_rows_gradients_in_row_order():
    rng = np.random.default_rng(2)
    a = ad.parameter(rng.uniform(-1, 1, (3, 4)))
    coeff = rng.uniform(-1, 1, (3, 4, 4)) * 10.0 ** rng.uniform(-8, 8, (1, 1, 4))
    with ad.Tape():
        ad.backward(ad.sum_over(ad.mul(ad.stack([a, a, a, a], axis=2), ad.tensor(coeff))))
    expected = coeff[..., 0].copy()
    for i in (1, 2, 3):
        expected += coeff[..., i]
    np.testing.assert_array_equal(a.grad, expected)


def test_elementwise_trivia():
    assert ad.tanh(ad.tensor(0.0)).item() == 0.0
    assert ad.sigmoid(ad.tensor(0.0)).item() == 0.5
    x = np.array([1.5, -2.0, 0.25])
    out = ad.matmul(ad.tensor(np.eye(3)), ad.tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
        ad.add(ad.tensor([1.0, 2.0]), ad.tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match=r"\(2, 2\).*\(3,\)"):
        ad.matmul(ad.tensor(np.eye(2)), ad.tensor([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match=r"concat: .*\(1, 2\).*\(1, 3\)"):  # rows with the new axis
        ad.stack([ad.tensor([1.0, 2.0]), ad.tensor([1.0, 2.0, 3.0])])


def test_non_finite_result_rejected():
    big = ad.tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        ad.scale(big, 1e10)


def test_non_finite_error_names_op_and_input_shapes():
    big = ad.tensor(np.full((2, 3), 1e308))
    with np.errstate(over="ignore"), \
            pytest.raises(FloatingPointError, match=r"^mul .*\(2, 3\), \(3,\)"):
        ad.mul(big, ad.tensor([10.0, 1.0, 1.0]))


def test_padding_leaves_values_bitwise_unchanged():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k, pad, n = rng.integers(1, 14), rng.integers(1, 12), rng.integers(1, 6)
        logits = rng.uniform(-30, 30, (3, k))
        rows = rng.uniform(-1, 1, (3, k, n)) * 10.0 ** rng.uniform(-6, 6, (3, k, 1))
        padded_logits = np.concatenate([logits, rng.uniform(-30, 30, (3, pad))], axis=1)
        padded_rows = np.concatenate([rows, rng.uniform(-1, 1, (3, pad, n))], axis=1)
        mask = np.arange(k + pad) < k

        w = ad.stable_softmax(ad.tensor(logits))
        wp = ad.stable_softmax(ad.tensor(padded_logits), mask)
        np.testing.assert_array_equal(wp.data[:, :k], w.data)
        np.testing.assert_array_equal(
            ad.weighted_row_sum(ad.reshape(wp, (3, 1, -1)), ad.tensor(padded_rows)).data,
            ad.weighted_row_sum(ad.reshape(w, (3, 1, -1)), ad.tensor(rows)).data)
        zero_padded = np.concatenate([rows, np.zeros((3, pad, n))], axis=1)
        np.testing.assert_array_equal(ad.sum_over(ad.tensor(zero_padded), axis=1).data,
                                      ad.sum_over(ad.tensor(rows), axis=1).data)


def test_sums_add_left_to_right():
    # the documented order: softmax denominator and weighted row sum add their
    # terms one after another, first index first, like a plain Python loop
    rng = np.random.default_rng(6)
    for _ in range(50):
        k, n = rng.integers(2, 14), rng.integers(1, 5)
        logits = rng.uniform(-30, 30, k)
        rows = rng.uniform(-1, 1, (k, n)) * 10.0 ** rng.uniform(-6, 6, (k, 1))
        e = np.exp(logits - logits.max())
        total = 0.0
        for term in e.tolist():
            total += term
        w = ad.stable_softmax(ad.tensor(logits)).data
        np.testing.assert_array_equal(w, e / total)
        expected = []
        for j in range(n):
            acc = 0.0
            for i in range(k):
                acc += float(w[i]) * float(rows[i, j])
            expected.append(acc)
        np.testing.assert_array_equal(
            ad.weighted_row_sum(ad.tensor(w[None, :]), ad.tensor(rows)).data[0], expected)


def test_determinism_bitwise():
    def run():
        x = ad.parameter(np.linspace(-1, 1, 8))
        w = ad.parameter(np.linspace(0.3, 0.9, 8))
        with ad.Tape():
            y = ad.sum_over(ad.mul(ad.tanh(x), ad.sigmoid(w)))
            ad.backward(y)
        return y.item(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[2], b[2])


def _random_graph_loss(params):
    """Deterministic composite graph touching every op family."""
    w1, w2, b1, emb, q = params
    h = ad.tanh(ad.add(ad.matmul(w1, ad.tensor([0.7, -0.3, 0.4])), b1))
    g = ad.sigmoid(ad.matmul(w2, h))
    row = ad.take_row(emb, 1)
    att = ad.stable_softmax(ad.scale(ad.matmul(emb, q), 1.0 / math.sqrt(3.0)),
                            np.array([True, True, False, True]))
    ctx = ad.matmul(att, emb)
    v = ad.concat([g, ctx, ad.mul(row, row)])
    m = ad.stack([v, ad.affine(v, -1.0, 0.5)])
    pooled = ad.sum_over(m, axis=0)
    pred = ad.sigmoid(pooled)
    target = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0][: pred.data.size])
    return ad.binary_cross_entropy(pred, target)


def test_random_graph_matches_finite_differences():
    rng = np.random.default_rng(123)
    params = [
        ad.parameter(rng.uniform(-0.5, 0.5, (2, 3))),
        ad.parameter(rng.uniform(-0.5, 0.5, (2, 2))),
        ad.parameter(rng.uniform(-0.5, 0.5, 2)),
        ad.parameter(rng.uniform(-0.5, 0.5, (4, 3))),
        ad.parameter(rng.uniform(-0.5, 0.5, 3)),
    ]
    assert sum(p.size for p in params) >= 20

    with ad.Tape():
        loss = _random_graph_loss(params)
        ad.backward(loss)
    analytic = [p.grad.copy() for p in params]

    numeric = central_difference(lambda: _random_graph_loss(params).item(),
                                 [p.data for p in params])
    assert max_relative_error(analytic, numeric) <= 1e-4


@pytest.mark.parametrize("seed", range(4))
def test_each_op_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = ad.parameter(rng.uniform(-0.5, 0.5, (3, 4)))
    b = ad.parameter(rng.uniform(-0.5, 0.5, (3, 4)))
    m = ad.parameter(rng.uniform(-0.5, 0.5, (4, 3)))
    v = ad.parameter(rng.uniform(-0.5, 0.5, 4))
    coeff = rng.uniform(-1, 1, (3, 4))
    cv = rng.uniform(-1, 1, 3)

    cases = {
        "add": lambda: ad.sum_over(ad.mul(ad.add(a, b), ad.tensor(coeff))),
        "sub": lambda: ad.sum_over(ad.mul(ad.sub(a, b), ad.tensor(coeff))),
        "scale": lambda: ad.sum_over(ad.mul(ad.scale(a, -1.7), ad.tensor(coeff))),
        "affine": lambda: ad.sum_over(ad.mul(ad.affine(a, 0.6, -2.0), ad.tensor(coeff))),
        "mean": lambda: ad.mean(ad.mul(ad.tanh(a), ad.tensor(coeff))),
        "mul": lambda: ad.sum_over(ad.mul(ad.mul(a, b), ad.tensor(coeff))),
        "tanh": lambda: ad.sum_over(ad.mul(ad.tanh(a), ad.tensor(coeff))),
        "sigmoid": lambda: ad.sum_over(ad.mul(ad.sigmoid(a), ad.tensor(coeff))),
        "matmul": lambda: ad.sum_over(ad.mul(ad.matmul(a, m), ad.tensor(np.ones((3, 3))))),
        "matvec": lambda: ad.sum_over(ad.mul(ad.matmul(a, v), ad.tensor(cv))),
        "concat": lambda: ad.sum_over(ad.mul(ad.concat([v, v]), ad.tensor(np.ones(8)))),
        "softmax": lambda: ad.sum_over(ad.mul(ad.stable_softmax(v),
                                              ad.tensor([0.3, -0.2, 0.9, 0.1]))),
        "take_row": lambda: ad.sum_over(ad.mul(ad.take_row(m, 2), ad.tensor(cv))),
        "sum_axis": lambda: ad.sum_over(ad.mul(ad.sum_over(a, axis=1), ad.tensor(cv))),
        "broadcast": lambda: ad.sum_over(ad.mul(ad.sub(ad.mul(a, v), ad.add(b, v)),
                                                ad.tensor(coeff))),
        "einsum": lambda: ad.sum_over(ad.mul(ad.einsum("ij,kj->ik", a, b),
                                             ad.tensor(coeff[:, :3]))),
        "linear": lambda: ad.sum_over(ad.mul(ad.linear(a, b, ad.tensor(np.zeros(3))),
                                             ad.tensor(coeff[:, :3]))),
        "linear_batched": lambda: ad.sum_over(ad.mul(
            ad.linear(ad.reshape(ad.concat([a, b], axis=0), (2, 4, 3)), m, v),
            ad.tensor(np.concatenate([coeff, -coeff[::-1], coeff[:2]]).reshape(2, 4, 4)))),
        "concat_rows": lambda: ad.sum_over(ad.mul(ad.concat([a, b], axis=0),
                                                  ad.tensor(np.vstack([coeff, -coeff])))),
        "stack_reshape": lambda: ad.sum_over(ad.mul(ad.reshape(ad.stack([a, b], axis=1), (3, 8)),
                                                    ad.tensor(np.hstack([coeff, coeff[::-1]])))),
        "take_rows": lambda: ad.sum_over(ad.mul(ad.take_row(m, [[2, 0], [2, 1]]),
                                                ad.tensor(np.ones((2, 2, 3)) * cv))),
        "softmax_rows": lambda: ad.sum_over(ad.mul(ad.stable_softmax(a, [True, False, True, True]),
                                                   ad.tensor(coeff))),
        "row_sum_a": lambda: ad.sum_over(ad.mul(ad.weighted_row_sum(
            ad.reshape(a, (3, 1, 4)), ad.stack([m, m, m])),
            ad.tensor(coeff[:, None, :3]))),
        "row_sum_b": lambda: ad.sum_over(ad.mul(ad.weighted_row_sum(
            ad.reshape(b, (3, 1, 4)), ad.stack([m, m, m])),
            ad.tensor(coeff[:, None, :3]))),
    }
    for name, f in cases.items():
        for p in (a, b, m, v):
            p.grad = None
        with ad.Tape():
            ad.backward(f())
        analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                    for p in (a, b, m, v)]
        numeric = central_difference(lambda: f().item(), [p.data for p in (a, b, m, v)])
        err = max_relative_error(analytic, numeric)
        assert err <= 1e-4, f"{name}: rel err {err}"


def test_bce_closed_forms():
    half = ad.tensor([0.5, 0.5, 0.5])
    y = np.array([1.0, 0.0, 1.0])
    assert abs(ad.binary_cross_entropy(half, y).item() - math.log(2)) < 1e-12

    pred = ad.tensor([0.9, 0.1])
    loss = ad.binary_cross_entropy(pred, np.array([1.0, 0.0]))
    np.testing.assert_allclose(loss.item(), -math.log(0.9), rtol=1e-12)

    exact = ad.binary_cross_entropy(ad.tensor([1.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(exact.item(), -math.log(1.0 - 1e-7), rtol=1e-6)


def test_bce_rejects_non_binary_targets():
    with pytest.raises(ValueError, match="0 or 1"):
        ad.binary_cross_entropy(ad.tensor([0.5]), np.array([0.3]))


def test_grad_accumulates_once_per_use():
    x = ad.parameter(np.array([2.0]))
    with ad.Tape():
        y = ad.sum_over(ad.mul(x, x))  # x used twice -> d/dx = 2x
        ad.backward(y)
    np.testing.assert_allclose(x.grad, [4.0], rtol=1e-15)


def test_take_row_gradient_equals_add_at_bitwise():
    rng = np.random.default_rng(8)
    for index in (np.array([3, 0, 3, 3, 5, 0]), np.array([[1, 4, 1], [-1, 4, -1]]), 2, -1):
        table = ad.parameter(rng.uniform(-1, 1, (6, 5)))
        shape = np.shape(index) + (5,)
        g = rng.uniform(-1, 1, shape) * 10.0 ** rng.uniform(-9, 9, shape)
        with ad.Tape():
            rows = ad.take_row(table, index)
            ad.backward(ad.sum_over(ad.mul(rows, ad.tensor(g))))
        real = np.asarray(index) >= 0       # -1 reads a row of +0.0 and gets no gradient
        assert rows.data[~real].tobytes() == bytes(8 * rows.data[~real].size)
        np.testing.assert_array_equal(rows.data[real], table.data[np.asarray(index)[real]])
        expected = np.zeros((6, 5))
        np.add.at(expected, np.asarray(index)[real], g[real])
        np.testing.assert_array_equal(table.grad, expected)


@pytest.mark.parametrize("index", [-2, 6, [[0, 5], [6, -1]], [-7]])
def test_take_row_rejects_index_outside_table(index):
    table = ad.parameter(np.ones((6, 5)))
    with pytest.raises(IndexError, match=r"take_row: index outside \[-1, 6\) .*\(6, 5\)"):
        ad.take_row(table, index)


def test_linear_rejects_bias_of_wrong_shape():
    x, w = ad.tensor(np.ones((2, 3))), ad.parameter(np.ones((4, 3)))
    for bias in (np.zeros(3), np.zeros((1, 4)), np.zeros(())):
        with pytest.raises(ValueError, match=r"linear: shape mismatch .*bias \("):
            ad.linear(x, w, ad.parameter(bias))


@pytest.mark.parametrize("width", [16, 64, 208, 592])
def test_row_product_and_linear_rows_are_row_stable(width):
    rng = np.random.default_rng(width)
    block = ad.ROW_BLOCK
    x = rng.uniform(-1, 1, (3 * block + 4, width)) * 10.0 ** rng.uniform(-3, 3, (3 * block + 4, 1))
    for n_out in (1, 3, 64):
        w, zero = rng.uniform(-1, 1, (n_out, width)), ad.tensor(np.zeros(n_out))
        alone = np.stack([ad.row_product(x[i], w.T) for i in range(len(x))])
        np.testing.assert_array_equal(alone, np.concatenate(
            [ad.linear(ad.tensor(x[i:i + 1]), ad.tensor(w), zero).data for i in range(len(x))]))
        for n in (1, block - 1, block + 1, 3 * block + 1):
            for start in (0, 3, len(x) - n):
                rows = x[start:start + n]
                np.testing.assert_array_equal(ad.row_product(rows, w.T), alone[start:start + n])
                np.testing.assert_array_equal(ad.linear(ad.tensor(rows), ad.tensor(w), zero).data,
                                              alone[start:start + n])
        batched = ad.linear(ad.tensor(x[:3 * block].reshape(3, block, width)), ad.tensor(w), zero)
        np.testing.assert_array_equal(batched.data, alone[:3 * block].reshape(3, block, n_out))


@pytest.mark.parametrize("n_rows", [1, 5, 8, 21])
def test_row_product_gate_axis_equals_one_product_per_gate(n_rows):
    rng = np.random.default_rng(n_rows)
    maps = rng.uniform(-1, 1, (4, 6, 6))
    shared = rng.uniform(-1, 1, (n_rows, 6))
    per_gate = rng.uniform(-1, 1, (4, n_rows, 6))
    # transposed and reversed views, as the recurrence passes them
    for w in (maps, maps.transpose(0, 2, 1), maps[::-1], maps[1::-1]):
        got = ad.row_product(shared, w)
        assert got.shape == (len(w), n_rows, 6)
        for k in range(len(w)):
            np.testing.assert_array_equal(got[k], ad.row_product(shared, w[k]))
        got = ad.row_product(per_gate[:len(w)], w)
        for k in range(len(w)):
            np.testing.assert_array_equal(got[k], ad.row_product(per_gate[k], w[k]))


@pytest.mark.parametrize("n_out", [1, 3, 64])
def test_linear_weight_gradient_ignores_interleaved_zero_gradient_rows(n_out):
    rng = np.random.default_rng(n_out)
    for n_rows, width in ((5, 16), (70, 208), (350, 64), (600, 16)):
        x = rng.uniform(-1, 1, (n_rows, width))
        coeff = rng.uniform(-1, 1, (n_rows, n_out))
        n_zero = int(rng.integers(1, n_rows + 40))
        at = np.sort(rng.integers(0, n_rows + 1, n_zero))
        grads = []
        for rows, g in ((x, coeff), (np.insert(x, at, rng.uniform(-1, 1, (n_zero, width)), axis=0),
                                     np.insert(coeff, at, 0.0, axis=0))):
            w = ad.parameter(np.linspace(-1.0, 1.0, n_out * width).reshape(n_out, width))
            with ad.Tape():
                y = ad.linear(ad.tensor(rows), w, ad.tensor(np.zeros(n_out)))
                ad.backward(ad.sum_over(ad.mul(y, ad.tensor(g))))
            grads.append(w.grad)
        np.testing.assert_array_equal(grads[0], grads[1])

import numpy as np

from catnet import autodiff as ad
from catnet.time_kernel import TimeKernelParams, time_embed
from gradcheck import central_difference, max_relative_error


def scalar_kernel(w1=1.0, b1=0.0, w2=1.0, b2=0.0):
    return TimeKernelParams(w1=ad.parameter([w1]), b1=ad.parameter([b1]),
                            w2=ad.parameter([[w2]]), b2=ad.parameter([b2]))


def test_zero_output_weights_give_constant_bias():
    v = np.array([0.3, -1.2, 0.8])
    params = TimeKernelParams(w1=ad.parameter([0.7, -0.2, 0.5]), b1=ad.parameter([0.1, 0.4, -0.3]),
                              w2=ad.parameter(np.zeros((3, 3))), b2=ad.parameter(v))
    for delta in (0.0, 1.0, 17.5, 400.0):
        np.testing.assert_array_equal(time_embed(delta, params).data, v)


def test_init_draws_one_width_in_order():
    params = TimeKernelParams.init(3, np.random.default_rng(8))
    rng, bound = np.random.default_rng(8), np.sqrt(6.0 / 6)
    expected = (rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3),
                rng.uniform(-bound, bound, (3, 3)), np.zeros(3))
    for tensor, want in zip((params.w1, params.b1, params.w2, params.b2), expected):
        assert tensor.data.tobytes() == want.tobytes()


def test_identity_kernel_at_zero_gap():
    assert time_embed(0.0, scalar_kernel()).data[0] == 1.0


def test_kernel_saturates_for_large_gap():
    assert time_embed(10.0, scalar_kernel()).data[0] <= 1e-8


def test_kernel_component_range_and_affine_image():
    rng = np.random.default_rng(3)
    params = TimeKernelParams.init(4, rng)
    w2 = params.w2.data
    b2 = params.b2.data
    lo = np.minimum(w2, 0.0).sum(axis=1) + b2
    hi = np.maximum(w2, 0.0).sum(axis=1) + b2
    for delta in rng.uniform(0, 50, 25):
        out = time_embed(float(delta), params).data
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)
    # strict (0, 1] component range, checked below tanh's float64 saturation point
    for delta in rng.uniform(0, 6, 25):
        u = params.w1.data * delta + params.b1.data
        kernel = 1.0 - np.tanh(u * u)
        assert np.all(kernel > 0.0) and np.all(kernel <= 1.0)


def test_monotone_decrease_for_positive_scalar_weight():
    params = scalar_kernel(w1=0.37)
    deltas = np.linspace(0.1, 8.0, 40)
    vals = [time_embed(float(d), params).data[0] for d in deltas]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_equal_squared_preactivations_give_equal_outputs():
    # (w1*d + b1)^2 equal for d and its mirror around -b1/w1
    params = scalar_kernel(w1=1.0, b1=-3.0, w2=2.0, b2=0.5)
    a = time_embed(1.0, params).data   # (1 - 3)^2 = 4
    b = time_embed(5.0, params).data   # (5 - 3)^2 = 4
    np.testing.assert_array_equal(a, b)
    repeat = time_embed(1.0, params).data
    np.testing.assert_array_equal(a, repeat)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    params = TimeKernelParams.init(4, rng)
    coeff = rng.uniform(-1, 1, 4)
    tensors = [params.w1, params.b1, params.w2, params.b2]

    def loss_value():
        return ad.sum_over(ad.mul(time_embed(2.5, params), ad.tensor(coeff))).item()

    with ad.Tape():
        loss = ad.sum_over(ad.mul(time_embed(2.5, params), ad.tensor(coeff)))
        ad.backward(loss)
    analytic = [t.grad.copy() for t in tensors]
    numeric = central_difference(loss_value, [t.data for t in tensors])
    assert max_relative_error(analytic, numeric) <= 1e-4


def test_array_of_gaps_matches_one_gap_at_a_time_bitwise():
    rng = np.random.default_rng(19)
    params = TimeKernelParams.init(4, rng)
    gaps = rng.uniform(0, 20, (3, 7))
    batched = time_embed(gaps, params).data
    assert batched.shape == (3, 7, 4)
    for index in np.ndindex(gaps.shape):
        np.testing.assert_array_equal(batched[index], time_embed(gaps[index], params).data)

import numpy as np
import pytest

from oracles import comparison_node, gradient_check, tsum
from siggraphgan import autodiff as ad
from siggraphgan import layers as ly
from siggraphgan import visibility as vg
from siggraphgan.errors import ConfigError, GraphError, NumericError, ShapeError
from siggraphgan.optim import RmsProp
from siggraphgan.siggan import _log_softmax, _mse_gap, _softmax, _softmax_kl, sig_kld_loss


def parameterize(rng, shape, name):
    return ad.Parameter(rng.standard_normal(shape), name)


class TestDense:
    def test_identity_weight(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        w = ad.Parameter(np.eye(2), "w")
        b = ad.Parameter(np.zeros(2), "b")
        assert ly.dense_forward(ad.Tensor(x), w, b).value == pytest.approx(x)

    def test_hand_matmul(self):
        out = ly.dense_forward(
            ad.Tensor(np.array([[1.0, 2.0]])),
            ad.Parameter(np.array([[1.0], [1.0]]), "w"),
            ad.Parameter(np.array([0.5]), "b"),
        )
        assert out.value == pytest.approx(np.array([[3.5]]))

    def test_bias_only(self):
        out = ly.dense_forward(
            ad.Tensor(np.zeros((3, 2))),
            ad.Parameter(np.ones((2, 4)), "w"),
            ad.Parameter(np.array([1.0, 2.0, 3.0, 4.0]), "b"),
        )
        assert out.value == pytest.approx(np.tile([1.0, 2.0, 3.0, 4.0], (3, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ly.dense_forward(
                ad.Tensor(np.zeros((2, 3))),
                ad.Parameter(np.zeros((4, 2)), "w"),
                ad.Parameter(np.zeros(2), "b"),
            )


class TestLstm:
    def test_zero_weights_zero_hidden(self):
        rng = np.random.default_rng(0)
        lstm = ly.LSTM(ly.RandomInit(rng), 3, 4, "l")
        for p in lstm.parameters():
            p.value = np.zeros_like(p.value)
        out = lstm(ad.Tensor(rng.standard_normal((2, 6, 3))))
        assert np.all(out.value == 0.0)

    def test_single_step(self):
        rng = np.random.default_rng(1)
        lstm = ly.LSTM(ly.RandomInit(rng), 2, 3, "l")
        out = lstm(ad.Tensor(rng.standard_normal((1, 1, 2))))
        assert out.value.shape == (1, 1, 3)

    def test_scalar_hand_computation(self):
        rng = np.random.default_rng(2)
        lstm = ly.LSTM(ly.RandomInit(rng), 1, 1, "l")
        lstm.w_input.value = np.array([[0.3, -0.2, 0.5, 0.1]])
        lstm.w_recur.value = np.array([[0.05, 0.2, -0.1, 0.4]])
        lstm.bias.value = np.array([0.01, 1.0, -0.02, 0.3])
        x = 0.7
        out = lstm(ad.Tensor(np.array([[[x]]])))

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        pre = x * lstm.w_input.value[0] + lstm.bias.value
        gate_i, gate_f = sigmoid(pre[0]), sigmoid(pre[1])
        gate_g, gate_o = np.tanh(pre[2]), sigmoid(pre[3])
        cell = gate_i * gate_g
        hidden = gate_o * np.tanh(cell)
        assert out.value[0, 0, 0] == pytest.approx(hidden, abs=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        lstm = ly.LSTM(ly.RandomInit(rng), 2, 3, "l")
        with pytest.raises(ShapeError):
            lstm(ad.Tensor(np.zeros((1, 4, 5))))

    def test_forward_only_keeps_no_state(self):
        rng = np.random.default_rng(5)
        lstm = ly.LSTM(ly.RandomInit(rng), 2, 3, "l")
        seq = ad.Tensor(rng.standard_normal((4, 7, 2)))
        with_grad = lstm(seq)
        assert with_grad._parents
        for p in lstm.parameters():
            p.requires_grad = False
        forward_only = lstm(seq)
        assert forward_only._parents == ()
        assert np.array_equal(forward_only.value, with_grad.value)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("steps", [1, 2, 10, 11, 21, 25])
    def test_blocked_projection_matches_one_product(self, batch, steps):
        rng = np.random.default_rng(6)
        lstm = ly.LSTM(ly.RandomInit(rng), 2, 3, "l")
        x = rng.standard_normal((batch, steps, 2))
        expected = lstm_over_full_projection(lstm, x)
        assert np.array_equal(lstm(ad.Tensor(x)).value, expected)

    def test_step_blocks_cover_sequence(self):
        for steps in range(1, 45):
            blocks = list(ly._step_blocks(steps))
            assert blocks[0][0] == 0 and blocks[-1][1] == steps
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            assert all(stop - start >= min(2, steps) for start, stop in blocks)
            assert all(stop - start <= ly.PROJECTION_STEPS + 1 for start, stop in blocks)

    def test_graph_size_independent_of_length(self):
        # the recurrence is one graph node, not one per time step
        rng = np.random.default_rng(4)
        lstm = ly.LSTM(ly.RandomInit(rng), 2, 3, "l")
        sizes = []
        for steps in (3, 50):
            out = lstm(ad.Tensor(rng.standard_normal((2, steps, 2))))
            sizes.append(len(ad._toposort(tsum(out))))
        assert sizes[0] == sizes[1]


def lstm_over_full_projection(lstm, x):
    """Reference LSTM forward: the input of all steps projected in one product."""
    batch, steps, features = x.shape
    hidden = lstm.hidden
    gates_in = x.reshape(batch * steps, features) @ lstm.w_input.value + lstm.bias.value
    gates_in = gates_in.reshape(batch, steps, 4 * hidden)
    h = np.zeros((batch, hidden))
    c = np.zeros_like(h)
    out = np.empty((batch, steps, hidden))
    for t in range(steps):
        pre = gates_in[:, t, :] + h @ lstm.w_recur.value
        gate_i = ly._sigmoid(pre[:, :hidden])
        gate_f = ly._sigmoid(pre[:, hidden : 2 * hidden])
        gate_g = np.tanh(pre[:, 2 * hidden : 3 * hidden])
        gate_o = ly._sigmoid(pre[:, 3 * hidden :])
        c = gate_f * c + gate_i * gate_g
        h = gate_o * np.tanh(c)
        out[:, t, :] = h
    return out


def gcn(h, adjacency, theta):
    """Graph convolution as the model runs it: normalize, then apply."""
    return ly.gcn_apply(h, ly.normalized_adjacency(adjacency), theta)


class TestGcn:
    def test_isolated_node(self):
        h = np.array([[0.4, -0.2]])
        theta = ad.Parameter(np.array([[1.0, 0.0], [0.5, -1.0]]), "t")
        out = gcn(ad.Tensor(h), np.zeros((1, 1)), theta)
        assert out.value == pytest.approx(np.tanh(h @ theta.value))

    def test_disconnected_nodes_independent(self):
        h = np.array([[1.0], [2.0]])
        theta = ad.Parameter(np.array([[0.7]]), "t")
        out = gcn(ad.Tensor(h), np.zeros((2, 2)), theta)
        assert out.value == pytest.approx(np.tanh(h * 0.7))

    def test_two_connected_nodes_average(self):
        out = gcn(
            ad.Tensor(np.array([[1.0], [3.0]])),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            ad.Parameter(np.array([[1.0]]), "t"),
        )
        assert out.value == pytest.approx(np.full((2, 1), np.tanh(2.0)), abs=1e-5)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        series = rng.standard_normal(7)
        adjacency = vg.natural_visibility(series).adjacency.astype(float)
        h = rng.standard_normal((7, 3))
        theta = ad.Parameter(rng.standard_normal((3, 2)), "t")
        base = gcn(ad.Tensor(h), adjacency, theta).value
        perm = rng.permutation(7)
        permuted = gcn(
            ad.Tensor(h[perm]), adjacency[np.ix_(perm, perm)], theta
        ).value
        assert permuted == pytest.approx(base[perm])

    def test_graph_errors(self):
        with pytest.raises(GraphError):
            ly.normalized_adjacency(np.zeros((2, 3)))
        with pytest.raises(GraphError):
            ly.normalized_adjacency(np.zeros(3))
        with pytest.raises(GraphError):
            ly.normalized_adjacency(np.eye(2))
        batch = np.zeros((3, 4, 4))
        batch[1, 2, 2] = 1.0  # one self-loop in the middle of a stack
        with pytest.raises(GraphError):
            ly.normalized_adjacency(batch)
        with pytest.raises(GraphError):
            ly.normalized_adjacency(np.zeros((3, 4, 5)))


class TestActivations:
    def test_prelu_positive_passthrough(self):
        x = np.array([0.1, 2.0, 7.0])
        assert ad.prelu(ad.Tensor(x)).value == pytest.approx(x)

    def test_prelu_negative_scaling(self):
        assert ad.prelu(ad.Tensor(np.array([-4.0]))).value == pytest.approx([-1.0])

    def test_prelu_mixed(self):
        out = ad.prelu(ad.Tensor(np.array([-2.0, 0.0, 3.0])))
        assert out.value == pytest.approx([-0.5, 0.0, 3.0])

    def test_softmax_uniform(self):
        assert _softmax(np.full(5, 3.3)) == pytest.approx(np.full(5, 0.2))

    def test_softmax_closed_form(self):
        assert _softmax(np.array([0.0, np.log(3.0)])) == pytest.approx([0.25, 0.75])

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(9)
        assert _softmax(v) == pytest.approx(_softmax(v + 123.4), abs=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(6)
        out = _softmax(rng.standard_normal((4, 7)))
        assert out.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)
        assert np.all(out > 0)

    def test_log_softmax_consistent(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((3, 5))
        assert _log_softmax(v) == pytest.approx(np.log(_softmax(v)))


class TestDropout:
    def test_rate_zero_identity(self):
        x = ad.Tensor(np.arange(10.0))
        out = ad.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert out is x  # no copy, no graph node

    def test_inference_identity(self):
        x = ad.Tensor(np.arange(10.0))
        assert ad.dropout(x, 0.9, training=False) is x

    def test_statistics_at_table_rate(self):
        rng = np.random.default_rng(8)
        x = np.ones(100_000)
        out = ad.dropout(ad.Tensor(x), 0.31, training=True, rng=rng).value
        zero_fraction = np.mean(out == 0.0)
        assert abs(zero_fraction - 0.31) <= 0.01
        assert abs(out.mean() - 1.0) <= 0.02

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            ad.dropout(ad.Tensor(np.zeros(3)), 1.0, training=True)


class TestLossOps:
    def test_kl_zero_on_equal(self):
        logits = np.array([0.3, -1.0, 2.0])
        assert _softmax_kl(logits, logits)[0] == pytest.approx(0.0, abs=1e-15)

    def test_kl_hand_value(self):
        # softmax([0, 0]) = (1/2, 1/2) and softmax([0, ln 3]) = (1/4, 3/4)
        p = np.array([0.0, 0.0])
        q = np.array([0.0, np.log(3.0)])
        expected = 0.5 * np.log(2.0) - 0.5 * np.log(1.5)
        assert _softmax_kl(p, q)[0] == pytest.approx(expected, abs=1e-12)

    def test_kl_nonnegative_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = rng.standard_normal(6)
            q = rng.standard_normal(6)
            assert _softmax_kl(p, q)[0] >= -1e-12

    def test_mse_examples(self):
        a = np.array([0.0, 0.0])
        b = np.array([1.0, 3.0])
        assert _mse_gap(a, a)[0] == 0.0
        assert _mse_gap(a, b)[0] == pytest.approx(5.0)
        assert _mse_gap(a, b)[0] == pytest.approx(_mse_gap(b, a)[0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sig_kld_loss(ad.Tensor(np.zeros((2, 5, 1))), ad.Tensor(np.zeros((2, 6, 1))))
        with pytest.raises(ShapeError):
            sig_kld_loss(ad.Tensor(np.zeros((2, 5, 1))), ad.Tensor(np.zeros((2, 5, 2))))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = ad.Parameter(np.arange(6.0).reshape(2, 3), "x")
        tsum(x).backward()
        assert x.grad == pytest.approx(np.ones((2, 3)))

    def test_dense_weight_gradient_closed_form(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 3))
        w = ad.Parameter(rng.standard_normal((3, 2)), "w")
        tsum(ad.matmul(ad.Tensor(x), w)).backward()
        assert w.grad == pytest.approx(x.T @ np.ones((4, 2)))

    def test_unused_parameter_gets_no_gradient(self):
        used = ad.Parameter(np.ones(3), "used")
        unused = ad.Parameter(np.ones(3), "unused")
        tsum(ad.tanh(used)).backward()
        assert unused.grad is None  # treated as zero downstream

    def test_intermediate_grads_freed_leaf_grads_kept(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 3))
        w = ad.Parameter(rng.standard_normal((3, 2)), "w")
        b = ad.Parameter(rng.standard_normal(2), "b")
        h = ad.add(ad.matmul(ad.Tensor(x), w), b)
        loss = tsum(ad.add(h, h))  # h feeds both operands
        loss.backward()
        assert np.array_equal(w.grad, x.T @ np.full((4, 2), 2.0))
        assert np.array_equal(b.grad, np.full(2, 8.0))
        assert loss.grad is None and h.grad is None
        assert all(parent.grad is None for parent, _ in h._parents if parent._parents)

    def test_non_scalar_backward_rejected(self):
        x = ad.Parameter(np.ones(3), "x")
        with pytest.raises(ShapeError):
            ad.tanh(x).backward()


def random_graph(rng, n):
    return vg.natural_visibility(rng.standard_normal(n)).adjacency.astype(float)


class TestGradientSuite:
    """Central finite-difference checks, three random shapes per layer."""

    def test_dense(self):
        rng = np.random.default_rng(20)
        for rows, fan_in, fan_out in [(2, 3, 4), (5, 2, 2), (1, 6, 3)]:
            x = ad.Tensor(rng.standard_normal((rows, fan_in)))
            w = parameterize(rng, (fan_in, fan_out), "w")
            b = parameterize(rng, (fan_out,), "b")
            err = gradient_check(
                lambda: tsum(ad.tanh(ly.dense_forward(x, w, b))), [w, b]
            )
            assert err <= 1e-4

    def test_lstm(self):
        rng = np.random.default_rng(21)
        # the last shape spans two projection blocks, the second of 11 steps
        shapes = [(2, 4, 3, 4), (1, 6, 2, 3), (3, 3, 4, 2), (1, 21, 2, 3)]
        for batch, steps, feats, hidden in shapes:
            lstm = ly.LSTM(ly.RandomInit(rng), feats, hidden, "l")
            seq = ad.Parameter(rng.standard_normal((batch, steps, feats)), "seq")
            err = gradient_check(
                lambda: tsum(lstm(seq)), lstm.parameters() + [seq]
            )
            assert err <= 1e-4

    def test_gcn(self):
        rng = np.random.default_rng(22)
        for n, fan_in, fan_out in [(5, 3, 2), (4, 2, 4), (7, 1, 3)]:
            adjacency = random_graph(rng, n)
            h = ad.Parameter(rng.standard_normal((n, fan_in)), "h")
            theta = parameterize(rng, (fan_in, fan_out), "theta")
            err = gradient_check(
                lambda: tsum(gcn(h, adjacency, theta)), [h, theta]
            )
            assert err <= 1e-4

    def test_prelu(self):
        rng = np.random.default_rng(23)
        for shape in [(4,), (3, 5), (2, 3, 2)]:
            x = ad.Parameter(rng.standard_normal(shape) + 0.1, "x")
            err = gradient_check(lambda: tsum(ad.prelu(x)), [x])
            assert err <= 1e-4

    def test_softmax_and_kl(self):
        rng = np.random.default_rng(24)
        for size in (3, 6, 10):
            logits = ad.Parameter(rng.standard_normal((2, size)), "lp")
            other = ad.Tensor(rng.standard_normal((2, size)))
            err = gradient_check(
                lambda: tsum(comparison_node(_softmax_kl, logits, other)),
                [logits],
            )
            assert err <= 1e-4

    def test_mse(self):
        rng = np.random.default_rng(25)
        for shape in [(3,), (2, 4), (2, 2, 3)]:
            a = ad.Parameter(rng.standard_normal(shape), "a")
            b = ad.Tensor(rng.standard_normal(shape))
            err = gradient_check(lambda: comparison_node(_mse_gap, a, b), [a])
            assert err <= 1e-4

    def test_dropout_with_fixed_mask(self):
        rng = np.random.default_rng(26)
        x = ad.Parameter(rng.standard_normal((4, 5)), "x")
        err = gradient_check(
            lambda: tsum(
                ad.dropout(x, 0.4, training=True, rng=np.random.default_rng(99))
            ),
            [x],
        )
        assert err <= 1e-4


class TestNumericGuards:
    def test_nan_input_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericError):
                ad.Tensor(np.array([1.0, bad]))


class TestRmsProp:
    def test_zero_gradient_keeps_parameter(self):
        p = ad.Parameter(np.array([1.5]), "p")
        opt = RmsProp([p], 0.1)
        opt.step()
        assert p.value == pytest.approx([1.5])

    def test_first_step_value(self):
        p = ad.Parameter(np.array([1.0]), "p")
        p.grad = np.array([1.0])
        RmsProp([p], 0.01).step()
        expected = 1.0 - 0.01 / (np.sqrt(0.1) + 1e-8)
        assert p.value == pytest.approx([expected], abs=1e-12)

    def test_sign_symmetry(self):
        p1 = ad.Parameter(np.array([0.0]), "p1")
        p2 = ad.Parameter(np.array([0.0]), "p2")
        p1.grad = np.array([0.7])
        p2.grad = np.array([-0.7])
        RmsProp([p1], 0.05).step()
        RmsProp([p2], 0.05).step()
        assert p1.value == pytest.approx(-p2.value, abs=1e-15)

    def test_zero_learning_rate_identity(self):
        rng = np.random.default_rng(27)
        p = ad.Parameter(rng.standard_normal(5), "p")
        before = p.value.copy()
        p.grad = rng.standard_normal(5)
        RmsProp([p], 0.0).step()
        assert p.value == pytest.approx(before)

    def test_maximize_ascends(self):
        p = ad.Parameter(np.array([1.0]), "p")
        p.grad = np.array([1.0])
        RmsProp([p], 0.01, maximize=True).step()
        assert p.value[0] > 1.0

    def test_non_finite_gradient_names_parameter(self):
        p = ad.Parameter(np.array([1.0]), "badparam")
        p.grad = np.array([np.inf])
        with pytest.raises(NumericError, match="badparam"):
            RmsProp([p], 0.01).step()

    def test_grad_zeroed_after_step(self):
        p = ad.Parameter(np.array([1.0]), "p")
        p.grad = np.array([1.0])
        RmsProp([p], 0.01).step()
        assert p.grad is None

    def test_trust_radius_projection(self):
        p = ad.Parameter(np.array([0.5]), "p")
        opt = RmsProp([p], 10.0, maximize=True, trust_radius=0.01)
        p.grad = np.array([1.0])
        opt.step()
        assert p.value == pytest.approx([0.51])

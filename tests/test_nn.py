from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import comparison_node, gradient_check, lstm_stack_chain, sigmoid, tsum
from siggraphgan import autodiff as ad
from siggraphgan import layers as ly
from siggraphgan import siggan as sg
from siggraphgan import visibility as vg
from siggraphgan.errors import ConfigError, GraphError, NumericError, ShapeError
from siggraphgan.optim import RmsProp
from siggraphgan.siggan import (
    SigGanConfig,
    _log_softmax,
    _mse_gap,
    _softmax,
    _softmax_kl,
    sig_kld_loss,
)


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

    @pytest.mark.parametrize("input_grad", [False, True])
    def test_second_backward_raises(self, input_grad):
        rng = np.random.default_rng(7)
        lstm = ly.LSTM(ly.RandomInit(rng), 2, 3, "l")
        seq = ad.Tensor(rng.standard_normal((2, 4, 2)), requires_grad=input_grad)
        loss = tsum(lstm(seq))
        loss.backward()
        assert all(p.grad is not None for p in lstm.parameters())
        assert (seq.grad is not None) == input_grad
        with pytest.raises(GraphError, match="already backpropagated"):
            loss.backward()

    def test_graph_size_independent_of_length(self):
        # the recurrence is one graph node, not one per time step
        rng = np.random.default_rng(4)
        lstm = ly.LSTM(ly.RandomInit(rng), 2, 3, "l")
        sizes = []
        for steps in (3, 50):
            out = lstm(ad.Tensor(rng.standard_normal((2, steps, 2))))
            sizes.append(len(ad._toposort(tsum(out))))
        assert sizes[0] == sizes[1]


class TestLstmStack:
    """`layers.lstm_stack` against the chain of one-layer nodes and dropout
    nodes it replaces (`oracles.lstm_stack_chain`), bit for bit."""

    @staticmethod
    def stack(rng, depth, features, hidden):
        init = ly.RandomInit(rng)
        layers = [ly.LSTM(init, features if i == 0 else hidden, hidden, f"l{i}")
                  for i in range(depth)]
        return init.params, layers

    @given(
        batch=st.integers(1, 4),
        depth=st.integers(1, 4),
        steps=st.integers(1, 45),
        features=st.integers(1, 3),
        hidden=st.integers(1, 6),
        rate=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        input_grad=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=2, depth=3, steps=1, features=2, hidden=3, rate=0.3, input_grad=True, seed=0)
    @example(batch=1, depth=2, steps=2, features=1, hidden=2, rate=0.0, input_grad=True, seed=1)
    @example(batch=3, depth=4, steps=10, features=1, hidden=4, rate=0.5, input_grad=False, seed=2)
    @example(batch=2, depth=2, steps=11, features=3, hidden=1, rate=0.2, input_grad=True, seed=3)
    @example(batch=4, depth=3, steps=21, features=2, hidden=5, rate=0.0, input_grad=False, seed=4)
    def test_matches_chain_with_and_without_worker(
        self, batch, depth, steps, features, hidden, rate, input_grad, seed
    ):
        rng = np.random.default_rng(seed)
        params, layers = self.stack(rng, depth, features, hidden)
        masks = [rng.random((batch, steps, hidden)) >= rate if rate else None for _ in layers]
        x = rng.standard_normal((batch, steps, features))
        weights = rng.standard_normal((batch, steps, hidden))
        results = []
        with ThreadPoolExecutor(max_workers=1) as worker:
            for run in (
                lambda seq: lstm_stack_chain(seq, layers, masks, rate),
                lambda seq: ly.lstm_stack(seq, layers, masks, rate),
                lambda seq: ly.lstm_stack(seq, layers, masks, rate, worker),
            ):
                for p in params:
                    p.grad = None
                seq = ad.Tensor(x, requires_grad=input_grad)
                out = run(seq)
                loss = ad.from_op(
                    np.sum(out.value * weights), [(out, lambda g: g * weights)], "weighted"
                )
                loss.backward()
                grads = [p.grad for p in params] + ([seq.grad] if input_grad else [])
                results.append((out.value, grads))
        (expected, expected_grads), *ours = results
        for value, grads in ours:
            assert np.array_equal(value, expected)
            assert len(grads) == len(expected_grads)
            for mine, theirs in zip(grads, expected_grads):
                assert np.array_equal(mine, theirs)

    def test_no_grad_forward_keeps_no_per_step_state(self, traced_peak):
        rng = np.random.default_rng(9)
        params, layers = self.stack(rng, 4, 2, 32)
        masks = [rng.random((8, 100, 32)) >= 0.3 for _ in layers]
        x = ad.Tensor(rng.standard_normal((8, 100, 2)))
        with_grad = ly.lstm_stack(x, layers, masks, 0.3)
        for p in params:
            p.requires_grad = False
        with ThreadPoolExecutor(max_workers=1) as worker:
            for pool in (None, worker):
                with traced_peak() as peak:
                    out = ly.lstm_stack(x, layers, masks, 0.3, pool)
                assert out._parents == ()
                assert np.array_equal(out.value, with_grad.value)
                # one layer's kept state alone (gates, cells, their tanh and
                # outputs) is seven times the output's size
                assert peak.bytes < 7 * out.value.nbytes, peak.bytes / out.value.nbytes

    @pytest.mark.parametrize("on_worker", [True, False])
    def test_error_reaches_caller_and_frees_worker(self, on_worker):
        rng = np.random.default_rng(10)
        params, layers = self.stack(rng, 4, 2, 3)
        x = rng.standard_normal((2, 25, 2))
        expected = ly.lstm_stack(ad.Tensor(x), layers).value
        # the lower half runs on the worker, the upper half on the caller
        bad = layers[0 if on_worker else 3].w_recur
        saved = bad.value.copy()
        bad.value[0, 0] = np.nan
        with ThreadPoolExecutor(max_workers=1) as worker:
            with pytest.raises(NumericError, match="lstm"):
                ly.lstm_stack(ad.Tensor(x), layers, None, 0.0, worker)
            assert worker.submit(lambda: "idle").result(timeout=30) == "idle"
            bad.value = saved
            assert np.array_equal(ly.lstm_stack(ad.Tensor(x), layers, None, 0.0, worker).value,
                                  expected)

    @pytest.mark.parametrize("first_on_worker", [True, False])
    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_pipeline_stage_error_leaves_no_thread_waiting(self, first_on_worker, failing):
        def stage(name):
            def run(item, *handed):
                if name == failing and item == 3:
                    raise NumericError(f"{name} failed")
                return item
            return run

        with ThreadPoolExecutor(max_workers=1) as worker:
            with pytest.raises(NumericError, match=f"{failing} failed"):
                ly._pipeline(worker, stage("first"), stage("second"), range(6), first_on_worker)
            assert worker.submit(lambda: "idle").result(timeout=30) == "idle"

    def test_second_backward_raises(self):
        rng = np.random.default_rng(11)
        _, layers = self.stack(rng, 3, 2, 3)
        with ThreadPoolExecutor(max_workers=1) as worker:
            loss = tsum(ly.lstm_stack(ad.Tensor(rng.standard_normal((2, 12, 2))), layers,
                                      None, 0.0, worker))
            loss.backward()
            assert all(p.grad is not None for layer in layers for p in layer.parameters())
            with pytest.raises(GraphError, match="already backpropagated"):
                loss.backward()

    def test_graph_size_independent_of_depth(self):
        rng = np.random.default_rng(12)
        sizes = []
        for depth in (1, 4):
            _, layers = self.stack(rng, depth, 2, 3)
            out = ly.lstm_stack(ad.Tensor(rng.standard_normal((2, 5, 2))), layers)
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
        gate_i = sigmoid(pre[:, :hidden])
        gate_f = sigmoid(pre[:, hidden : 2 * hidden])
        gate_g = np.tanh(pre[:, 2 * hidden : 3 * hidden])
        gate_o = sigmoid(pre[:, 3 * hidden :])
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


def dropout_state(returns, **overrides):
    """A training state of a small config, for its `draw_batch` draws."""
    small = dict(seq_len=10, batch_size=4, gnn_neurons=6, geo_lstm_neurons=6,
                 rec_lstm_neurons=6, gnn_layers=1, rec_lstm_layers=1)
    return sg.TrainState(returns, SigGanConfig(**{**small, **overrides}))


class TestDropout:
    def test_rate_zero_identity(self):
        # at rate 0 a batch draws no masks, and a layer without a mask returns
        # its input: no copy, no graph node
        state = dropout_state(np.random.default_rng(0).standard_normal(13), dropout=0.0)
        before = state.dropout_rng.bit_generator.state
        forwards = [masks for _, pair in sg.draw_batch(state) for masks in pair]
        assert forwards == [([None], [None])] * 4
        assert state.dropout_rng.bit_generator.state == before
        x = ad.Tensor(np.arange(10.0))
        assert ad.dropout(x, None, 0.0) is x

    def test_inference_identity(self):
        # inference passes no mask
        x = ad.Tensor(np.arange(10.0))
        assert ad.dropout(x, None, 0.9) is x

    def test_draws_mask_when_input_needs_no_grad(self):
        # the mask applies the same whether or not a graph is recorded
        x = ad.Tensor(np.ones((4, 5)))
        keep = np.random.default_rng(3).random((4, 5)) >= 0.4
        out = ad.dropout(x, keep, 0.4)
        assert np.array_equal(out.value, keep / (1.0 - 0.4))
        assert out._parents == () and not out.requires_grad

    def test_statistics_at_table_rate(self):
        # one recurrent layer's mask of a batch draw: 10 x 100 x 100 units
        returns = np.random.default_rng(8).standard_normal(109)
        state = dropout_state(returns, seq_len=100, batch_size=10, rec_lstm_neurons=100,
                              dropout=0.31)
        (_, ((recurrent, _), _)), _ = sg.draw_batch(state)
        x = np.ones(recurrent[0].shape)
        out = ad.dropout(ad.Tensor(x), recurrent[0], 0.31).value
        assert out.shape == (10, 100, 100)
        zero_fraction = np.mean(out == 0.0)
        assert abs(zero_fraction - 0.31) <= 0.01
        assert abs(out.mean() - 1.0) <= 0.02

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            ad.dropout(ad.Tensor(np.zeros(3)), None, 1.0)


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
                ad.dropout(x, np.random.default_rng(99).random((4, 5)) >= 0.4, 0.4)
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

    def test_state_lists_align_with_params(self):
        a = ad.Parameter(np.array([0.5, -0.5]), "a")
        b = ad.Parameter(np.array([[1.0]]), "b")
        opt = RmsProp([a, b], 0.01, trust_radius=0.1)
        grads = [np.array([0.1, 0.2]), np.array([[0.3]])]
        a.grad, b.grad = (g.copy() for g in grads)
        opt.step()
        assert [v.shape for v in opt.square_avg] == [(2,), (1, 1)]
        for v, g in zip(opt.square_avg, grads):
            np.testing.assert_array_equal(v, (1.0 - 0.9) * g * g)
        np.testing.assert_array_equal(opt.anchors[0], [0.5, -0.5])
        np.testing.assert_array_equal(opt.anchors[1], [[1.0]])

import dataclasses
import os
import struct
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import gradient_check, player_step_drawing
from siggraphgan import autodiff as ad
from siggraphgan import blas
from siggraphgan import layers as ly
from siggraphgan import siggan as sg
from siggraphgan.checkpoint import (
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from siggraphgan.errors import (
    CheckpointParseError,
    CheckpointVersionError,
    ConfigError,
    NumericError,
    ShapeError,
    SizeError,
)
from siggraphgan.optim import RmsProp
from siggraphgan.fixture import fixture_prices
from siggraphgan.preprocess import (
    PreprocessStats,
    invert_pipeline,
    prepare_training_returns,
    transform_with_stats,
)
from siggraphgan.siggan import SigGanConfig, SigGraphGan, generate, train


def tiny_config(**overrides) -> SigGanConfig:
    base = dict(
        seq_len=10,
        gnn_neurons=6,
        geo_lstm_neurons=6,
        rec_lstm_neurons=6,
        gnn_layers=1,
        rec_lstm_layers=1,
        batch_size=4,
        epochs=1,
        seed=0,
    )
    base.update(overrides)
    return SigGanConfig.for_loss(base.pop("loss_kind", "mse"), **base)


def row_adjacencies(rows, cfg):
    """Normalized adjacency of each row, every row its own one-window series."""
    return np.concatenate(
        [sg.window_adjacencies(sg.series_graph(row, cfg), [0], cfg) for row in rows]
    )


def toy_batch(cfg, batch=3, seed=0):
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((batch, cfg.seq_len))
    adjs = row_adjacencies(real, cfg)
    noise = rng.standard_normal((batch, cfg.seq_len, cfg.noise_features))
    return real, adjs, noise


class TestConfig:
    def test_mse_preset_matches_tuned_values(self):
        cfg = SigGanConfig.for_loss("mse")
        assert (cfg.batch_size, cfg.learning_rate) == (30, 0.000797)
        assert (cfg.gnn_neurons, cfg.geo_lstm_neurons, cfg.rec_lstm_neurons) == (
            190,
            120,
            190,
        )
        assert (cfg.gnn_layers, cfg.rec_lstm_layers) == (3, 7)
        assert cfg.dropout == 0.31
        assert cfg.seq_len == 100
        assert cfg.graph_direction == "undirected"
        assert cfg.epochs == 100
        assert cfg.sig_degree == 5

    def test_kld_preset_matches_tuned_values(self):
        cfg = SigGanConfig.for_loss("kld")
        assert cfg.learning_rate == 0.000221
        assert (cfg.gnn_neurons, cfg.geo_lstm_neurons, cfg.rec_lstm_neurons) == (
            110,
            70,
            190,
        )
        assert (cfg.gnn_layers, cfg.rec_lstm_layers) == (2, 4)
        assert cfg.dropout == 0.35

    def test_validation(self):
        with pytest.raises(ConfigError):
            SigGanConfig.for_loss("huber")
        for rate in (1.5, 1.0):
            with pytest.raises(ConfigError, match="dropout must lie in"):
                tiny_config(dropout=rate)
        with pytest.raises(ConfigError):
            tiny_config(graph_direction="sideways")
        with pytest.raises(ConfigError):
            tiny_config(ablation="feedforward", noise_features=3)
        with pytest.raises(ConfigError, match="ablation must be one of"):
            tiny_config(ablation="attention")

    def test_frozen(self):
        cfg = tiny_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1

    def test_ablated(self):
        cfg = tiny_config()
        assert cfg.ablation == "none"
        assert cfg.ablated("geometric").ablation == "geometric"
        assert cfg.ablated("skip").ablation == "skip"
        assert cfg.ablated("dropout") == dataclasses.replace(cfg, dropout=0.0)
        with pytest.raises(ConfigError):
            cfg.ablated("attention")

    def test_ablated_rejects_dropout_at_rate_zero(self):
        with pytest.raises(ConfigError, match="already has dropout 0"):
            tiny_config(dropout=0.0).ablated("dropout")

    @pytest.mark.parametrize("component", sg.ABLATION_COMPONENTS)
    def test_ablated_rejects_an_ablated_config(self, component):
        with pytest.raises(ConfigError, match="already has ablation 'skip'"):
            tiny_config(ablation="skip").ablated(component)

    def test_items_round_trip(self):
        cfg = tiny_config(loss_kind="kld", dropout=0.12, ablation="skip")
        items = dict(sg.config_to_items(cfg))
        assert SigGanConfig(**{k: sg.parse_config_value(k, v) for k, v in items.items()}) == cfg
        with pytest.raises(ConfigError):
            sg.parse_config_value("momentum", "0.9")


class TestLosses:
    def test_zero_on_identical(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((3, 12, 1)))
        assert sg.sig_mse_loss(x, x).item() == 0.0
        assert sg.sig_kld_loss(x, x).item() == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = ad.Tensor(rng.standard_normal((2, 8, 1)))
            b = ad.Tensor(rng.standard_normal((2, 8, 1)))
            assert sg.sig_mse_loss(a, b).item() >= 0.0
            assert sg.sig_kld_loss(a, b).item() >= -1e-10

    def test_strictly_positive_on_distinct_windows(self):
        rng = np.random.default_rng(17)
        a = ad.Tensor(rng.standard_normal((2, 10, 1)))
        b = ad.Tensor(rng.standard_normal((2, 10, 1)))
        assert sg.sig_mse_loss(a, b).item() > 0.0
        assert sg.sig_kld_loss(a, b).item() > 0.0

    def test_constant_shift_detected_by_cumulative_term(self):
        base = np.zeros((1, 100, 1))
        shifted = base + 0.1
        loss = sg.sig_mse_loss(ad.Tensor(shifted), ad.Tensor(base))
        assert loss.item() > 0.0

    def test_kld_finite_on_wild_inputs(self):
        rng = np.random.default_rng(2)
        a = ad.Tensor(50.0 * rng.standard_normal((2, 30, 1)))
        b = ad.Tensor(0.001 * rng.standard_normal((2, 30, 1)))
        assert np.isfinite(sg.sig_kld_loss(a, b).item())

    def test_only_window_batches_accepted(self):
        rng = np.random.default_rng(3)
        flat = rng.standard_normal(9)
        window = ad.Tensor(flat[np.newaxis, :, np.newaxis])
        assert sg.sig_mse_loss(window, window).item() == 0.0
        for shape in [(9,), (9, 1), (1, 9)]:
            with pytest.raises(ShapeError):
                sg.sig_mse_loss(ad.Tensor(flat.reshape(shape)), window)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sg.sig_mse_loss(ad.Tensor(np.zeros((2, 5, 1))), ad.Tensor(np.zeros((2, 6, 1))))

    def test_gradient_check_mse(self):
        rng = np.random.default_rng(4)
        fake = ad.Parameter(0.5 * rng.standard_normal((2, 6, 1)), "fake")
        real = ad.Parameter(0.5 * rng.standard_normal((2, 6, 1)), "real")
        err = gradient_check(lambda: sg.sig_mse_loss(fake, real), [fake, real])
        assert err <= 1e-4

    def test_gradient_check_kld(self):
        rng = np.random.default_rng(5)
        fake = ad.Parameter(0.5 * rng.standard_normal((2, 6, 1)), "fake")
        real = ad.Parameter(0.5 * rng.standard_normal((2, 6, 1)), "real")
        err = gradient_check(lambda: sg.sig_kld_loss(fake, real), [fake, real])
        assert err <= 1e-4

    @pytest.mark.parametrize("kind", list(sg.LOSS_FUNCTIONS))
    @pytest.mark.parametrize("batch,steps", [(1, 2), (3, 7), (10, 20)])
    def test_graph_is_three_nodes(self, kind, batch, steps):
        rng = np.random.default_rng(6)
        fake = ad.Parameter(rng.standard_normal((batch, steps, 1)), "fake")
        real = ad.Parameter(rng.standard_normal((batch, steps, 1)), "real")
        loss = sg.LOSS_FUNCTIONS[kind](fake, real)
        ops = [node._op for node in ad._toposort(loss)]
        assert ops == ["signature_loss", "leadlag_signature", "loss_paths"]


class TestNetworks:
    def test_generator_output_shape(self):
        cfg = tiny_config()
        model = SigGraphGan(cfg)
        real, adjs, noise = toy_batch(cfg)
        out = model.generator_forward(noise, adjs)
        assert out.value.shape == (3, cfg.seq_len, 1)

    def test_discriminator_preserves_shape(self):
        cfg = tiny_config()
        model = SigGraphGan(cfg)
        real, adjs, _ = toy_batch(cfg)
        out = model.discriminator_forward(real[:, :, None], adjs)
        assert out.value.shape == (3, cfg.seq_len, 1)

    def test_deterministic_repeat(self):
        cfg = tiny_config()
        real, adjs, noise = toy_batch(cfg)
        a = SigGraphGan(cfg).generator_forward(noise, adjs).value
        b = SigGraphGan(cfg).generator_forward(noise, adjs).value
        assert np.array_equal(a, b)

    def test_distinct_noise_gives_distinct_output(self):
        cfg = tiny_config()
        model = SigGraphGan(cfg)
        real, adjs, noise = toy_batch(cfg)
        other = noise + 0.5
        a = model.generator_forward(noise, adjs).value
        b = model.generator_forward(other, adjs).value
        assert not np.array_equal(a, b)

    def test_zero_weight_discriminator_is_bias_only(self):
        cfg = tiny_config()
        model = SigGraphGan(cfg)
        for p in model.discriminator.parameters():
            p.value = np.zeros_like(p.value)
        real, adjs, _ = toy_batch(cfg)
        out1 = model.discriminator_forward(real[:, :, None], adjs).value
        out2 = model.discriminator_forward(real[:, :, None] * 3.0 + 1.0, adjs).value
        assert np.array_equal(out1, out2)
        assert np.all(out1 == out1.ravel()[0])

    def test_discriminator_gradient_nonzero(self):
        cfg = tiny_config()
        model = SigGraphGan(cfg)
        real, adjs, noise = toy_batch(cfg)
        fake = model.generator_forward(noise, adjs)
        disc = model.discriminator_forward(real[:, :, None], adjs)
        sg.sig_mse_loss(fake, disc).backward()
        total = sum(
            float(np.abs(p.grad).sum())
            for p in model.discriminator.parameters()
            if p.grad is not None
        )
        assert total > 0.0

    def test_recurrent_block_zero_lstm_gives_bias_rows(self):
        cfg = tiny_config()
        model = SigGraphGan(cfg)
        block = model.generator.recurrent
        for lstm in block.lstms:
            for p in lstm.parameters():
                p.value = np.zeros_like(p.value)
        x = ad.Tensor(np.random.default_rng(0).standard_normal((2, cfg.seq_len, 1)))
        out = block.forward(x, masks=None)
        expected = np.tile(block.head.bias.value, (2, cfg.seq_len, 1))
        assert out.value == pytest.approx(expected)

    def test_gcn_stack_rows_equal_on_complete_graph(self):
        # symmetry: a complete graph with constant features keeps every node
        # identical through the graph-convolution stack (the block's trailing
        # LSTM then deliberately breaks row symmetry as it scans the nodes)
        cfg = tiny_config(gnn_layers=2)
        model = SigGraphGan(cfg)
        n = cfg.seq_len
        complete = np.ones((n, n)) - np.eye(n)
        from siggraphgan.layers import gcn_apply, normalized_adjacency

        adj = normalized_adjacency(complete)[None]
        h = ad.Tensor(np.ones((1, n, 1)) * 0.37)
        for theta in model.generator.geometric.thetas:
            h = gcn_apply(h, adj, theta)
        rows = h.value[0]
        assert np.max(np.abs(rows - rows[0])) == 0.0


class TestAblations:
    def test_geometric_disabled_is_adjacency_invariant(self):
        cfg = tiny_config(ablation="geometric")
        model = SigGraphGan(cfg)
        real, adjs, noise = toy_batch(cfg)
        other = row_adjacencies(np.flip(real, axis=1), cfg)
        a = model.generator_forward(noise, adjs).value
        b = model.generator_forward(noise, other).value
        assert np.array_equal(a, b)

    def test_recurrent_disabled_still_runs(self):
        cfg = tiny_config(ablation="recurrent")
        model = SigGraphGan(cfg)
        real, adjs, noise = toy_batch(cfg)
        assert model.generator_forward(noise, adjs).value.shape == (3, cfg.seq_len, 1)

    def test_feedforward_disabled_passes_block_sum(self):
        cfg = tiny_config(ablation="feedforward")
        model = SigGraphGan(cfg)
        real, adjs, noise = toy_batch(cfg)
        assert model.generator_forward(noise, adjs).value.shape == (3, cfg.seq_len, 1)

    @staticmethod
    def outputs_with_zero_block_sum(cfg):
        """Generator outputs at two inputs, with both block heads zeroed.

        The block sum is then 0 whatever the input, so the skip path is the
        only route by which the input reaches the output.
        """
        model = SigGraphGan(cfg)
        for block in (model.generator.recurrent, model.generator.geometric):
            for p in block.head.parameters():
                p.value[...] = 0.0
        real, adjs, noise = toy_batch(cfg)
        a = model.generator_forward(noise, adjs).value
        b = model.generator_forward(noise * 5.0 + 1.0, adjs).value
        return a, b

    def test_skip_disabled_ignores_raw_features(self):
        a, b = self.outputs_with_zero_block_sum(tiny_config(ablation="skip"))
        assert np.array_equal(a, b)

    def test_skip_enabled_uses_raw_features(self):
        a, b = self.outputs_with_zero_block_sum(tiny_config())
        assert not np.array_equal(a, b)


class TestTraining:
    def test_zero_epochs_equals_initialization(self):
        cfg = tiny_config(epochs=0)
        rng = np.random.default_rng(1)
        returns = rng.standard_normal(40)
        result = train(returns, cfg)
        fresh = SigGraphGan(cfg, np.random.SeedSequence(cfg.seed).spawn(4)[0])
        for (name, value), param in zip(
            result.checkpoint.generator_params, fresh.generator.parameters()
        ):
            assert name == param.name
            assert np.array_equal(value, param.value)
        assert result.epoch_losses == []

    def test_trace_length_equals_epochs(self):
        cfg = tiny_config(epochs=3)
        returns = np.random.default_rng(2).standard_normal(40)
        result = train(returns, cfg)
        assert len(result.epoch_losses) == 3

    def test_too_short_series(self):
        cfg = tiny_config()
        with pytest.raises(SizeError):
            train(np.zeros(5), cfg)

    def test_minimum_length_trains_one_batch(self):
        # seq_len + batch_size - 1 returns give exactly batch_size windows
        cfg = tiny_config(seq_len=5, batch_size=3)
        returns = np.random.default_rng(9).standard_normal(7)
        result = train(returns, cfg)
        assert len(result.epoch_losses) == 1
        assert np.isfinite(result.epoch_losses[0])
        with pytest.raises(SizeError):
            train(returns[:6], cfg)

    def test_idle_player_gets_no_gradient(self, monkeypatch):
        optimizers, idle_grads = [], []
        init, step = RmsProp.__init__, RmsProp.step

        def registered_init(opt, *args, **kwargs):
            init(opt, *args, **kwargs)
            optimizers.append(opt)

        def recorded_step(opt):
            idle_grads.extend(
                p.grad for other in optimizers if other is not opt for p in other.params
            )
            step(opt)

        monkeypatch.setattr(RmsProp, "__init__", registered_init)
        monkeypatch.setattr(RmsProp, "step", recorded_step)
        train(np.random.default_rng(10).standard_normal(30), tiny_config(epochs=2))
        assert len(optimizers) == 2 and idle_grads
        assert all(g is None for g in idle_grads)

    def test_only_stepping_player_records_a_graph(self, monkeypatch):
        outputs, steps = {}, []
        step = RmsProp.step

        def recording(player, forward):
            def wrapped(*args, **kwargs):
                out = forward(*args, **kwargs)
                outputs[player] = out
                return out

            return wrapped

        def recorded_step(opt):
            stepping = "disc" if opt.maximize else "gen"
            steps.append((stepping, dict(outputs)))
            outputs.clear()
            step(opt)

        for player, name in (("gen", "generator_forward"), ("disc", "discriminator_forward")):
            monkeypatch.setattr(SigGraphGan, name, recording(player, getattr(SigGraphGan, name)))
        monkeypatch.setattr(RmsProp, "step", recorded_step)
        train(np.random.default_rng(10).standard_normal(30), tiny_config(epochs=2))
        assert steps and [player for player, _ in steps] == ["disc", "gen"] * (len(steps) // 2)
        for stepping, recorded in steps:
            assert set(recorded) == {"gen", "disc"}
            idle = "gen" if stepping == "disc" else "disc"
            assert recorded[idle]._parents == ()
            assert recorded[stepping]._parents != ()

    def test_deterministic_checkpoints(self):
        cfg = tiny_config(epochs=2, seed=42)
        returns = np.random.default_rng(3).standard_normal(50)
        a = train(returns, cfg)
        b = train(returns, cfg)
        assert a.epoch_losses == b.epoch_losses
        for (n1, v1), (n2, v2) in zip(
            a.checkpoint.generator_params, b.checkpoint.generator_params
        ):
            assert n1 == n2 and np.array_equal(v1, v2)

    @pytest.mark.parametrize("loss_kind", ["mse", "kld"])
    def test_epochs_stepped_one_at_a_time_match_train(self, loss_kind):
        cfg = tiny_config(loss_kind=loss_kind, epochs=2, seed=7)
        assert cfg.dropout > 0  # so the dropout generator is drawn from
        returns = np.random.default_rng(4).standard_normal(40)
        expected = train(returns, cfg)
        saved = expected.checkpoint
        expected_params = saved.generator_params + saved.discriminator_params
        # two states stepped in turn stay equal only if neither draws from a
        # generator outside itself
        states = [sg.TrainState(returns, cfg), sg.TrainState(returns, cfg)]
        for _ in range(cfg.epochs):
            for state in states:
                assert sg.train_epoch(state) == state.epoch_losses[-1]
        for state in states:
            assert state.epoch_losses == expected.epoch_losses
            model = state.model
            params = model.generator.parameters() + model.discriminator.parameters()
            assert [p.name for p in params] == [name for name, _ in expected_params]
            for param, (name, value) in zip(params, expected_params):
                assert np.array_equal(param.value, value), f"parameter {name} differs"

    def test_deep_stacks_run_on_a_worker_that_ends_with_the_state(self):
        returns = np.random.default_rng(12).standard_normal(30)
        assert sg.TrainState(returns, tiny_config()).worker is None  # one layer
        before = set(threading.enumerate())
        with sg.TrainState(returns, tiny_config(rec_lstm_layers=2)) as state:
            sg.train_epoch(state)
            started = [t for t in set(threading.enumerate()) - before
                       if t.name.startswith("siggraphgan-lstm")]
            assert len(started) == 1
        assert not started[0].is_alive()
        train(returns, tiny_config(rec_lstm_layers=3))
        assert not [t for t in set(threading.enumerate()) - before
                    if t.name.startswith("siggraphgan-lstm")]

    @pytest.mark.skipif(blas._thread_count_functions() is None,
                        reason="numpy's OpenBLAS does not export its thread-count functions")
    def test_outputs_do_not_depend_on_blas_threads(self):
        """A kld-shaped train and generate give the same bytes under
        OPENBLAS_NUM_THREADS=1 and =2; unpinned, the first batch's loss
        differs in its last digits."""
        script = textwrap.dedent("""
            import numpy as np
            from siggraphgan import siggan as sg
            cfg = sg.SigGanConfig.for_loss("kld", batch_size=4, epochs=1)
            returns = np.random.default_rng(5).standard_normal(cfg.seq_len + 3)
            result = sg.train(returns, cfg)
            samples = sg.generate(result.checkpoint, 0.01 * returns, 8, seed=1)
            print(repr(result.epoch_losses), samples.tobytes().hex())
        """)
        src = str(Path(sg.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, check=True, timeout=300)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    def test_numeric_error_names_epoch_and_batch(self):
        state = sg.TrainState(np.random.default_rng(6).standard_normal(30), tiny_config())
        sg.train_epoch(state)
        # a critic output of ~1e300 overflows the loss's degree-5 signature
        state.model.discriminator.feedforward.fc3.weight.value *= 1e300
        with pytest.raises(NumericError, match=r"\(epoch 1, batch starting at 0\)$"):
            sg.train_epoch(state)

    def test_single_ascent_step_increases_loss_on_frozen_batch(self):
        cfg = tiny_config(seed=123)
        model = SigGraphGan(cfg)
        real, adjs, noise = toy_batch(cfg, batch=4, seed=5)

        def loss_value():
            fake = model.generator_forward(noise, adjs)
            disc = model.discriminator_forward(real[:, :, None], adjs)
            return sg.sig_mse_loss(fake, disc)

        before = loss_value().item()
        loss = loss_value()
        loss.backward()
        opt = RmsProp(
            model.discriminator.parameters(),
            learning_rate=1e-6,
            maximize=True,
            trust_radius=sg.DISC_TRUST_RADIUS,
        )
        opt.step()
        after = loss_value().item()
        assert after > before

    def test_smoke_training_loss_decreases(self):
        rng = np.random.default_rng(205)
        # GBM-style returns: drifted Gaussian increments
        returns = 0.01 * rng.standard_normal(300) + 0.0002
        normalized = (returns - returns.mean()) / returns.std()
        cfg = tiny_config(
            seq_len=20,
            epochs=10,
            batch_size=10,
            seed=11,
            gnn_neurons=16,
            geo_lstm_neurons=16,
            rec_lstm_neurons=16,
        )
        result = train(normalized, cfg)
        assert len(result.epoch_losses) == 10
        assert result.epoch_losses[-1] < result.epoch_losses[0]


def one_batch(state):
    """The real windows and adjacencies of a state's first batch of windows."""
    idx = np.arange(state.cfg.batch_size)
    return state.window_values[idx], sg.window_adjacencies(state.graph, idx, state.cfg)


class TestBatchDraws:
    # every ablation runs its own examples, so each meets a nonzero rate
    @pytest.mark.parametrize("ablation", sg.ABLATIONS)
    @given(
        loss_kind=st.sampled_from(sorted(sg.LOSS_FUNCTIONS)),
        dropout=st.one_of(
            st.just(0.0), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        ),
        rec_layers=st.integers(1, 3),
        gnn_layers=st.integers(1, 3),
        batch=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_matches_draws_in_forward(
        self, ablation, loss_kind, dropout, rec_layers, gnn_layers, batch, seed
    ):
        cfg = tiny_config(
            ablation=ablation, loss_kind=loss_kind, dropout=dropout, rec_lstm_layers=rec_layers,
            gnn_layers=gnn_layers, batch_size=batch, seed=seed,
        )
        returns = np.random.default_rng(seed).standard_normal(cfg.seq_len + batch - 1)
        drawn, reference = sg.TrainState(returns, cfg), sg.TrainState(returns, cfg)
        real, adjs = one_batch(drawn)
        draws = sg.draw_batch(drawn)
        losses = [
            sg.player_step(drawn, drawn.opt_disc, drawn.opt_gen, real, adjs, draws.pop(0)),
            sg.player_step(drawn, drawn.opt_gen, drawn.opt_disc, real, adjs, draws.pop(0)),
        ]
        expected = [
            player_step_drawing(reference, reference.opt_disc, reference.opt_gen, real, adjs),
            player_step_drawing(reference, reference.opt_gen, reference.opt_disc, real, adjs),
        ]
        assert np.array_equal(losses, expected)
        ours, theirs = (
            s.model.generator.parameters() + s.model.discriminator.parameters()
            for s in (drawn, reference)
        )
        assert [p.name for p in ours] == [p.name for p in theirs]
        for mine, other in zip(ours, theirs):
            assert np.array_equal(mine.value, other.value), mine.name
        # both streams were read to the same point
        for rng in ("noise_rng", "dropout_rng"):
            state = getattr(drawn, rng).bit_generator.state
            assert state == getattr(reference, rng).bit_generator.state, rng

    def test_forwards_run_in_any_order(self):
        cfg = tiny_config(rec_lstm_layers=2, gnn_layers=2)
        assert cfg.dropout > 0
        state = sg.TrainState(np.random.default_rng(8).standard_normal(20), cfg)
        model, (real, adjs) = state.model, one_batch(state)
        real = real[:, :, np.newaxis]
        (critic_noise, (gen0, disc0)), (gen_noise, (gen1, disc1)) = sg.draw_batch(state)
        forwards = {
            "gen0": lambda: model.generator_forward(critic_noise, adjs, gen0),
            "disc0": lambda: model.discriminator_forward(real, adjs, disc0),
            "gen1": lambda: model.generator_forward(gen_noise, adjs, gen1),
            "disc1": lambda: model.discriminator_forward(real, adjs, disc1),
        }
        today = {name: forwards[name]().value for name in ("gen0", "disc0", "gen1", "disc1")}
        generators_first = {
            name: forwards[name]().value for name in ("gen0", "gen1", "disc0", "disc1")
        }
        for name, value in today.items():
            assert np.array_equal(value, generators_first[name]), name
        # the masks take effect: without them the forward differs
        assert not np.array_equal(today["gen0"], model.generator_forward(critic_noise, adjs).value)

    def test_network_parameters_are_what_its_source_handed_out(self):
        init = ly.RandomInit(np.random.default_rng(0))
        network = sg.GanNetwork(init, tiny_config(ablation="skip"), 1, "gen")
        assert network.parameters() == init.params
        assert network.parameters() is not init.params


class TestPresetMemory:
    # one batch at each tuned preset (seq_len 100, batch 30); measured about
    # 0.25 GiB for kld and 0.42 GiB for mse, on numpy 2.4 / OpenBLAS 0.3.31,
    # with each recurrent stack one node and the idle forward's masks freed
    # once it has run (0.26 and 0.44 GiB with one node per layer and the
    # masks held through the step)
    @pytest.mark.parametrize("loss_kind, budget_gib", [("kld", 1.2), ("mse", 2.0)])
    def test_one_batch_within_budget(self, loss_kind, budget_gib, traced_peak):
        cfg = SigGanConfig.for_loss(loss_kind, epochs=1)
        returns = np.random.default_rng(11).standard_normal(cfg.seq_len + cfg.batch_size - 1)
        with traced_peak() as peak:
            result = train(returns, cfg)
        assert len(result.epoch_losses) == 1
        assert peak.bytes < budget_gib * 2**30, f"peak {peak.bytes / 2**30:.2f} GiB"

    def test_kld_batch_of_ten_within_budget(self, traced_peak):
        """One kld batch of 10 at seq_len 100 stays under 130 MiB.

        Measured at 111-114 MiB, on numpy 2.4 / OpenBLAS 0.3.31, with
        all four forwards' boolean dropout masks drawn at the batch's start
        (about 4 MB). Each recurrent stack is one node whose lower half runs
        on the training run's worker thread; it writes every step's gradient
        over that step's gates, and drops each layer's arrays once the
        layer's weight gradients are formed. One node per LSTM layer and per
        dropout layer peaked at about 117 MiB; holding every step's state
        and all four gradients of each LSTM layer until the step's graph
        went away, and scaled float masks, peaked at 149 MiB.
        """
        cfg = SigGanConfig.for_loss("kld", seq_len=100, batch_size=10, epochs=1)
        returns = np.random.default_rng(11).standard_normal(cfg.seq_len + cfg.batch_size - 1)
        with traced_peak() as peak:
            result = train(returns, cfg)
        assert len(result.epoch_losses) == 1
        assert peak.bytes < 130 * 2**20, f"peak {peak.bytes / 2**20:.0f} MiB"

    def test_zero_epoch_full_fixture_within_budget(self, traced_peak):
        """Setting up kld training on the whole fixture stays under 128 MiB.

        With seq_len 100 the 2514 returns give 2415 windows. One visibility
        graph banded to 99 lags (about 0.25 MB) serves them all, and the
        peak is measured at about 60 MiB, on numpy 2.4 / OpenBLAS 0.3.31.
        A stack of one dense float64 adjacency per window, built before
        the first batch, peaked at 371 MiB.
        """
        returns, stats = prepare_training_returns(fixture_prices())
        cfg = SigGanConfig.for_loss("kld", epochs=0)
        with traced_peak() as peak:
            result = train(returns, cfg, stats)
        assert result.epoch_losses == []
        assert peak.bytes < 128 * 2**20, f"peak {peak.bytes / 2**20:.0f} MiB"

    def test_generate_chunk_forward_within_budget(self, traced_peak):
        """One 64-sample kld generator forward without grad stays under 48 MiB.

        Measured at about 22 MiB, on numpy 2.4 / OpenBLAS 0.3.31: the
        recurrent stack holds its output and the blocks in flight, and the
        geometric LSTM its input, its output and one block of projected
        input. With one node per recurrent layer, each holding its whole
        output, it peaked at 28 MiB. A forward that kept every step's gates
        for a backward pass and projected the whole sequence at once, in two
        (B*T, 4H) arrays, peaked at 121 MiB.
        """
        cfg = SigGanConfig.for_loss("kld", epochs=0)
        model = SigGraphGan(cfg)
        for p in model.generator.parameters():
            p.requires_grad = False
        chunk = sg.GENERATE_CHUNK  # generate's largest chunk
        rng = np.random.default_rng(12)
        series = rng.standard_normal(chunk + cfg.seq_len - 1)
        adjs = sg.window_adjacencies(sg.series_graph(series, cfg), np.arange(chunk), cfg)
        noise = rng.standard_normal((chunk, cfg.seq_len, cfg.noise_features))
        with traced_peak() as peak:
            fake = model.generator_forward(noise, adjs)
        assert fake.value.shape == (chunk, cfg.seq_len, 1)
        assert peak.bytes < 48 * 2**20, f"peak {peak.bytes / 2**20:.0f} MiB"


def unchunked_generate(checkpoint, conditioning_log_returns, n_samples, seed):
    """Reference for `generate`: one generator forward over all samples."""
    cfg, stats = checkpoint.config, checkpoint.stats
    model = checkpoint.build_model()
    for p in model.generator.parameters():
        p.requires_grad = False
    transformed = transform_with_stats(np.asarray(conditioning_log_returns), stats)
    n_windows = transformed.shape[0] - cfg.seq_len + 1
    graph = sg.series_graph(transformed[: min(n_samples, n_windows) + cfg.seq_len - 1], cfg)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    noise = rng.standard_normal((n_samples, cfg.seq_len, cfg.noise_features))
    adjs = sg.window_adjacencies(graph, np.arange(n_samples) % n_windows, cfg)
    fake = model.generator_forward(noise, adjs)
    return invert_pipeline(fake.value[:, :, 0], stats)


@pytest.fixture(scope="module")
def long_checkpoint():
    """Tiny trained checkpoint, with 400 returns of conditioning (391 windows)."""
    cfg = tiny_config(epochs=1)
    returns = 0.01 * np.random.default_rng(13).standard_normal(400)
    stats = PreprocessStats(mean=float(returns.mean()), std=float(returns.std()), delta=0.1)
    return train((returns - stats.mean) / stats.std, cfg, stats).checkpoint, returns


class TestGenerate:
    def make_checkpoint(self, epochs=1):
        cfg = tiny_config(epochs=epochs)
        returns = 0.01 * np.random.default_rng(4).standard_normal(60)
        stats = PreprocessStats(mean=float(returns.mean()), std=float(returns.std()), delta=0.1)
        result = train((returns - stats.mean) / stats.std, cfg, stats)
        return result.checkpoint, returns

    def test_zero_samples(self):
        ckpt, returns = self.make_checkpoint()
        out = generate(ckpt, returns, 0)
        assert out.shape == (0, ckpt.config.seq_len)

    def test_window_length_and_finiteness(self):
        ckpt, returns = self.make_checkpoint()
        out = generate(ckpt, returns, 7, seed=1)
        assert out.shape == (7, ckpt.config.seq_len)
        assert np.all(np.isfinite(out))

    def test_different_seeds_differ(self):
        ckpt, returns = self.make_checkpoint()
        a = generate(ckpt, returns, 5, seed=1)
        b = generate(ckpt, returns, 5, seed=2)
        assert not np.array_equal(a, b)

    def test_conditioning_shorter_than_one_window_rejected(self):
        ckpt, returns = self.make_checkpoint()
        seq_len = ckpt.config.seq_len
        assert generate(ckpt, returns[:seq_len], 3, seed=1).shape == (3, seq_len)
        with pytest.raises(SizeError):
            generate(ckpt, returns[: seq_len - 1], 3, seed=1)

    @pytest.mark.parametrize("n_samples", [1, 64, 65, 200, 450])
    def test_threaded_matches_sequential_reference(self, long_checkpoint, n_samples):
        # 450 samples wrap around to the first of the 391 windows
        ckpt, returns = long_checkpoint
        expected = unchunked_generate(ckpt, returns, n_samples, seed=9)
        assert np.array_equal(generate(ckpt, returns, n_samples, seed=9), expected)

    @pytest.mark.parametrize("m", [2, 64, 65, 129])
    def test_first_samples_do_not_depend_on_count(self, long_checkpoint, m):
        ckpt, returns = long_checkpoint
        more = generate(ckpt, returns, m + 1, seed=9)
        assert np.array_equal(generate(ckpt, returns, m, seed=9), more[:m])

    @pytest.mark.parametrize("n_samples", [1, 2, 3, 4, 5, 63, 64, 65, 128, 129, 200, 450, 1000])
    def test_chunk_plan_covers_samples_evenly(self, n_samples):
        sizes = sg.generate_chunks(n_samples)
        assert sum(sizes) == n_samples
        assert max(sizes) <= sg.GENERATE_CHUNK
        assert max(sizes) - min(sizes) <= 1
        assert len(sizes) >= min(sg.GENERATE_THREADS, n_samples // 2)
        if n_samples >= 2:
            assert min(sizes) >= 2

    def test_64_samples_run_on_two_worker_threads(self, monkeypatch):
        ckpt, returns = self.make_checkpoint()
        forward = SigGraphGan.generator_forward
        # each chunk waits until the other is running too
        both_running = threading.Barrier(2, timeout=30)
        ran_in = []

        def rendezvous(*args, **kwargs):
            ran_in.append(threading.current_thread())
            both_running.wait()
            return forward(*args, **kwargs)

        monkeypatch.setattr(SigGraphGan, "generator_forward", rendezvous)
        assert generate(ckpt, returns, 64, seed=1).shape == (64, ckpt.config.seq_len)
        assert len(ran_in) == 2 and len(set(ran_in)) == 2
        assert threading.main_thread() not in ran_in

    def test_chunk_error_reaches_caller(self, monkeypatch):
        ckpt, returns = self.make_checkpoint()
        raised_in = []

        def failing_forward(*args, **kwargs):
            raised_in.append(threading.current_thread())
            raise NumericError("non-finite values produced by op 'lstm'")

        monkeypatch.setattr(SigGraphGan, "generator_forward", failing_forward)
        with pytest.raises(NumericError, match="'lstm'"):
            generate(ckpt, returns, 200, seed=1)
        assert raised_in and threading.main_thread() not in raised_in

    @pytest.mark.parametrize("n_samples", [7, 200])
    def test_graphs_only_for_drawn_windows(self, monkeypatch, n_samples):
        ckpt, returns = self.make_checkpoint()
        n_windows = returns.shape[0] - ckpt.config.seq_len + 1
        points = []
        natural_visibility = sg.natural_visibility

        def counted(values, *args, **kwargs):
            points.append(len(values))
            return natural_visibility(values, *args, **kwargs)

        monkeypatch.setattr(sg, "natural_visibility", counted)
        generate(ckpt, returns, n_samples, seed=1)
        assert points == [min(n_samples, n_windows) + ckpt.config.seq_len - 1]


# ways to corrupt a network's stored parameter list, and the error each gives
TAMPERS = [
    (lambda params: params.pop(), "holds 16 parameters, model expects more"),
    (lambda params: params.append(("extra", np.zeros(1))),
     "holds 18 parameters, model expects 17"),
    (lambda params: params.insert(0, params.pop(1)), "order mismatch"),
    (lambda params: params.__setitem__(0, (params[0][0], np.zeros((1, 1)))),
     "does not match"),
]


class TestBuildModel:
    def checkpoint(self):
        cfg = tiny_config(epochs=0)
        return Checkpoint.from_model(SigGraphGan(cfg), cfg, PreprocessStats(0.0, 1.0, 0.0))

    def forbid_draws(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a stored model drew a random initialization")

        monkeypatch.setattr(ly, "glorot_uniform", no_draw)
        monkeypatch.setattr(ly, "orthogonal_init", no_draw)

    def assert_holds_copies(self, stored, params):
        assert [name for name, _ in stored] == [p.name for p in params]
        for (_, value), param in zip(stored, params):
            assert np.array_equal(value, param.value)
            assert not np.shares_memory(value, param.value)

    def test_loads_without_drawing_an_initialization(self, monkeypatch):
        ckpt = self.checkpoint()
        self.forbid_draws(monkeypatch)
        model = ckpt.build_model()
        self.assert_holds_copies(ckpt.generator_params, model.generator.parameters())
        self.assert_holds_copies(ckpt.discriminator_params, model.discriminator.parameters())

    def test_generator_alone_skips_discriminator_values(self, monkeypatch):
        ckpt = self.checkpoint()
        ckpt.discriminator_params = []  # neither copied nor checked
        self.forbid_draws(monkeypatch)
        model = ckpt.build_generator()
        assert model.discriminator is None
        self.assert_holds_copies(ckpt.generator_params, model.generator.parameters())

    @pytest.mark.parametrize("tamper, message", TAMPERS)
    def test_mismatched_parameters_rejected(self, tamper, message):
        ckpt = self.checkpoint()
        tamper(ckpt.generator_params)
        with pytest.raises(ShapeError, match=message):
            ckpt.build_model()

    @pytest.mark.parametrize("tamper, message", TAMPERS)
    def test_generator_alone_checks_its_values(self, tamper, message):
        ckpt = self.checkpoint()
        tamper(ckpt.generator_params)
        with pytest.raises(ShapeError, match=message):
            ckpt.build_generator()


class TestCheckpointRoundTrip:
    def test_save_load_bit_exact_forward(self, tmp_path):
        cfg = tiny_config(epochs=1)
        returns = np.random.default_rng(5).standard_normal(50)
        result = train(returns, cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(result.checkpoint, path)
        loaded = load_checkpoint(path)

        real, adjs, noise = toy_batch(cfg)
        a = result.checkpoint.build_model().generator_forward(noise, adjs).value
        b = loaded.build_model().generator_forward(noise, adjs).value
        assert np.array_equal(a, b)

    def test_config_echo(self, tmp_path):
        cfg = tiny_config(epochs=0, dropout=0.17, loss_kind="kld")
        result = train(np.random.default_rng(6).standard_normal(40), cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(result.checkpoint, path)
        assert load_checkpoint(path).config == cfg

    def test_stats_round_trip(self, tmp_path):
        cfg = tiny_config(epochs=0)
        stats = PreprocessStats(mean=1.25e-4, std=0.011283946, delta=0.3125)
        result = train(np.random.default_rng(7).standard_normal(40), cfg, stats)
        path = tmp_path / "model.bin"
        save_checkpoint(result.checkpoint, path)
        assert load_checkpoint(path).stats == stats

    def test_truncated_file_reports_offset(self, tmp_path):
        cfg = tiny_config(epochs=0)
        result = train(np.random.default_rng(8).standard_normal(40), cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(result.checkpoint, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointParseError, match="byte offset"):
            load_checkpoint(path)

    @staticmethod
    def _saved_lines(tmp_path):
        cfg = tiny_config(epochs=0, loss_kind="kld", graph_direction="left_to_right", seed=3)
        result = train(np.random.default_rng(9).standard_normal(40), cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(result.checkpoint, path)
        return path, path.read_bytes().splitlines(keepends=True)

    @pytest.mark.parametrize(
        "line", [b"graph_direction=left_to_right\n", b"loss_kind=kld\n", b"seed=3\n"]
    )
    def test_missing_config_key_reports_stats_offset(self, tmp_path, line):
        path, lines = self._saved_lines(tmp_path)
        lines.remove(line)
        data = b"".join(lines)
        path.write_bytes(data)
        with pytest.raises(CheckpointParseError, match="lacks") as err:
            load_checkpoint(path)
        assert err.value.offset == data.index(b"[stats]\n")

    def test_repeated_config_key_reports_its_line(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        at = lines.index(b"[stats]\n")
        head = b"".join(lines[:at])
        path.write_bytes(head + b"seed=4\n" + b"".join(lines[at:]))
        with pytest.raises(CheckpointParseError, match="repeated config key 'seed'") as err:
            load_checkpoint(path)
        assert err.value.offset == len(head)

    def test_unknown_config_key_reports_its_line(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        at = lines.index(b"seed=3\n")
        head = b"".join(lines[:at])
        path.write_bytes(head + b"foo=1\n" + b"".join(lines[at:]))
        with pytest.raises(CheckpointParseError, match="unknown config key 'foo'") as err:
            load_checkpoint(path)
        assert err.value.offset == len(head)

    @pytest.mark.parametrize(
        "line, bad, message",
        [
            (b"seq_len=10\n", b"seq_len=ten\n", "expects an integer"),
            (b"dropout=0.35\n", b"dropout=lots\n", "expects a number"),
        ],
        ids=["integer", "number"],
    )
    def test_malformed_config_value_reports_its_line(self, tmp_path, line, bad, message):
        path, lines = self._saved_lines(tmp_path)
        at = lines.index(line)
        head = b"".join(lines[:at])
        path.write_bytes(head + bad + b"".join(lines[at + 1 :]))
        with pytest.raises(CheckpointParseError, match=message) as err:
            load_checkpoint(path)
        assert err.value.offset == len(head)

    def test_invalid_config_reports_stats_offset(self, tmp_path):
        """Lines that parse one by one but fail validation together point at [stats]."""
        path, lines = self._saved_lines(tmp_path)
        lines[lines.index(b"ablation=none\n")] = b"ablation=feedforward\n"
        lines[lines.index(b"noise_features=1\n")] = b"noise_features=3\n"
        data = b"".join(lines)
        path.write_bytes(data)
        with pytest.raises(CheckpointParseError, match="feedforward requires") as err:
            load_checkpoint(path)
        assert err.value.offset == data.index(b"[stats]\n")

    def test_repeated_stats_token_reports_its_line(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        at = lines.index(b"[stats]\n") + 1
        head = b"".join(lines[:at])
        path.write_bytes(head + lines[at].rstrip() + b" std=2.0\n" + b"".join(lines[at + 1 :]))
        with pytest.raises(CheckpointParseError, match="repeated stats key 'std'") as err:
            load_checkpoint(path)
        assert err.value.offset == len(head)

    def test_undecodable_config_line_reports_its_line(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        at = lines.index(b"seed=3\n")
        head = b"".join(lines[:at])
        path.write_bytes(head + b"seed=\xff3\n" + b"".join(lines[at + 1 :]))
        with pytest.raises(CheckpointParseError, match="undecodable") as err:
            load_checkpoint(path)
        assert err.value.offset == len(head)

    def test_negative_parameter_count_reports_its_line(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        data = b"".join(lines)
        start = data.index(b"group generator ")
        end = data.index(b"\n", start)
        path.write_bytes(data[:start] + b"group generator -1" + data[end:])
        with pytest.raises(CheckpointParseError, match="negative parameter count") as err:
            load_checkpoint(path)
        assert err.value.offset == start

    def test_element_count_mismatch_reports_its_param_line(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        data = b"".join(lines)
        start = data.index(b"\nparam ") + 1
        count = data.index(b"\n", start) + 1
        path.write_bytes(data[:count] + struct.pack("<Q", 999) + data[count + 8 :])
        with pytest.raises(CheckpointParseError, match="element count 999") as err:
            load_checkpoint(path)
        assert err.value.offset == start

    def test_bytes_after_end_rejected_at_first_extra_byte(self, tmp_path):
        path, lines = self._saved_lines(tmp_path)
        data = b"".join(lines)
        path.write_bytes(data + b"junk")
        with pytest.raises(CheckpointParseError, match="after \\[end\\]") as err:
            load_checkpoint(path)
        assert err.value.offset == len(data)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"siggraphgan-checkpoint v99\n")
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

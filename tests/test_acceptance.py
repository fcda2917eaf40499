"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from oracles import (
    Path,
    SignatureVector,
    brute_force_visibility,
    chen_concat,
    comparison_node,
    emd_lp,
    gradient_check,
    iterated_integral_quadrature,
    lead_lag,
    path_signature,
    segment_signature,
    tsum,
)
from siggraphgan import autodiff as ad
from siggraphgan import layers as ly
from siggraphgan import metrics as mt
from siggraphgan import preprocess as pp
from siggraphgan import signature as sg
from siggraphgan import visibility as vg
from siggraphgan.fixture import fixture_prices
from siggraphgan.siggan import (
    SigGanConfig,
    _mse_gap,
    _softmax_kl,
    sig_kld_loss,
    sig_mse_loss,
    train,
    generate,
)


def report(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# -- criterion 7/9 shared smoke training --------------------------------------

SMOKE_HELD_OUT = 300


def smoke_config() -> SigGanConfig:
    return SigGanConfig.for_loss(
        "mse",
        seq_len=20,
        noise_features=1,
        gnn_neurons=16,
        geo_lstm_neurons=16,
        rec_lstm_neurons=16,
        gnn_layers=1,
        rec_lstm_layers=1,
        batch_size=10,
        epochs=10,
        seed=11,
    )


def run_smoke_training():
    prices = fixture_prices()
    all_returns = pp.log_returns(prices).values
    split = all_returns.shape[0] - SMOKE_HELD_OUT
    train_returns = all_returns[:split]
    held_out = all_returns[split:]

    stats = pp.fit_stats(train_returns)
    gaussianized = pp.transform_with_stats(train_returns, stats)
    result = train(gaussianized, smoke_config(), stats)
    return result, train_returns, held_out, gaussianized, stats


@pytest.fixture(scope="module")
def smoke_run():
    start = time.time()
    payload = run_smoke_training()
    return payload, time.time() - start


def test_criterion_1_signature_correctness():
    start = time.time()
    rng = np.random.default_rng(1001)

    # Chen identity: signature of a concatenation equals the truncated
    # tensor product of the piece signatures
    for _ in range(20):
        a = rng.standard_normal((4, 2))
        b = rng.standard_normal((4, 2))
        b = b + (a[-1] - b[0])  # join end to start
        joint = np.concatenate([a, b[1:]], axis=0)
        direct = path_signature(Path(joint), 5).coefficients
        product = chen_concat(
            path_signature(Path(a), 5), path_signature(Path(b), 5)
        ).coefficients
        assert np.max(np.abs(direct - product)) <= 1e-12

    # associativity
    for _ in range(20):
        sigs = [segment_signature(rng.standard_normal(2), 5) for _ in range(3)]
        left = chen_concat(chen_concat(sigs[0], sigs[1]), sigs[2])
        right = chen_concat(sigs[0], chen_concat(sigs[1], sigs[2]))
        assert np.max(np.abs(left.coefficients - right.coefficients)) <= 1e-12

    # level-2 shuffle relation on 100 random paths
    for _ in range(100):
        sig = path_signature(Path(rng.standard_normal((6, 2))), 2)
        for i, j in itertools.product((1, 2), repeat=2):
            lhs = sig.coefficient((i, j)) + sig.coefficient((j, i))
            rhs = sig.coefficient((i,)) * sig.coefficient((j,))
            assert abs(lhs - rhs) <= 1e-10

    # nested-quadrature oracle, words up to length 3, paths up to 4 segments
    for trial in range(3):
        points = rng.standard_normal((3 + trial, 2))
        sig = path_signature(Path(points), 3)
        for length in (1, 2, 3):
            for word in itertools.product((1, 2), repeat=length):
                oracle = iterated_integral_quadrature(points, word)
                assert abs(sig.coefficient(word) - oracle) <= 1e-6

    # the batched engine the model runs, against the same quadrature oracle
    # on the lead-lag points of 3-point series (4 segments)
    series = rng.standard_normal((3, 3))
    engine = sg.leadlag_signature_batch(series, 3)
    for x, coefficients in zip(series, engine):
        sig = SignatureVector(2, 3, coefficients)
        points = lead_lag(x).points
        for length in (1, 2, 3):
            for word in itertools.product((1, 2), repeat=length):
                oracle = iterated_integral_quadrature(points, word)
                assert abs(sig.coefficient(word) - oracle) <= 1e-6

    assert sg.sig_length(2, 5) == 63
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(
        1,
        f"chen/associativity 1e-12, shuffle 1e-10, quadrature 1e-6 (oracle and engine), "
        f"63 coefficients ({elapsed:.1f}s)",
    )


def test_criterion_2_visibility_correctness():
    start = time.time()
    rng = np.random.default_rng(1002)
    for _ in range(200):
        series = rng.standard_normal(128)
        for directed in (False, True):
            fast = vg.natural_visibility(series, directed=directed).adjacency
            slow = brute_force_visibility(series, directed=directed)
            assert np.array_equal(fast, slow)

    base_series = rng.standard_normal(128)
    base = vg.natural_visibility(base_series).adjacency
    for scale in (0.5, 2.0, 10.0):
        for shift in (-5.0, 0.0, 7.0):
            transformed = vg.natural_visibility(scale * base_series + shift).adjacency
            assert np.array_equal(transformed, base)

    elapsed = time.time() - start
    assert elapsed < 10.0
    report(2, f"200-series oracle equality both directions, affine invariance exact ({elapsed:.1f}s)")


def test_criterion_3_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(1003)
    failures = []

    def check(name, builder, params):
        err = gradient_check(builder, params)
        if err > 1e-4:
            failures.append((name, err))

    # dense
    for rows, fi, fo in [(2, 3, 4), (4, 2, 3), (1, 5, 2)]:
        x = ad.Tensor(rng.standard_normal((rows, fi)))
        w = ad.Parameter(rng.standard_normal((fi, fo)), "w")
        b = ad.Parameter(rng.standard_normal(fo), "b")
        check("dense", lambda: tsum(ad.tanh(ly.dense_forward(x, w, b))), [w, b])

    # lstm
    for batch, steps, fi, hidden in [(2, 4, 3, 4), (1, 5, 2, 3), (3, 3, 4, 2)]:
        lstm = ly.LSTM(ly.RandomInit(rng), fi, hidden, "l")
        seq = ad.Parameter(rng.standard_normal((batch, steps, fi)), "seq")
        check("lstm", lambda: tsum(lstm(seq)), lstm.parameters() + [seq])

    # gcn
    for n, fi, fo in [(5, 3, 2), (4, 2, 4), (6, 1, 3)]:
        adjacency = vg.natural_visibility(rng.standard_normal(n)).adjacency.astype(float)
        h = ad.Parameter(rng.standard_normal((n, fi)), "h")
        theta = ad.Parameter(rng.standard_normal((fi, fo)), "theta")
        norm = ly.normalized_adjacency(adjacency)
        check("gcn", lambda: tsum(ly.gcn_apply(h, norm, theta)), [h, theta])

    # prelu
    for shape in [(5,), (3, 4), (2, 2, 3)]:
        x = ad.Parameter(rng.standard_normal(shape) + 0.2, "x")
        check("prelu", lambda: tsum(ad.prelu(x)), [x])

    # softmax: the kl comparison through its left argument alone
    for size in (3, 6, 9):
        logits = ad.Parameter(rng.standard_normal((2, size)), "lg")
        weights = ad.Tensor(rng.standard_normal((2, size)))
        check("softmax", lambda: tsum(comparison_node(_softmax_kl, logits, weights)), [logits])

    # kl divergence, one value per row
    for size in (3, 5, 8):
        p_logits = ad.Parameter(rng.standard_normal((2, size)), "p")
        q_logits = ad.Parameter(rng.standard_normal((2, size)), "q")
        check(
            "kl",
            lambda: tsum(comparison_node(_softmax_kl, p_logits, q_logits)),
            [p_logits, q_logits],
        )

    # mse
    for shape in [(4,), (3, 3), (2, 4, 1)]:
        a = ad.Parameter(rng.standard_normal(shape), "a")
        b = ad.Parameter(rng.standard_normal(shape), "b")
        check("mse", lambda: comparison_node(_mse_gap, a, b), [a, b])

    # both training losses, three shapes each
    for batch, steps in [(1, 5), (2, 6), (3, 4)]:
        fake = ad.Parameter(0.5 * rng.standard_normal((batch, steps, 1)), "fake")
        real = ad.Parameter(0.5 * rng.standard_normal((batch, steps, 1)), "real")
        check("sig_mse_loss", lambda: sig_mse_loss(fake, real), [fake, real])
        check("sig_kld_loss", lambda: sig_kld_loss(fake, real), [fake, real])

    assert not failures, failures
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(3, f"all layers and both losses pass central differences at 1e-4 ({elapsed:.1f}s)")


def test_criterion_4_emd_oracle_and_axioms():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 11))
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        assert abs(mt.emd_1d(x, y) - emd_lp(x, y)) <= 1e-9

    for _ in range(100):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        z = rng.standard_normal(8)
        dxy, dyx = mt.emd_1d(x, y), mt.emd_1d(y, x)
        assert abs(dxy - dyx) <= 1e-12
        assert mt.emd_1d(x, np.random.permutation(x)) <= 1e-15
        assert dxy <= mt.emd_1d(x, z) + mt.emd_1d(z, y) + 1e-12
    report(4, "LP transportation oracle matched at 1e-9 on 100 instances; axioms hold")


def test_criterion_5_baseline_recovery():
    start = time.time()
    from siggraphgan import baselines as bl

    true = bl.GarchParams(0.1, 0.1, 0.8)
    deltas = []
    for seed in range(5):
        sim = bl.garch_simulate(true, 5000, np.random.default_rng(2000 + seed))
        fit = bl.garch_fit(sim)
        deltas.append([fit.omega - 0.1, fit.alpha - 0.1, fit.beta - 0.8])
    mean_err = np.abs(np.mean(deltas, axis=0))
    assert np.all(mean_err <= 0.07), mean_err

    gbm_true = bl.GbmParams(mu=0.0004, sigma=0.011, s0=100.0)
    path = bl.gbm_simulate(gbm_true, 5000, 1, np.random.default_rng(2100))[0]
    import datetime

    dates = [datetime.date(2000, 1, 1) + datetime.timedelta(days=i) for i in range(5001)]
    gbm_fit = bl.gbm_fit(pp.PriceSeries(dates, path))
    assert abs(gbm_fit.sigma - gbm_true.sigma) <= 0.05 * gbm_true.sigma

    horizon = 25
    paths = bl.gbm_simulate(gbm_true, horizon, 100_000, np.random.default_rng(2200))
    terminal = paths[:, -1]
    expected = gbm_true.s0 * np.exp(gbm_true.mu * horizon)
    standard_error = terminal.std() / np.sqrt(terminal.shape[0])
    assert abs(terminal.mean() - expected) <= 3 * standard_error

    elapsed = time.time() - start
    assert elapsed < 120.0
    report(
        5,
        f"garch within +-0.07 (mean err {mean_err.round(4)}), gbm sigma within 5%, "
        f"MC mean within 3 SE ({elapsed:.1f}s)",
    )


def test_criterion_6_preprocessing_round_trip():
    rng = np.random.default_rng(1006)
    raw = pp.degaussianize(rng.standard_normal(3000), 0.2)
    raw = raw * 0.012 + 0.0003
    stats = pp.fit_stats(raw)
    gaussianized = pp.transform_with_stats(raw, stats)
    back = pp.invert_pipeline(gaussianized, stats)
    worst = float(np.max(np.abs(back - raw)))
    assert worst <= 1e-9

    heavy = pp.degaussianize(rng.standard_normal(10_000), 0.3)
    recovered = pp.fit_delta(heavy)
    assert abs(recovered - 0.3) <= 0.1
    report(6, f"pipeline inverse {worst:.2e} <= 1e-9; delta 0.3 recovered as {recovered:.3f}")


def test_criterion_7_smoke_training(smoke_run):
    (result, train_returns, held_out, _, _), train_seconds = smoke_run
    losses = result.epoch_losses
    assert len(losses) == 10
    assert losses[-1] < losses[0], losses

    untrained = train(
        pp.transform_with_stats(train_returns, result.checkpoint.stats),
        dataclasses.replace(smoke_config(), epochs=0),
        result.checkpoint.stats,
    )

    held_pool = np.lib.stride_tricks.sliding_window_view(held_out, 20).ravel()
    trained_windows = generate(result.checkpoint, train_returns, 200, seed=77)
    untrained_windows = generate(untrained.checkpoint, train_returns, 200, seed=77)
    emd_trained = mt.emd_1d(trained_windows.ravel(), held_pool)
    emd_untrained = mt.emd_1d(untrained_windows.ravel(), held_pool)
    assert emd_trained < emd_untrained, (emd_trained, emd_untrained)
    assert train_seconds < 300.0
    report(
        7,
        f"loss {losses[0]:.4g} -> {losses[-1]:.4g}; EMD(1) {emd_trained:.6f} < "
        f"untrained {emd_untrained:.6f}; trained in {train_seconds:.0f}s",
    )


def test_criterion_8_report_fidelity(tmp_path):
    from siggraphgan import cli

    lines = ["date,close"]
    prices = fixture_prices()
    for date, close in zip(prices.timestamps[:400], prices.closes[:400]):
        lines.append(f"{date.isoformat()},{float(close)!r}")
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "eval"
    code = cli.main(
        ["evaluate", "--real", str(csv_path), "--fake", str(csv_path), "--out-dir", str(out_dir)]
    )
    assert code == 0
    rows = (out_dir / "report.csv").read_text().splitlines()
    assert rows[0] == "metric,raw,display_x100"
    labels = tuple(line.split(",")[0] for line in rows[1:])
    assert labels == mt.REPORT_LABELS
    for line in rows[1:]:
        _, raw, display = line.split(",")
        assert float(raw) == 0.0
        assert float(display) == float(raw) * 100.0 == 0.0
    report(8, "identical inputs give all-zero metrics with exact labels and x100 scaling")


def test_criterion_9_determinism(smoke_run):
    (first, _, _, gaussianized, stats), _ = smoke_run
    second = train(gaussianized, smoke_config(), stats)
    assert first.epoch_losses == second.epoch_losses
    for group in ("generator_params", "discriminator_params"):
        for (name_a, value_a), (name_b, value_b) in zip(
            getattr(first.checkpoint, group), getattr(second.checkpoint, group)
        ):
            assert name_a == name_b
            assert np.array_equal(value_a, value_b), f"parameter {name_a} differs"
    report(9, "repeat run reproduces loss trace and every parameter bit for bit")

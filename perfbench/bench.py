"""Workloads, output checks and metrics of the siggraphgan benchmark.

Each workload is a closed loop with one client: an operation starts when
the previous one ends, until the measuring time is used up.

- train_* workloads train for the first half of the run, repeating one
  `train()` call of a fixed size, then repeat `generate` from the trained
  checkpoint plus `build_report` on the samples for the second half. All
  calls of one kind in a run use the same seed, so each must reproduce the
  same numbers.
- score_kld repeats a round: `generate` 200 windows from an untrained
  kld-preset checkpoint, GARCH(1,1) and GBM fits with 200 simulated
  windows each, and `build_report` for all three sample sets.

Only the package's public entry points are called. The traced pass
(`tracer.Tracer`) times the layers by wrapping them from this directory.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field

import numpy as np

import siggraphgan as sg
from siggraphgan import preprocess as pp
from siggraphgan.fixture import fixture_path
from siggraphgan.siggan import SigGraphGan

from tracer import MB, Tracer

REL_TOL = 1e-9
SETUP_REPEATS = 3
# operations per phase in the traced pass; fixed, so its counts repeat exactly
TRACE_OPS = {"train": (1, 2), "score": (2,)}
PEAK_BATCHES = 3  # batches trained in the tracemalloc pass

# the criterion-7 smoke architecture of the acceptance suite
SMOKE = dict(
    seq_len=20, noise_features=1, gnn_neurons=16, geo_lstm_neurons=16,
    rec_lstm_neurons=16, gnn_layers=1, rec_lstm_layers=1, batch_size=10, epochs=1,
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "score"
    loss: str  # preset of SigGanConfig.for_loss
    overrides: dict = field(default_factory=dict)
    base_seed: int = 0  # config seed is base_seed + workload seed
    closes: int | None = None  # stop of the fixture closes it trains or conditions on
    n_samples: int = 200
    warmup: bool = False  # one untimed operation before measuring


WORKLOADS = {
    w.name: w
    for w in (
        # the fixture minus its last 300 returns: 2195 windows, 219 batches
        Workload("train_smoke", "train", "mse", SMOKE, base_seed=11, closes=-300),
        # seq_len + batch_size returns: exactly one batch of 10 per train() call;
        # the first call of a process faults in ~3.5 GB, hence the warm-up.
        # 64 samples (one generator chunk) leave time for several draws.
        Workload("train_kld", "train", "kld", dict(seq_len=100, batch_size=10, epochs=1),
                 closes=111, n_samples=64, warmup=True),
        Workload("score_kld", "score", "kld", dict(seq_len=100, epochs=0)),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "generate_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# per-layer metric -> unit; "*_s" are summed self-times unless noted
LAYER_UNITS = {
    "preprocess.prepare_s": "s", "preprocess.invert_s": "s",
    "visibility.adjacency_s": "s", "visibility.graphs": "count", "visibility.adjacency_mb": "MB",
    "signature.fwd_s": "s", "signature.adjoint_s": "s", "signature.rows": "count",
    "signature.chen_steps": "count", "signature.snapshot_mb": "MB",
    "autodiff.backward_s": "s", "autodiff.backward_self_s": "s",
    "autodiff.nodes_per_backward": "count", "autodiff.wasted_grad_share": "ratio",
    "autodiff.backward_peak_mb": "MB",
    "layers.lstm_fwd_s": "s", "layers.gcn_fwd_s": "s",
    "optim.step_s": "s", "optim.steps": "count",
    "siggan.gen_fwd_s": "s", "siggan.disc_fwd_s": "s", "siggan.rec_fwd_s": "s",
    "siggan.geo_fwd_s": "s", "siggan.ff_fwd_s": "s", "siggan.loss_s": "s",
    "siggan.batch_s_p50": "s", "siggan.batch_s_p90": "s", "siggan.batches": "count",
    "siggan.batch_peak_mb": "MB",
    "metrics.report_s": "s", "metrics.emd_s": "s", "metrics.signature_s": "s",
    "metrics.leverage_s": "s",
    "baselines.garch_fit_s": "s", "baselines.gbm_fit_s": "s", "baselines.garch_evals": "count",
    "baselines.simulate_s": "s",
    "checkpoint.save_s": "s", "checkpoint.load_s": "s", "checkpoint.mb": "MB",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_setup_s": "s", "trace.overhead_op_s": "s",
    "trace.overhead_generate_s": "s", "trace.overhead_evaluate_s": "s",
}

# span name -> per-layer metric holding its self time; together with
# trace.unattributed_s these add up to trace.wall_s
SELF_TIME_METRICS = {
    "preprocess.prepare": "preprocess.prepare_s",
    "preprocess.invert": "preprocess.invert_s",
    "visibility.adjacency": "visibility.adjacency_s",
    "signature.fwd": "signature.fwd_s",
    "signature.adjoint": "signature.adjoint_s",
    "autodiff.backward": "autodiff.backward_self_s",
    "layers.lstm_fwd": "layers.lstm_fwd_s",
    "layers.gcn_fwd": "layers.gcn_fwd_s",
    "optim.step": "optim.step_s",
    "siggan.gen_fwd": "siggan.gen_fwd_s",
    "siggan.disc_fwd": "siggan.disc_fwd_s",
    "siggan.rec_fwd": "siggan.rec_fwd_s",
    "siggan.geo_fwd": "siggan.geo_fwd_s",
    "siggan.ff_fwd": "siggan.ff_fwd_s",
    "siggan.loss": "siggan.loss_s",
    "metrics.report": "metrics.report_s",
    "metrics.emd": "metrics.emd_s",
    "metrics.signature": "metrics.signature_s",
    "metrics.leverage": "metrics.leverage_s",
    "baselines.garch_fit": "baselines.garch_fit_s",
    "baselines.gbm_fit": "baselines.gbm_fit_s",
    "baselines.simulate": "baselines.simulate_s",
    "checkpoint.save": "checkpoint.save_s",
    "checkpoint.load": "checkpoint.load_s",
}


class NullTracer:
    """Stand-in for `Tracer` on untraced passes: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def train_started(self):
        pass


@dataclass
class Inputs:
    cfg: sg.SigGanConfig
    prices: pp.PriceSeries
    raw: np.ndarray  # log returns the workload trains or conditions on
    gaussianized: np.ndarray
    stats: pp.PreprocessStats
    real: np.ndarray  # log returns of the whole fixture, the reports' reference side
    checkpoint: sg.Checkpoint | None = None  # score_kld's untrained checkpoint
    checkpoint_bytes: int = 0
    trained: sg.Checkpoint | None = None  # checkpoint of the latest train() call


@dataclass
class Tally:
    """Samples and outcomes of one measuring pass."""

    setup: list[float] = field(default_factory=list)
    op: list[float] = field(default_factory=list)
    generate: list[float] = field(default_factory=list)
    evaluate: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, dict] = field(default_factory=dict)  # last outputs per reference key


def set_up(w: Workload, seed: int, workdir: str, tracer) -> Inputs:
    fixture = sg.load_price_csv(fixture_path())
    keep = slice(None, w.closes)
    prices = pp.PriceSeries(fixture.timestamps[keep], fixture.closes[keep])
    gaussianized, stats = tracer.call(
        "preprocess.prepare", pp.prepare_training_returns, prices
    )
    cfg = sg.SigGanConfig.for_loss(w.loss, seed=w.base_seed + seed, **w.overrides)
    inputs = Inputs(
        cfg=cfg,
        prices=prices,
        raw=pp.log_returns(prices).values,
        gaussianized=gaussianized,
        stats=stats,
        real=pp.log_returns(fixture).values,
    )
    if w.kind == "score":
        path = os.path.join(workdir, f"{w.name}-{os.getpid()}.ckpt")
        untrained = sg.Checkpoint.from_model(SigGraphGan(cfg), cfg, stats)
        try:
            tracer.call("checkpoint.save", sg.save_checkpoint, untrained, path)
            inputs.checkpoint = tracer.call("checkpoint.load", sg.load_checkpoint, path)
            inputs.checkpoint_bytes = os.path.getsize(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
    return inputs


def batches_per_call(cfg: sg.SigGanConfig, n_returns: int) -> int:
    n_windows = n_returns - cfg.seq_len + 1
    return len(range(0, n_windows - cfg.batch_size + 1, cfg.batch_size)) * cfg.epochs


def _timed(samples: list, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    samples.append(time.perf_counter() - start)
    return result


def train_call(w: Workload, inp: Inputs, seed: int, index: int, tally: Tally, tracer) -> dict:
    """One train() call; op_s samples its wall over the batches it ran."""
    batches = batches_per_call(inp.cfg, inp.gaussianized.shape[0])
    tally.attempted += batches
    tracer.train_started()
    start = time.perf_counter()
    result = sg.train(inp.gaussianized, inp.cfg, inp.stats)
    tally.op.append((time.perf_counter() - start) / batches)
    inp.trained = result.checkpoint
    return {"epoch_losses": list(result.epoch_losses)}


def sample_pair(w: Workload, inp: Inputs, seed: int, index: int, tally: Tally, tracer) -> dict:
    """generate from the trained checkpoint, then build_report on the samples."""
    tally.attempted += 2
    samples = _timed(tally.generate, sg.generate, inp.trained, inp.raw, w.n_samples, seed)
    report = _timed(
        tally.evaluate, tracer.call, "metrics.report", sg.build_report, inp.real, samples.ravel()
    )
    return {"samples": samples, "report": report.values}


def score_round(w: Workload, inp: Inputs, seed: int, index: int, tally: Tally, tracer) -> dict:
    """generate, fit and simulate both baselines, report on all three."""
    tally.attempted += 6
    seq_len = inp.cfg.seq_len
    start = time.perf_counter()
    samples = _timed(
        tally.generate, sg.generate, inp.checkpoint, inp.raw, w.n_samples, 1000 * seed + index
    )
    garch = tracer.call("baselines.garch_fit", sg.garch_fit, inp.raw)
    gbm = tracer.call("baselines.gbm_fit", sg.gbm_fit, inp.prices)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))

    def simulate():
        garch_windows = np.stack(
            [sg.garch_simulate(garch, seq_len, rng) for _ in range(w.n_samples)]
        )
        gbm_paths = sg.gbm_simulate(gbm, seq_len, w.n_samples, rng)
        return garch_windows, np.diff(np.log(gbm_paths), axis=1)

    garch_windows, gbm_windows = tracer.call("baselines.simulate", simulate)
    reports = {}
    for label, windows in (("gan", samples), ("garch", garch_windows), ("gbm", gbm_windows)):
        report = _timed(
            tally.evaluate, tracer.call, "metrics.report", sg.build_report,
            inp.real, windows.ravel(),
        )
        reports[label] = report.values
    tally.op.append(time.perf_counter() - start)
    return {
        "samples": samples,
        "garch": [garch.omega, garch.alpha, garch.beta],
        "report": reports,
    }


def phases(w: Workload):
    """(operation, share of the measuring time it may use up to) per phase.

    A train workload trains for the first half of the run, then draws and
    scores samples from the trained checkpoint for the rest.
    """
    if w.kind == "train":
        return ((train_call, 0.5), (sample_pair, 1.0))
    return ((score_round, 1.0),)


# -- output check -------------------------------------------------------------


def flatten(outputs: dict) -> dict[str, float]:
    """Reference-comparable scalars of one operation's outputs, by name."""
    flat = {}

    def visit(prefix, value):
        if isinstance(value, dict):
            for key in sorted(value):
                visit(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                visit(f"{prefix}.{i}", item)
        else:
            flat[prefix] = float(value)

    visit("", {k: v for k, v in outputs.items() if k != "samples"})
    return flat


def check_outputs(w: Workload, inp: Inputs, outputs: dict, reference: dict | None) -> list[str]:
    """Problems with one operation's outputs; empty when they pass.

    Always: sample shape, epoch count and every value finite. With a
    reference: every scalar equal to it within a relative tolerance of
    REL_TOL.
    """
    problems = []
    samples = outputs.get("samples")
    if samples is not None and samples.shape != (w.n_samples, inp.cfg.seq_len):
        problems.append(f"samples have shape {samples.shape}")
    if samples is not None and not np.all(np.isfinite(samples)):
        problems.append("samples hold non-finite values")
    flat = flatten(outputs)
    if "epoch_losses" in outputs and len(outputs["epoch_losses"]) != inp.cfg.epochs:
        problems.append(f"{len(outputs['epoch_losses'])} epoch losses for {inp.cfg.epochs} epochs")
    for name, value in flat.items():
        if not math.isfinite(value):
            problems.append(f"{name} = {value}")
    if reference is not None:
        if set(reference) != set(flat):
            problems.append(f"output names differ from the reference: {sorted(set(reference) ^ set(flat))}")
        for name in sorted(set(reference) & set(flat)):
            if not math.isclose(flat[name], reference[name], rel_tol=REL_TOL, abs_tol=0.0):
                problems.append(f"{name} = {flat[name]!r}, reference {reference[name]!r}")
    return problems


def reference_key(w: Workload, op, index: int) -> str:
    """Operations of a train workload repeat identical work, so every call
    of one kind shares a reference; score rounds each have their own."""
    return op.__name__ if w.kind == "train" else f"{op.__name__}.{index}"


# -- passes -------------------------------------------------------------------


def run_op(w, op, inp, seed, index, tally, tracer, refs):
    """One closed-loop operation; a failure or a wrong output counts as failed."""
    attempted_before = tally.attempted
    try:
        outputs = op(w, inp, seed, index, tally, tracer)
    except Exception:  # the loop must go on; the traceback goes to stderr
        traceback.print_exc(file=sys.stderr)
        tally.failed += tally.attempted - attempted_before
        tally.problems.append(f"{op.__name__} {index} raised")
        return
    key = reference_key(w, op, index)
    reference = (refs or {}).get(w.name, {}).get(str(seed), {}).get(key)
    problems = check_outputs(w, inp, outputs, reference)
    if problems:
        tally.failed += tally.attempted - attempted_before
        tally.problems.extend(f"{key}: {p}" for p in problems)
    tally.outputs[key] = outputs


def measure(w, inp, seed, seconds, tally, tracer, refs, counts=None):
    """Closed loop through the workload's phases.

    Each phase runs at least one operation, and starts another only while
    one of median length would end less than half an operation past the
    phase's share of ``seconds``. With ``counts``, phase i instead runs
    exactly counts[i] operations.
    """
    start = time.perf_counter()
    for i, (op, share) in enumerate(phases(w)):
        durations = []
        while True:
            began = time.perf_counter()
            run_op(w, op, inp, seed, len(durations), tally, tracer, refs)
            durations.append(time.perf_counter() - began)
            if counts is not None:
                if len(durations) >= counts[i]:
                    break
            elif time.perf_counter() - start + statistics.median(durations) / 2 > share * seconds:
                break


def untraced_pass(w, seed, seconds, workdir, refs) -> Tally:
    tally = Tally()
    tracer = NullTracer()
    for _ in range(SETUP_REPEATS):
        inp = _timed(tally.setup, set_up, w, seed, workdir, tracer)
    if w.warmup:
        run_op(w, phases(w)[0][0], inp, seed, 0, Tally(), tracer, None)
    measure(w, inp, seed, seconds, tally, tracer, refs)
    return tally


def e2e_metrics(tally: Tally, import_seconds: float) -> dict[str, float]:
    return {
        "setup_s": import_seconds + statistics.median(tally.setup),
        "op_s": statistics.median(tally.op),
        "generate_s": statistics.median(tally.generate),
        "evaluate_s": statistics.median(tally.evaluate),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (tally.attempted - tally.failed) / tally.attempted,
    }


def traced_pass(w, seed, workdir, refs, run_id) -> tuple[Tally, Tracer, float, Inputs]:
    tally = Tally()
    with Tracer(run_id) as tracer:
        start = time.perf_counter()
        inp = _timed(tally.setup, set_up, w, seed, workdir, tracer)
        measure(w, inp, seed, None, tally, tracer, refs, counts=TRACE_OPS[w.kind])
        wall = time.perf_counter() - start
    return tally, tracer, wall, inp


def peak_pass(w: Workload, inp: Inputs) -> Tracer:
    """tracemalloc peaks of a short train() call at the workload's shapes."""
    tracer = Tracer("peaks", peaks=True)
    if w.kind != "train":
        return tracer
    cfg = inp.cfg
    n = min(inp.gaussianized.shape[0], cfg.seq_len + cfg.batch_size * PEAK_BATCHES)
    tracemalloc.start()
    try:
        with tracer:
            tracer.train_started()
            sg.train(inp.gaussianized[:n], cfg, inp.stats)
    finally:
        tracemalloc.stop()
    return tracer


def layer_metrics(tracer: Tracer, wall: float, inp: Inputs, peaks: Tracer) -> dict[str, float]:
    selfs = tracer.self_seconds()
    totals = tracer.total_seconds()
    counts = tracer.counts
    out = {metric: selfs.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    out["autodiff.backward_s"] = totals.get("autodiff.backward", 0.0)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - tracer.covered_seconds()

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    # totals over the traced pass, whose work is fixed
    for name in ("visibility.graphs", "signature.rows", "signature.chen_steps",
                 "optim.steps", "baselines.garch_evals"):
        out[name] = counts[name]
    out["visibility.adjacency_mb"] = counts["visibility.max_adjacency_bytes"] / MB
    out["signature.snapshot_mb"] = counts["signature.max_snapshot_bytes"] / MB
    out["autodiff.nodes_per_backward"] = ratio("autodiff.nodes", "autodiff.backwards")
    out["autodiff.wasted_grad_share"] = ratio("autodiff.wasted_grad_elements", "autodiff.grad_elements")
    batches = tracer.batch_seconds
    out["siggan.batches"] = float(len(batches))
    out["siggan.batch_s_p50"] = float(np.percentile(batches, 50)) if batches else 0.0
    out["siggan.batch_s_p90"] = float(np.percentile(batches, 90)) if batches else 0.0
    out["autodiff.backward_peak_mb"] = peaks.backward_peak / MB
    out["siggan.batch_peak_mb"] = peaks.batch_peak / MB
    out["checkpoint.mb"] = inp.checkpoint_bytes / MB
    return out


def run(w: Workload, seed: int, seconds: float, trace: bool, import_seconds: float,
        workdir: str, refs: dict | None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    os.makedirs(workdir, exist_ok=True)
    tally = untraced_pass(w, seed, seconds, workdir, refs)
    untraced = e2e_metrics(tally, import_seconds)
    attempted, failed, problems = tally.attempted, tally.failed, list(tally.problems)
    info = {"setup_s": len(tally.setup), "op_s": len(tally.op),
            "generate_s": len(tally.generate), "evaluate_s": len(tally.evaluate)}
    if not trace:
        metrics = untraced
        units = E2E_UNITS
    else:
        run_id = f"{w.name}-seed{seed}-pid{os.getpid()}"
        t_tally, tracer, wall, t_inp = traced_pass(w, seed, workdir, refs, run_id)
        attempted += t_tally.attempted
        failed += t_tally.failed
        problems += t_tally.problems
        traced = e2e_metrics(t_tally, import_seconds)
        peaks = peak_pass(w, t_inp)
        metrics = layer_metrics(tracer, wall, t_inp, peaks)
        for name in ("setup_s", "op_s", "generate_s", "evaluate_s"):
            metrics[f"trace.overhead_{name}"] = traced[name] - untraced[name]
        tracer.write(os.path.join(workdir, f"trace-{run_id}.json"))
        units = LAYER_UNITS
    return {
        "info": info,
        "problems": problems,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def record_outputs(w: Workload, seed: int, ops: int, workdir: str) -> dict[str, dict[str, float]]:
    """Flattened outputs of ``ops`` operations per phase, keyed for refs.json."""
    tally = Tally()
    inp = set_up(w, seed, workdir, NullTracer())
    measure(w, inp, seed, None, tally, NullTracer(), None, counts=[ops] * len(phases(w)))
    if tally.problems:
        raise RuntimeError(f"cannot record references: {tally.problems}")
    return {key: flatten(outputs) for key, outputs in tally.outputs.items()}

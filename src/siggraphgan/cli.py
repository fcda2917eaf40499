"""Batch command-line pipeline: train, generate, evaluate, ablate, baseline.

Configuration comes from a flat ``key = value`` text file; unknown keys
are hard errors. Every artifact write is atomic. Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric failure, 5 checkpoint
version mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .baselines import garch_fit, garch_simulate, gbm_fit, gbm_simulate
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (
    CheckpointVersionError,
    ConfigError,
    DataError,
    GraphError,
    NumericError,
    ShapeError,
    SigGraphGanError,
)
from .ioutil import atomic_write_text
from .metrics import build_report
from .preprocess import load_price_csv, log_returns, prepare_training_returns
from .siggan import ABLATION_COMPONENTS, SigGanConfig, generate, parse_config_items, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_VERSION = 5

BASELINE_CHOICES = ("garch", "gbm")

HISTOGRAM_HORIZONS = (1, 5, 10)

_RUN_KEY_DEFAULTS = {
    "input": None,
    "output_dir": ".",
    "baseline": None,
    "n_samples": 200,
}


@dataclasses.dataclass
class RunConfig:
    """Model config plus file paths and run-level knobs."""

    model: SigGanConfig
    input: str | None
    output_dir: str
    baseline: str | None
    n_samples: int


def parse_run_config(path) -> RunConfig:
    """Read a flat key=value config file; unknown keys are rejected."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot open config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text: {exc}") from exc

    items: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in items:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        items[key] = value

    run_items = {k: items.pop(k) for k in list(items) if k in _RUN_KEY_DEFAULTS}

    # the loss kind selects the preset defaults; explicit keys then override
    loss_kind = items.pop("loss_kind", "mse")
    model = SigGanConfig.for_loss(loss_kind, **parse_config_items(items))

    baseline = run_items.get("baseline")
    if baseline is not None and baseline not in BASELINE_CHOICES:
        raise ConfigError(
            f"config key 'baseline' must be one of {BASELINE_CHOICES}, got {baseline!r}"
        )
    try:
        n_samples = int(run_items.get("n_samples", _RUN_KEY_DEFAULTS["n_samples"]))
    except ValueError as exc:
        raise ConfigError(f"bad integer in run config: {exc}") from exc
    if n_samples < 0:
        raise ConfigError("n_samples must be >= 0")
    return RunConfig(
        model=model,
        input=run_items.get("input"),
        output_dir=run_items.get("output_dir", "."),
        baseline=baseline,
        n_samples=n_samples,
    )


def _require_input(run: RunConfig) -> str:
    if not run.input:
        raise ConfigError("config key 'input' (price CSV path) is required")
    if not os.path.exists(run.input):
        raise DataError(f"input file not found: {run.input}")
    return run.input


def _loss_trace_text(losses) -> str:
    lines = ["epoch,loss"]
    for epoch, loss in enumerate(losses):
        lines.append(f"{epoch},{loss!r}")
    return "\n".join(lines) + "\n"


def _samples_csv_text(samples: np.ndarray) -> str:
    lines = ["sample_id,step,log_return"]
    for sample_id, window in enumerate(samples):
        for step, value in enumerate(window):
            lines.append(f"{sample_id},{step},{float(value)!r}")
    return "\n".join(lines) + "\n"


def _read_returns_csv(path) -> np.ndarray:
    """Parse either a price CSV (date,close) or a generated-sample CSV."""
    try:
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().strip()
            if header == "sample_id,step,log_return":
                return _read_sample_rows(path, handle)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if header == "date,close":
        return log_returns(load_price_csv(path)).values
    raise DataError(
        f"{path}: unrecognized header {header!r}; expected 'date,close' or "
        f"'sample_id,step,log_return'"
    )


def _read_sample_rows(path, handle) -> np.ndarray:
    """The finite ``log_return`` column of a sample CSV's data rows."""
    values = []
    for lineno, raw in enumerate(handle, start=2):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields")
        try:
            value = float(fields[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad log_return {fields[2]!r}") from exc
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: non-finite log_return {fields[2]!r}")
        values.append(value)
    if not values:
        raise DataError(f"{path}: no data rows")
    return np.array(values)


def _histogram_csv_text(real: np.ndarray, fake: np.ndarray, bins: int) -> str:
    lo = min(real.min(), fake.min())
    hi = max(real.max(), fake.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    count_real, _ = np.histogram(real, bins=edges)
    count_fake, _ = np.histogram(fake, bins=edges)
    lines = ["bin_left,bin_right,count_real,count_fake"]
    for i in range(bins):
        lines.append(
            f"{float(edges[i])!r},{float(edges[i + 1])!r},{count_real[i]},{count_fake[i]}"
        )
    return "\n".join(lines) + "\n"


def _write_report_files(real, fake, out_dir, bins, prefix=""):
    from .metrics import k_day_aggregate

    report = build_report(real, fake)
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_text(os.path.join(out_dir, f"{prefix}report.csv"), report.to_csv_text())
    atomic_write_text(os.path.join(out_dir, f"{prefix}report.txt"), report.to_table_text())
    for k in HISTOGRAM_HORIZONS:
        text = _histogram_csv_text(
            k_day_aggregate(real, k), k_day_aggregate(fake, k), bins
        )
        atomic_write_text(os.path.join(out_dir, f"{prefix}hist_k{k}.csv"), text)
    return report


# -- commands -----------------------------------------------------------------


def cmd_train(args) -> int:
    run = parse_run_config(args.config)
    if args.seed is not None:
        run.model = dataclasses.replace(run.model, seed=args.seed)
    prices = load_price_csv(_require_input(run))
    gaussianized, stats = prepare_training_returns(prices)
    result = train(gaussianized, run.model, stats)
    os.makedirs(run.output_dir, exist_ok=True)
    save_checkpoint(result.checkpoint, os.path.join(run.output_dir, "checkpoint.bin"))
    atomic_write_text(
        os.path.join(run.output_dir, "loss_trace.csv"),
        _loss_trace_text(result.epoch_losses),
    )
    print(f"wrote {os.path.join(run.output_dir, 'checkpoint.bin')}")
    print(f"wrote {os.path.join(run.output_dir, 'loss_trace.csv')}")
    return EXIT_OK


def cmd_generate(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    if not os.path.exists(args.input):
        raise DataError(f"input file not found: {args.input}")
    conditioning = log_returns(load_price_csv(args.input)).values
    samples = generate(checkpoint, conditioning, args.samples, seed=args.seed or 0)
    atomic_write_text(args.out, _samples_csv_text(samples))
    print(f"wrote {args.out} ({samples.shape[0]} windows of {samples.shape[1]})")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.bins < 1:
        raise ConfigError(f"--bins must be >= 1, got {args.bins}")
    real = _read_returns_csv(args.real)
    fake = _read_returns_csv(args.fake)
    report = _write_report_files(real, fake, args.out_dir, args.bins)
    print(report.to_table_text(), end="")
    return EXIT_OK


def cmd_ablate(args) -> int:
    run = parse_run_config(args.config)
    if args.seed is not None:
        run.model = dataclasses.replace(run.model, seed=args.seed)
    components = [c for c in (args.components or "").split(",") if c]
    # ablated() rejects an unknown component before any I/O or training
    variants = [("baseline", run.model)]
    variants += [(f"w/o {c}", run.model.ablated(c)) for c in components]
    prices = load_price_csv(_require_input(run))
    raw_returns = log_returns(prices).values
    gaussianized, stats = prepare_training_returns(prices)
    os.makedirs(run.output_dir, exist_ok=True)

    rows = []
    for label, cfg in variants:
        result = train(gaussianized, cfg, stats)
        samples = generate(result.checkpoint, raw_returns, run.n_samples, seed=cfg.seed)
        report = build_report(raw_returns, samples.ravel())
        rows.append((label, report))
        print(f"{label}: done")

    from .metrics import REPORT_LABELS

    lines = ["variant," + ",".join(REPORT_LABELS)]
    for label, report in rows:
        cells = ",".join(repr(report.values[m]) for m in REPORT_LABELS)
        lines.append(f"{label},{cells}")
    out = os.path.join(run.output_dir, "ablation.csv")
    atomic_write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    run = parse_run_config(args.config)
    if run.baseline is None:
        raise ConfigError(f"config key 'baseline' (one of {BASELINE_CHOICES}) is required")
    seed = args.seed if args.seed is not None else run.model.seed
    prices = load_price_csv(_require_input(run))
    seq_len = run.model.seq_len
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    if run.baseline == "garch":
        returns = log_returns(prices).values
        params = garch_fit(returns)
        samples = np.array(
            [garch_simulate(params, seq_len, rng) for _ in range(run.n_samples)]
        ).reshape(run.n_samples, seq_len)
    else:
        params = gbm_fit(prices)
        paths = gbm_simulate(params, seq_len, max(run.n_samples, 1), rng)
        samples = np.diff(np.log(paths), axis=1)
        samples = samples[: run.n_samples]
    os.makedirs(run.output_dir, exist_ok=True)
    out = os.path.join(run.output_dir, f"{run.baseline}_samples.csv")
    atomic_write_text(out, _samples_csv_text(samples))
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siggraphgan",
        description="Synthetic financial return generation and evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_train = sub.add_parser("train", help="preprocess a price CSV and train the model")
    p_train.add_argument("--config", required=True)
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_gen = sub.add_parser("generate", help="sample synthetic return windows")
    p_gen.add_argument("--checkpoint", required=True)
    p_gen.add_argument("--input", required=True, help="price CSV used as conditioning data")
    p_gen.add_argument("--samples", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_eval = sub.add_parser("evaluate", help="score synthetic returns against real ones")
    p_eval.add_argument("--real", required=True)
    p_eval.add_argument("--fake", required=True)
    p_eval.add_argument("--out-dir", required=True)
    p_eval.add_argument("--bins", type=int, default=50)
    p_eval.set_defaults(func=cmd_evaluate)

    p_abl = sub.add_parser("ablate", help="retrain with components removed and compare")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument(
        "--components",
        default="",
        help=f"comma-separated subset of {','.join(ABLATION_COMPONENTS)}",
    )
    add_common(p_abl)
    p_abl.set_defaults(func=cmd_ablate)

    p_base = sub.add_parser("baseline", help="fit and sample a classical baseline")
    p_base.add_argument("--config", required=True)
    add_common(p_base)
    p_base.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ShapeError, GraphError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointVersionError as exc:
        print(f"checkpoint version error: {exc}", file=sys.stderr)
        return EXIT_VERSION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SigGraphGanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

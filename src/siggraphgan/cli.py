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
from .ioutil import atomic_write_text, csv_text, read_csv_rows
from .metrics import REPORT_LABELS, build_report, k_day_aggregate
from .preprocess import load_price_csv, log_returns, prepare_training_returns, prices_from_rows
from .siggan import ABLATION_COMPONENTS, SigGanConfig, generate, parse_config_value, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_VERSION = 5

BASELINE_CHOICES = ("garch", "gbm")

HISTOGRAM_HORIZONS = (1, 5, 10)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Model config plus file paths and run-level knobs."""

    model: SigGanConfig
    input: str
    output_dir: str = "."
    baseline: str | None = None
    n_samples: int = 200


_RUN_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "model")


def parse_run_config(path, seed: int | None = None) -> RunConfig:
    """Read a flat key=value config file; unknown keys are rejected.

    A ``seed`` that is not None replaces the file's seed.
    """
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

    run_items = {k: items.pop(k) for k in list(items) if k in _RUN_KEYS}

    # the loss kind selects the preset defaults; explicit keys then override
    loss_kind = items.pop("loss_kind", "mse")
    overrides = {key: parse_config_value(key, text) for key, text in items.items()}
    if seed is not None:
        overrides["seed"] = seed
    model = SigGanConfig.for_loss(loss_kind, **overrides)

    baseline = run_items.get("baseline")
    if baseline is not None and baseline not in BASELINE_CHOICES:
        raise ConfigError(
            f"config key 'baseline' must be one of {BASELINE_CHOICES}, got {baseline!r}"
        )
    if "n_samples" in run_items:
        try:
            run_items["n_samples"] = int(run_items["n_samples"])
        except ValueError as exc:
            raise ConfigError(f"bad integer in run config: {exc}") from exc
        if run_items["n_samples"] < 0:
            raise ConfigError("n_samples must be >= 0")
    if not run_items.get("input"):
        raise ConfigError("config key 'input' (price CSV path) is required")
    return RunConfig(model=model, **run_items)


def _out_path(out_dir, name) -> str:
    """Path of artifact ``name`` in ``out_dir``, the working directory if empty.

    The directory is made if missing; one that cannot be made, such as a
    path naming a file, is a `DataError` naming it.
    """
    try:
        os.makedirs(out_dir or ".", exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot make output directory {out_dir}: {exc}") from exc
    return os.path.join(out_dir, name)


def _write(out_dir, name, text) -> str:
    """Write one artifact atomically into ``out_dir`` (see `_out_path`); returns its path."""
    path = _out_path(out_dir, name)
    atomic_write_text(path, text)
    return path


def _samples_csv_text(samples: np.ndarray) -> str:
    rows = (
        (sample_id, step, value)
        for sample_id, window in enumerate(samples.tolist())
        for step, value in enumerate(window)
    )
    return csv_text(("sample_id", "step", "log_return"), rows)


def _read_returns_csv(path) -> np.ndarray:
    """Parse either a price CSV (date,close) or a generated-sample CSV.

    A sample CSV gives the finite ``log_return`` column of its data rows.
    """
    header, rows = read_csv_rows(path)
    names = [h.strip() for h in header or []]
    if names == ["date", "close"]:
        return log_returns(prices_from_rows(path, header, rows)).values
    if names != ["sample_id", "step", "log_return"]:
        raise DataError(
            f"{path}: unrecognized header {','.join(header or [])!r}; expected "
            f"'date,close' or 'sample_id,step,log_return'"
        )
    values = []
    for lineno, row in rows:
        if len(row) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields")
        try:
            value = float(row[2])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad log_return {row[2]!r}") from exc
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: non-finite log_return {row[2]!r}")
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
    rows = zip(edges[:-1].tolist(), edges[1:].tolist(), count_real, count_fake)
    return csv_text(("bin_left", "bin_right", "count_real", "count_fake"), rows)


def _write_report_files(real, fake, out_dir, bins):
    report = build_report(real, fake)
    _write(out_dir, "report.csv", report.to_csv_text())
    _write(out_dir, "report.txt", report.to_table_text())
    for k in HISTOGRAM_HORIZONS:
        text = _histogram_csv_text(
            k_day_aggregate(real, k), k_day_aggregate(fake, k), bins
        )
        _write(out_dir, f"hist_k{k}.csv", text)
    return report


# -- commands -----------------------------------------------------------------


def cmd_train(args) -> int:
    run = parse_run_config(args.config, args.seed)
    gaussianized, stats = prepare_training_returns(load_price_csv(run.input))
    checkpoint = _out_path(run.output_dir, "checkpoint.bin")  # fails fast, before training
    result = train(gaussianized, run.model, stats)
    save_checkpoint(result.checkpoint, checkpoint)
    trace = csv_text(("epoch", "loss"), enumerate(result.epoch_losses))
    print(f"wrote {checkpoint}")
    print(f"wrote {_write(run.output_dir, 'loss_trace.csv', trace)}")
    return EXIT_OK


def cmd_generate(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    conditioning = log_returns(load_price_csv(args.input)).values
    samples = generate(checkpoint, conditioning, args.samples, seed=args.seed or 0)
    _write(*os.path.split(args.out), _samples_csv_text(samples))
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
    run = parse_run_config(args.config, args.seed)
    components = [c for c in (args.components or "").split(",") if c]
    # ablated() rejects an unknown component before any I/O or training
    variants = [("baseline", run.model)]
    variants += [(f"w/o {c}", run.model.ablated(c)) for c in components]
    prices = load_price_csv(run.input)
    raw_returns = log_returns(prices).values
    gaussianized, stats = prepare_training_returns(prices)
    table_path = _out_path(run.output_dir, "ablation.csv")  # fails fast, before training

    rows = []
    for label, cfg in variants:
        result = train(gaussianized, cfg, stats)
        samples = generate(result.checkpoint, raw_returns, run.n_samples, seed=cfg.seed)
        report = build_report(raw_returns, samples.ravel())
        rows.append((label, *(report.values[m] for m in REPORT_LABELS)))
        print(f"{label}: done")

    atomic_write_text(table_path, csv_text(("variant",) + REPORT_LABELS, rows))
    print(f"wrote {table_path}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    run = parse_run_config(args.config, args.seed)
    if run.baseline is None:
        raise ConfigError(f"config key 'baseline' (one of {BASELINE_CHOICES}) is required")
    prices = load_price_csv(run.input)
    seq_len = run.model.seq_len
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(run.model.seed)))

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
    out = _write(run.output_dir, f"{run.baseline}_samples.csv", _samples_csv_text(samples))
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

"""Print a digest of fixed training runs, to check a change is bit-identical.

Run it at two commits and diff the outputs:

    python tests/training_digest.py > before.txt   # at the parent
    python tests/training_digest.py > after.txt    # at the change
    diff before.txt after.txt

For each run it prints the `repr` of every epoch loss, the SHA-256 of the
saved checkpoint's bytes and the SHA-256 of a 64-sample `generate` draw
from that checkpoint. The runs train on the criterion-7 split of the
bundled fixture: 2 epochs of the criterion-7 smoke config at `mse` and at
`kld`, 1 epoch of the smoke `kld` config without its geometric block, and
2 batches of 30 at each full preset. OpenBLAS runs on one thread, because
its matrix products can round differently at another thread count.

A last section runs the command line on the bundled fixture's first 400
closes: `train`, `generate`, `evaluate` (the prices against the generated
samples), `ablate` with all five components, and `baseline` at `garch`
and at `gbm`. For each command it prints the exit code, the SHA-256 of
every file the command wrote and of its stdout, with the temporary
directory's path masked, so a change to the command line shows in one
diff which artifacts it changes.

The package is imported from PYTHONPATH when that is set, otherwise from
this checkout's ``src``; so one copy of this script can digest two
checkouts:

    PYTHONPATH=/path/to/other/src python tests/training_digest.py

pytest does not collect this file. The five runs take about 40 s on a 2-core
x86 machine, and the command-line section about 10 s more.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from siggraphgan import cli  # noqa: E402
from siggraphgan import preprocess as pp  # noqa: E402
from siggraphgan.checkpoint import save_checkpoint  # noqa: E402
from siggraphgan.fixture import fixture_path, fixture_prices  # noqa: E402
from siggraphgan.siggan import ABLATION_COMPONENTS, SigGanConfig, generate, train  # noqa: E402

HELD_OUT = 300  # the criterion-7 split
SMOKE = dict(seq_len=20, noise_features=1, gnn_neurons=16, geo_lstm_neurons=16,
             rec_lstm_neurons=16, gnn_layers=1, rec_lstm_layers=1, batch_size=10, seed=11)
PRESET_BATCHES = 2
GENERATE_SAMPLES = 64
GENERATE_SEED = 7
CLI_CLOSES = 400
CLI_CONFIG = dict(SMOKE, loss_kind="kld", epochs=1, n_samples=200)


def runs():
    """(name, config, number of training returns) of each digested run."""
    for kind in ("mse", "kld"):
        yield f"smoke {kind}", SigGanConfig.for_loss(kind, epochs=2, **SMOKE), None
    yield ("smoke kld ablation=geometric",
           SigGanConfig.for_loss("kld", epochs=1, ablation="geometric", **SMOKE), None)
    for kind in ("kld", "mse"):
        cfg = SigGanConfig.for_loss(kind, epochs=1)
        yield (f"preset {kind}, {PRESET_BATCHES} batches", cfg,
               cfg.seq_len + PRESET_BATCHES * cfg.batch_size - 1)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    returns = pp.log_returns(fixture_prices()).values[:-HELD_OUT]
    stats = pp.fit_stats(returns)
    gaussianized = pp.transform_with_stats(returns, stats)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        for name, cfg, length in runs():
            result = train(gaussianized[:length], cfg, stats)
            save_checkpoint(result.checkpoint, path)
            samples = generate(result.checkpoint, returns, GENERATE_SAMPLES, GENERATE_SEED)
            print(name)
            print("  epoch losses:", ", ".join(repr(loss) for loss in result.epoch_losses))
            print("  checkpoint sha256:", sha256(path.read_bytes()))
            print("  generate sha256:", sha256(np.ascontiguousarray(samples).tobytes()))
            sys.stdout.flush()


def cli_steps(tmp: Path):
    """Write the price CSV and config files into ``tmp``; return each step's argv."""
    lines = Path(fixture_path()).read_text().splitlines()
    (tmp / "prices.csv").write_text("\n".join(lines[: CLI_CLOSES + 1]) + "\n")
    for config, extra in (("run", {}), ("ablate", {"output_dir": tmp / "ablate"}),
                          *((kind, {"baseline": kind, "output_dir": tmp / kind})
                            for kind in ("garch", "gbm"))):
        keys = {**CLI_CONFIG, "input": tmp / "prices.csv", "output_dir": tmp / "out", **extra}
        (tmp / f"{config}.cfg").write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return [
        ["train", "--config", f"{tmp}/run.cfg"],
        ["generate", "--checkpoint", f"{tmp}/out/checkpoint.bin", "--input", f"{tmp}/prices.csv",
         "--samples", "200", "--out", f"{tmp}/out/fake.csv", "--seed", str(GENERATE_SEED)],
        ["evaluate", "--real", f"{tmp}/prices.csv", "--fake", f"{tmp}/out/fake.csv",
         "--out-dir", f"{tmp}/eval"],
        ["ablate", "--config", f"{tmp}/ablate.cfg", "--components", ",".join(ABLATION_COMPONENTS)],
        ["baseline", "--config", f"{tmp}/garch.cfg"],
        ["baseline", "--config", f"{tmp}/gbm.cfg"],
    ]


def cli_main():
    """Run each step in turn; print its exit code and the digests of its outputs."""
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for argv in cli_steps(tmp):
            before = {p: p.stat().st_mtime_ns for p in tmp.rglob("*") if p.is_file()}
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            print(f"cli {argv[0]}: exit {code}")
            for path in sorted(p for p in tmp.rglob("*") if p.is_file()):
                if before.get(path) != path.stat().st_mtime_ns:
                    print(f"  {path.relative_to(tmp)} sha256:", sha256(path.read_bytes()))
            masked = stdout.getvalue().replace(str(tmp), "<tmp>")
            print("  stdout sha256:", sha256(masked.encode()))
            sys.stdout.flush()


if __name__ == "__main__":
    main()
    cli_main()

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from siggraphgan import cli
from siggraphgan.checkpoint import load_checkpoint
from siggraphgan.errors import CheckpointParseError
from siggraphgan.fixture import fixture_csv_text


@pytest.fixture(scope="module")
def price_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "prices.csv"
    lines = fixture_csv_text().splitlines()
    path.write_text("\n".join(lines[:351]) + "\n")  # 350 closes
    return path


def write_config(path, price_csv, out_dir, **extra):
    pairs = {
        "loss_kind": "mse",
        "seq_len": 12,
        "gnn_neurons": 8,
        "geo_lstm_neurons": 8,
        "rec_lstm_neurons": 8,
        "gnn_layers": 1,
        "rec_lstm_layers": 1,
        "batch_size": 8,
        "epochs": 1,
        "seed": 5,
        "input": str(price_csv),
        "output_dir": str(out_dir),
        "n_samples": 25,
    }
    pairs.update(extra)
    path.write_text(
        "# test configuration\n"
        + "".join(f"{k} = {v}\n" for k, v in pairs.items())
    )
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, price_csv):
    out = tmp_path_factory.mktemp("trained")
    cfg = out / "run.cfg"
    write_config(cfg, price_csv, out)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return out


class TestTrain:
    def test_writes_checkpoint_and_trace(self, trained_dir):
        assert (trained_dir / "checkpoint.bin").exists()
        trace = (trained_dir / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,loss"
        assert len(trace) == 2  # one epoch

    def test_missing_input_exits_3_with_path(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        write_config(cfg, tmp_path / "nope.csv", tmp_path)
        assert cli.main(["train", "--config", str(cfg)]) == 3
        assert "nope.csv" in capsys.readouterr().err

    def test_unknown_key_exits_2_naming_key(self, tmp_path, price_csv, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rte = 0.01\n")
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "learning_rte" in capsys.readouterr().err

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs = 1\nseed = \xff\n")
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_histogram_bins_key_exits_2(self, tmp_path, price_csv, capsys):
        cfg = tmp_path / "bins.cfg"
        write_config(cfg, price_csv, tmp_path, histogram_bins=50)
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "histogram_bins" in capsys.readouterr().err

    def test_zero_epochs_writes_header_only_trace(self, tmp_path, price_csv):
        out = tmp_path / "out0"
        cfg = tmp_path / "zero.cfg"
        write_config(cfg, price_csv, out, epochs=0)
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert (out / "loss_trace.csv").read_text() == "epoch,loss\n"

    def test_seed_flag_changes_artifacts(self, tmp_path, price_csv):
        out = tmp_path / "seeded"
        cfg = tmp_path / "seeded.cfg"
        write_config(cfg, price_csv, out, epochs=0)
        assert cli.main(["train", "--config", str(cfg), "--seed", "9"]) == 0
        first = (out / "checkpoint.bin").read_bytes()
        assert cli.main(["train", "--config", str(cfg), "--seed", "10"]) == 0
        assert (out / "checkpoint.bin").read_bytes() != first


class TestGenerate:
    def test_row_count(self, trained_dir, price_csv, tmp_path):
        out = tmp_path / "fake.csv"
        code = cli.main(
            [
                "generate",
                "--checkpoint",
                str(trained_dir / "checkpoint.bin"),
                "--input",
                str(price_csv),
                "--samples",
                "9",
                "--out",
                str(out),
                "--seed",
                "2",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_id,step,log_return"
        assert len(lines) == 1 + 9 * 12

    def test_zero_samples_header_only(self, trained_dir, price_csv, tmp_path):
        out = tmp_path / "empty.csv"
        code = cli.main(
            [
                "generate",
                "--checkpoint",
                str(trained_dir / "checkpoint.bin"),
                "--input",
                str(price_csv),
                "--samples",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == "sample_id,step,log_return\n"

    def test_same_seed_byte_identical(self, trained_dir, price_csv, tmp_path):
        args = [
            "generate",
            "--checkpoint",
            str(trained_dir / "checkpoint.bin"),
            "--input",
            str(price_csv),
            "--samples",
            "5",
            "--seed",
            "4",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs sched_setaffinity and two usable cores",
    )
    def test_output_independent_of_core_count(self, trained_dir, price_csv, tmp_path):
        """A child pinned to one core writes the same bytes as an unpinned one."""
        one_core = {min(os.sched_getaffinity(0))}
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        written = []
        for label, pin in (("one_core", lambda: os.sched_setaffinity(0, one_core)),
                           ("all_cores", None)):
            out = tmp_path / f"{label}.csv"
            subprocess.run(
                [sys.executable, "-m", "siggraphgan", "generate",
                 "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--input", str(price_csv), "--samples", "200", "--seed", "3",
                 "--out", str(out)],
                env=env, preexec_fn=pin, check=True, capture_output=True, timeout=300,
            )
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_undecodable_input_exits_3(self, trained_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"date,close\n2020-01-01,\xff\n")
        argv = ["generate", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--input", str(bad), "--samples", "1", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 3
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [("std", "0.0"), ("delta", "-1.0"), ("std", "nan"), ("std", "inf"), ("delta", "inf"),
         ("mean", "nan"), ("mean", "inf"), ("mean", "-inf")],
    )
    def test_invalid_stats_exits_3(self, trained_dir, price_csv, tmp_path, capsys, field, value):
        """Stats that cannot invert the preprocessing fail the load, at the stats line."""
        data = (trained_dir / "checkpoint.bin").read_bytes()
        start = data.index(b"[stats]\n") + len(b"[stats]\n")
        end = data.index(b"\n", start)
        stats = dict(token.split("=") for token in data[start:end].decode().split())
        stats[field] = value
        line = " ".join(f"{k}={v}" for k, v in stats.items()).encode()
        bad = tmp_path / "bad_stats.bin"
        bad.write_bytes(data[:start] + line + data[end:])
        with pytest.raises(CheckpointParseError) as info:
            load_checkpoint(bad)
        assert info.value.offset == start
        argv = ["generate", "--checkpoint", str(bad), "--input", str(price_csv),
                "--samples", "1", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 3
        assert f"byte offset {start}" in capsys.readouterr().err

    def test_malformed_config_value_exits_3(self, trained_dir, price_csv, tmp_path, capsys):
        """A config value that does not parse fails the load at its own line."""
        data = (trained_dir / "checkpoint.bin").read_bytes()
        start = data.index(b"\nseq_len=") + 1
        end = data.index(b"\n", start)
        bad = tmp_path / "bad_config.bin"
        bad.write_bytes(data[:start] + b"seq_len=ten" + data[end:])
        argv = ["generate", "--checkpoint", str(bad), "--input", str(price_csv),
                "--samples", "1", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert f"byte offset {start}" in err
        assert "seq_len" in err

    def test_version_mismatch_exits_5(self, tmp_path, price_csv):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"siggraphgan-checkpoint v42\njunk\n")
        code = cli.main(
            [
                "generate",
                "--checkpoint",
                str(bad),
                "--input",
                str(price_csv),
                "--samples",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 5


class TestEvaluate:
    def test_identical_inputs_zero_metrics(self, trained_dir, price_csv, tmp_path):
        out_dir = tmp_path / "eval0"
        code = cli.main(
            [
                "evaluate",
                "--real",
                str(price_csv),
                "--fake",
                str(price_csv),
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        report = (out_dir / "report.csv").read_text().splitlines()
        assert report[0] == "metric,raw,display_x100"
        labels = [line.split(",")[0] for line in report[1:]]
        assert labels == [
            "EMD(1)",
            "EMD(5)",
            "EMD(20)",
            "EMD(100)",
            "Sig-RMSE(1)",
            "Sig-RMSE(5)",
            "Sig-RMSE(20)",
            "Sig-RMSE(100)",
            "Leverage Effect",
        ]
        for line in report[1:]:
            _, raw, display = line.split(",")
            assert float(raw) == 0.0
            assert float(display) == 0.0

    def test_histogram_counts_sum_to_samples(self, trained_dir, price_csv, tmp_path):
        fake = tmp_path / "fake.csv"
        assert (
            cli.main(
                [
                    "generate",
                    "--checkpoint",
                    str(trained_dir / "checkpoint.bin"),
                    "--input",
                    str(price_csv),
                    "--samples",
                    "20",
                    "--out",
                    str(fake),
                ]
            )
            == 0
        )
        out_dir = tmp_path / "eval1"
        assert (
            cli.main(
                [
                    "evaluate",
                    "--real",
                    str(price_csv),
                    "--fake",
                    str(fake),
                    "--out-dir",
                    str(out_dir),
                ]
            )
            == 0
        )
        n_real = 350 - 1
        n_fake = 20 * 12
        for k in (1, 5, 10):
            hist = (out_dir / f"hist_k{k}.csv").read_text().splitlines()
            assert hist[0] == "bin_left,bin_right,count_real,count_fake"
            edges = [float(line.split(",")[0]) for line in hist[1:]]
            edges.append(float(hist[-1].split(",")[1]))
            assert all(left < right for left, right in zip(edges, edges[1:]))
            assert all(
                float(line.split(",")[1]) == float(after.split(",")[0])
                for line, after in zip(hist[1:], hist[2:])
            )
            real_total = sum(int(line.split(",")[2]) for line in hist[1:])
            fake_total = sum(int(line.split(",")[3]) for line in hist[1:])
            assert real_total == n_real - k + 1
            assert fake_total == n_fake - k + 1

    def test_seed_flag_rejected(self, price_csv, tmp_path, capsys):
        argv = ["evaluate", "--real", str(price_csv), "--fake", str(price_csv),
                "--out-dir", str(tmp_path / "eval_seed"), "--seed", "1"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("bins", ["0", "-1"])
    def test_nonpositive_bins_exit_2(self, price_csv, tmp_path, capsys, bins):
        out_dir = tmp_path / "eval_bins"
        argv = ["evaluate", "--real", str(price_csv), "--fake", str(price_csv),
                "--out-dir", str(out_dir), "--bins", bins]
        assert cli.main(argv) == 2
        assert "--bins" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_malformed_fake_exits_3_with_line(self, price_csv, tmp_path, capsys):
        fake = tmp_path / "broken.csv"
        fake.write_text("sample_id,step,log_return\n0,0,0.1\n0,1,zzz\n")
        code = cli.main(
            [
                "evaluate",
                "--real",
                str(price_csv),
                "--fake",
                str(fake),
                "--out-dir",
                str(tmp_path / "ev"),
            ]
        )
        assert code == 3
        assert ":3" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_log_return_exits_3_with_line(self, price_csv, tmp_path, capsys, value):
        fake = tmp_path / "nonfinite.csv"
        rows = [f"{i // 12},{i % 12},0.001" for i in range(240)]
        rows[100] = f"8,4,{value}"
        fake.write_text("sample_id,step,log_return\n" + "\n".join(rows) + "\n")
        out_dir = tmp_path / "ev"
        argv = ["evaluate", "--real", str(price_csv), "--fake", str(fake),
                "--out-dir", str(out_dir)]
        assert cli.main(argv) == 3
        assert ":102" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_infinite_close_exits_3_with_line(self, price_csv, tmp_path, capsys):
        lines = price_csv.read_text().splitlines()
        date = lines[200].split(",")[0]
        lines[200] = f"{date},inf"
        real = tmp_path / "inf_close.csv"
        real.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "ev"
        argv = ["evaluate", "--real", str(real), "--fake", str(price_csv),
                "--out-dir", str(out_dir)]
        assert cli.main(argv) == 3
        assert ":201" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("side", ["--real", "--fake"])
    @pytest.mark.parametrize("header", ["date,close", "sample_id,step,log_return"])
    def test_undecodable_csv_exits_3(self, price_csv, tmp_path, capsys, side, header):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(header.encode() + b"\n0,0,\xff\n")
        paths = {"--real": str(price_csv), "--fake": str(price_csv), side: str(bad)}
        argv = ["evaluate", *[a for pair in paths.items() for a in pair],
                "--out-dir", str(tmp_path / "ev")]
        assert cli.main(argv) == 3
        assert "UTF-8" in capsys.readouterr().err


class TestAblate:
    def test_unknown_component_exits_2(self, tmp_path, price_csv, capsys):
        cfg = tmp_path / "abl.cfg"
        write_config(cfg, price_csv, tmp_path / "abl_out")
        code = cli.main(
            ["ablate", "--config", str(cfg), "--components", "attention"]
        )
        assert code == 2
        assert "attention" in capsys.readouterr().err

    def test_table_rows(self, tmp_path, price_csv):
        out = tmp_path / "abl_out"
        cfg = tmp_path / "abl.cfg"
        write_config(cfg, price_csv, out, n_samples=15, epochs=1)
        code = cli.main(
            ["ablate", "--config", str(cfg), "--components", "geometric,skip"]
        )
        assert code == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 4  # header + baseline + two variants
        assert lines[1].startswith("baseline,")
        assert lines[2].startswith("w/o geometric,")
        assert lines[3].startswith("w/o skip,")

    def test_empty_component_list_runs_baseline_only(self, tmp_path, price_csv):
        out = tmp_path / "abl_base"
        cfg = tmp_path / "abl2.cfg"
        write_config(cfg, price_csv, out, n_samples=15, epochs=0)
        assert cli.main(["ablate", "--config", str(cfg)]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 2


class TestBaseline:
    def test_garch_samples(self, tmp_path, price_csv):
        out = tmp_path / "garch_out"
        cfg = tmp_path / "garch.cfg"
        write_config(cfg, price_csv, out, baseline="garch", n_samples=6)
        assert cli.main(["baseline", "--config", str(cfg)]) == 0
        lines = (out / "garch_samples.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 12

    def test_gbm_samples(self, tmp_path, price_csv):
        out = tmp_path / "gbm_out"
        cfg = tmp_path / "gbm.cfg"
        write_config(cfg, price_csv, out, baseline="gbm", n_samples=6)
        assert cli.main(["baseline", "--config", str(cfg)]) == 0
        lines = (out / "gbm_samples.csv").read_text().splitlines()
        assert len(lines) == 1 + 6 * 12

    @pytest.mark.parametrize("baseline", ["garch", "gbm"])
    def test_zero_samples_write_header_only(self, tmp_path, price_csv, baseline):
        out = tmp_path / "out"
        cfg = tmp_path / "zero.cfg"
        write_config(cfg, price_csv, out, baseline=baseline, n_samples=0)
        assert cli.main(["baseline", "--config", str(cfg)]) == 0
        assert len((out / f"{baseline}_samples.csv").read_text().splitlines()) == 1

    def test_gan_baseline_rejected(self, tmp_path, price_csv, capsys):
        cfg = tmp_path / "gan.cfg"
        write_config(cfg, price_csv, tmp_path, baseline="siggan-mse")
        assert cli.main(["baseline", "--config", str(cfg)]) == 2

    def test_missing_baseline_key_exits_2(self, tmp_path, price_csv, capsys):
        cfg = tmp_path / "none.cfg"
        write_config(cfg, price_csv, tmp_path)
        assert cli.main(["baseline", "--config", str(cfg)]) == 2
        assert "'baseline'" in capsys.readouterr().err


class TestDeterminism:
    def test_repeat_training_byte_identical(self, tmp_path, price_csv):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            cfg = tmp_path / f"{out.name}.cfg"
            write_config(cfg, price_csv, out, epochs=1)
            assert cli.main(["train", "--config", str(cfg)]) == 0
        assert (out1 / "checkpoint.bin").read_bytes() == (
            out2 / "checkpoint.bin"
        ).read_bytes()
        assert (out1 / "loss_trace.csv").read_bytes() == (
            out2 / "loss_trace.csv"
        ).read_bytes()

    def test_threads_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", "x", "--threads", "1"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

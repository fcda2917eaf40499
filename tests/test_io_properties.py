"""Randomized checks of the guarantees the README states for files on disk.

A checkpoint cut short at any byte raises `CheckpointParseError`; every
offset inside the header is tried, and drawn offsets cover the payloads.
Any config that can be built survives a checkpoint's config echo, and one
outside the rules cannot be built. The CLI, fed arbitrary bytes as a
config file or as either CSV of `evaluate`, exits only with 2
(configuration error) or 3 (data error): never 0, never a traceback. A
failed atomic write leaves the old file and no temporary file. Examples
come from the derandomized profile in conftest.py, so every run checks the
same cases.
"""

import datetime
import io
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import fixture_csv_text
from siggraphgan import cli, ioutil
from siggraphgan.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from siggraphgan.errors import CheckpointParseError, ConfigError, DataError
from siggraphgan.preprocess import PreprocessStats, load_price_csv
from siggraphgan.siggan import (
    ABLATIONS,
    GRAPH_DIRECTIONS,
    LOSS_FUNCTIONS,
    SigGanConfig,
    SigGraphGan,
)

# At most this many bytes follow a CSV header. A report needs 119 returns,
# so no CSV this short is valid input, and every outcome is an error.
MAX_BODY = 400


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("io_properties")


@pytest.fixture(scope="module")
def checkpoint_bytes(workdir):
    cfg = SigGanConfig.for_loss(
        "mse", seq_len=4, gnn_neurons=2, geo_lstm_neurons=2, rec_lstm_neurons=2,
        gnn_layers=1, rec_lstm_layers=1, batch_size=2, epochs=0,
    )
    ckpt = Checkpoint.from_model(SigGraphGan(cfg), cfg, PreprocessStats(0.0, 1.0, 0.0))
    path = workdir / "whole.bin"
    save_checkpoint(ckpt, path)
    return path.read_bytes()


def header_end(data: bytes) -> int:
    """Offset of the first parameter payload: the end of the text header."""
    first_param = data.index(b"\nparam ") + 1
    return data.index(b"\n", first_param) + 1 + 8  # the param line, then its count


def assert_truncation_rejected(data, offset, path):
    path.write_bytes(data[:offset])
    with pytest.raises(CheckpointParseError):
        load_checkpoint(path)


def test_truncated_header_rejected_at_every_offset(checkpoint_bytes, workdir):
    path = workdir / "cut_header.bin"
    for offset in range(header_end(checkpoint_bytes)):
        assert_truncation_rejected(checkpoint_bytes, offset, path)


@given(fraction=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_checkpoint_rejected(checkpoint_bytes, workdir, fraction):
    offset = int(fraction * len(checkpoint_bytes))
    assert_truncation_rejected(checkpoint_bytes, offset, workdir / "cut.bin")


POSITIVE = ("batch_size", "gnn_neurons", "geo_lstm_neurons", "rec_lstm_neurons",
            "gnn_layers", "rec_lstm_layers", "sig_degree", "noise_features")

# every field drawn within the rules SigGanConfig checks when it is built
VALID_FIELDS = st.fixed_dictionaries({
    "loss_kind": st.sampled_from(sorted(LOSS_FUNCTIONS)),
    "learning_rate": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "dropout": st.floats(0.0, 1.0, exclude_max=True),
    "seq_len": st.integers(min_value=2),
    "graph_direction": st.sampled_from(GRAPH_DIRECTIONS),
    "epochs": st.integers(min_value=0),
    "ablation": st.sampled_from(ABLATIONS),
    "seed": st.integers(min_value=0),
    **{name: st.integers(min_value=1) for name in POSITIVE},
}).map(lambda d: {**d, "noise_features": 1} if d["ablation"] == "feedforward" else d)

# changes that each break one rule
OUTSIDE_RULES = st.one_of(
    st.text().filter(lambda t: t not in LOSS_FUNCTIONS).map(lambda t: {"loss_kind": t}),
    st.text().filter(lambda t: t not in GRAPH_DIRECTIONS).map(
        lambda t: {"graph_direction": t}),
    st.text().filter(lambda t: t not in ABLATIONS).map(lambda t: {"ablation": t}),
    st.one_of(st.floats(max_value=0.0), st.just(float("inf")), st.just(float("nan"))).map(
        lambda x: {"learning_rate": x}),
    st.one_of(st.floats(max_value=-5e-324), st.floats(min_value=1.0), st.just(float("nan"))).map(
        lambda x: {"dropout": x}),
    st.integers(max_value=1).map(lambda n: {"seq_len": n}),
    st.tuples(st.sampled_from(["epochs", "seed"]), st.integers(max_value=-1)).map(
        lambda kv: dict([kv])),
    st.tuples(st.sampled_from(POSITIVE), st.integers(max_value=0)).map(lambda kv: dict([kv])),
    st.integers(min_value=2).map(lambda n: {"ablation": "feedforward", "noise_features": n}),
)


@given(kwargs=VALID_FIELDS)
def test_config_survives_checkpoint_echo(workdir, kwargs):
    cfg = SigGanConfig(**kwargs)
    path = workdir / "config.bin"
    save_checkpoint(Checkpoint(cfg, PreprocessStats(0.0, 1.0, 0.0), [], []), path)
    assert load_checkpoint(path).config == cfg


@given(kwargs=VALID_FIELDS, change=OUTSIDE_RULES)
def test_config_outside_rules_rejected(kwargs, change):
    with pytest.raises(ConfigError):
        SigGanConfig(**{**kwargs, **change})


class FailingWrite(io.FileIO):
    def write(self, data):
        raise OSError("no space left on device")


@pytest.mark.parametrize("step", ["write", "replace"])
def test_failed_atomic_write_keeps_old_file(tmp_path, monkeypatch, step):
    path = tmp_path / "artifact.csv"
    path.write_bytes(b"old bytes")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    if step == "write":
        monkeypatch.setattr(ioutil.os, "fdopen", lambda fd, mode: FailingWrite(fd, mode))
    else:
        monkeypatch.setattr(ioutil.os, "replace", failing_replace)
    cause = "no space left" if step == "write" else "rename failed"
    with pytest.raises(DataError, match=f"cannot write {re.escape(str(path))}: {cause}"):
        ioutil.atomic_write_bytes(path, b"new bytes")
    assert path.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]


def csv_like_bytes(header: bytes):
    """Arbitrary bytes, text, or rows of CSV-like fragments after ``header``."""
    fragment = st.sampled_from(
        ["", "0", "1", "-1", "0.5", "1e999", "-1e999", "nan", "inf", "-inf", "2020-01-01",
         "2019-12-31", "x", '"', "\r", " ", "\x00", "\u00e9", ",", "\ufeff"]
    )
    rows = st.lists(st.lists(fragment, max_size=4).map(",".join), max_size=12).map(
        lambda lines: "\n".join(lines).encode()
    )
    body = st.one_of(st.binary(), st.text().map(str.encode), rows)
    return body.map(lambda b: (header + b)[: len(header) + MAX_BODY])


ANY_FILE = st.one_of(
    st.binary(max_size=MAX_BODY),
    csv_like_bytes(b"date,close\n"),
    csv_like_bytes(b"sample_id,step,log_return\n"),
)


@given(data=st.one_of(ANY_FILE, csv_like_bytes(b"epochs = 0\nseed = 1\n")))
def test_any_config_bytes_exit_2_or_3(workdir, data):
    path = workdir / "any.cfg"
    path.write_bytes(data)
    assert cli.main(["train", "--config", str(path)]) in (2, 3)


@pytest.fixture(scope="module")
def price_csv(workdir):
    path = workdir / "prices.csv"
    path.write_text("\n".join(fixture_csv_text().splitlines()[:301]) + "\n")
    return path


@given(data=ANY_FILE, side=st.sampled_from(["--real", "--fake"]))
def test_any_csv_bytes_exit_2_or_3(workdir, price_csv, data, side):
    path = workdir / "any.csv"
    path.write_bytes(data)
    argv = ["evaluate", "--real", str(price_csv), "--fake", str(price_csv),
            "--out-dir", str(workdir / "eval")]
    argv[argv.index(side) + 1] = str(path)
    assert cli.main(argv) in (2, 3)
    assert not (workdir / "eval").exists()


def row_number(exc, path) -> str:
    """The ``:N`` that follows the path in a data error, or "" for a whole-file error."""
    return str(exc)[len(str(path)):].split(" ")[0].rstrip(":")


@given(
    kinds=st.lists(st.sampled_from(["plain", "quoted", "blank", "spaces"]), max_size=12),
    values=st.lists(st.floats(0.01, 1e6), min_size=12, max_size=12),
    bad=st.one_of(st.none(), st.integers(0, 11)),
)
def test_sample_csv_reads_as_price_csv(workdir, kinds, values, bad):
    """The same rows, quoted or not and among blank or whitespace-only rows,
    give the same values, or fail at the same row, in both kinds of CSV."""
    assume(sum(kind in ("plain", "quoted") for kind in kinds) >= 2)  # a price series' minimum
    start = datetime.date(2020, 1, 1)
    price, sample = ["date,close"], ["sample_id,step,log_return"]
    for i, (kind, value) in enumerate(zip(kinds, values)):
        cell = "zzz" if i == bad else repr(value)
        if kind in ("blank", "spaces"):
            price.append("" if kind == "blank" else " \t")
            sample.append(price[-1])
            continue
        if kind == "quoted":
            cell = f'"{cell}"'
        price.append(f"{start + datetime.timedelta(days=i)},{cell}")
        sample.append(f"0,{i},{cell}")
    outcomes = []
    for name, lines, read in (("price.csv", price, lambda p: load_price_csv(p).closes),
                              ("sample.csv", sample, cli._read_returns_csv)):
        path = workdir / name
        path.write_text("\n".join(lines) + "\n")
        try:
            outcomes.append(read(path).tolist())
        except DataError as exc:
            outcomes.append(row_number(exc, path))
    assert outcomes[0] == outcomes[1]


@given(rows=st.lists(st.tuples(st.integers(-(10**6), 10**6), st.floats()), max_size=20))
def test_csv_text_matches_hand_joined_lines(rows):
    """Floats, numpy's included, are written by their repr, ints by str."""
    text = "\n".join(["n,x"] + [f"{n},{x!r}" for n, x in rows]) + "\n"
    assert ioutil.csv_text(("n", "x"), rows) == text
    assert ioutil.csv_text(("n", "x"), [(np.int64(n), np.float64(x)) for n, x in rows]) == text

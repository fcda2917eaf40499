"""Self-describing checkpoint container for trained models.

Layout (all header lines are UTF-8, newline-terminated):

    siggraphgan-checkpoint v3
    [config]
    <key>=<value>           (one line per config field, 16 in all)
    [stats]
    mean=<repr> std=<repr> delta=<repr>
    [params]
    group <generator|discriminator> <param count>
    param <name> <ndim> <dim0> <dim1> ...
    <8-byte little-endian uint64: element count>
    <raw little-endian float64 data>
    ...
    [end]

Parameter payloads are exact float64 bytes, so a save/load round trip
reproduces forward passes bit for bit. A header line that does not
decode, a section line that is not the one expected there, a config line
with an unknown key, a repeated key or a malformed value, a negative
parameter count, and a parameter whose element count does not match its
shape or whose payload is not finite fail the parse at the offset of
their own line (for a parameter, its ``param`` line). Missing config
keys, and a config that fails validation as a whole, fail it at the
``[stats]`` line's. Stats lines fail likewise at their own offset, and
any byte after ``[end]`` at its own. A wrong version line is rejected
before anything else is read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Parameter
from .errors import (
    CheckpointParseError,
    CheckpointVersionError,
    ConfigError,
    DataError,
    DomainError,
    ShapeError,
)
from .ioutil import atomic_write_bytes
from .preprocess import PreprocessStats
from .siggan import SigGanConfig, SigGraphGan, config_to_items, parse_config_value

FORMAT_VERSION = "siggraphgan-checkpoint v3"


@dataclass
class Checkpoint:
    """Frozen view of a trained (or freshly initialized) model."""

    config: SigGanConfig
    stats: PreprocessStats
    generator_params: list[tuple[str, np.ndarray]]
    discriminator_params: list[tuple[str, np.ndarray]]

    @classmethod
    def from_model(cls, model: SigGraphGan, cfg: SigGanConfig, stats: PreprocessStats):
        return cls(
            config=cfg,
            stats=stats,
            generator_params=[
                (p.name, p.value.copy()) for p in model.generator.parameters()
            ],
            discriminator_params=[
                (p.name, p.value.copy()) for p in model.discriminator.parameters()
            ],
        )

    def build_model(self) -> SigGraphGan:
        """Reconstruct the model from the stored parameter values.

        The networks are built with the stored values as their parameter
        source, so no random initialization is drawn. Names, order, shapes
        and counts must match what the config's architecture asks for.
        """
        return self._from_stored(self.generator_params, self.discriminator_params)

    def build_generator(self) -> SigGraphGan:
        """The model with only its generator built, as `build_model` builds it.

        Its discriminator is None, so the discriminator's stored values are
        neither copied nor checked; sampling needs only the generator.
        """
        return self._from_stored(self.generator_params, None)

    def _from_stored(self, *groups) -> SigGraphGan:
        inits = [None if stored is None else _StoredParams(stored) for stored in groups]
        model = SigGraphGan(self.config, inits=inits)
        for init in inits:
            if init is not None:
                init.check_all_taken()
        return model


class _StoredParams:
    """Parameter source handing out one network's stored values in order.

    Each request (see `layers.RandomInit`) must match the next stored
    entry by name and shape; the returned parameter holds a copy, and
    ``params`` keeps every parameter handed out, in order.
    """

    def __init__(self, stored: list[tuple[str, np.ndarray]]):
        self.stored = stored
        self.params: list[Parameter] = []

    def param(self, name: str, shape: tuple, draw) -> Parameter:
        if len(self.params) == len(self.stored):
            raise ShapeError(
                f"checkpoint holds {len(self.stored)} parameters, model expects more"
            )
        stored_name, value = self.stored[len(self.params)]
        if stored_name != name:
            raise ShapeError(
                f"parameter order mismatch: checkpoint {stored_name!r}, model {name!r}"
            )
        if value.shape != shape:
            raise ShapeError(
                f"parameter {name!r} shape {value.shape} does not match model shape {shape}"
            )
        self.params.append(Parameter(value.copy(), name))
        return self.params[-1]

    def check_all_taken(self):
        if len(self.params) != len(self.stored):
            raise ShapeError(
                f"checkpoint holds {len(self.stored)} parameters, model expects {len(self.params)}"
            )


def save_checkpoint(checkpoint: Checkpoint, path):
    """Serialize and atomically write a checkpoint."""
    parts: list[bytes] = []
    parts.append((FORMAT_VERSION + "\n").encode())
    parts.append(b"[config]\n")
    for key, value in config_to_items(checkpoint.config):
        parts.append(f"{key}={value}\n".encode())
    parts.append(b"[stats]\n")
    stats = checkpoint.stats
    parts.append(
        f"mean={stats.mean!r} std={stats.std!r} delta={stats.delta!r}\n".encode()
    )
    parts.append(b"[params]\n")
    for group, params in (
        ("generator", checkpoint.generator_params),
        ("discriminator", checkpoint.discriminator_params),
    ):
        parts.append(f"group {group} {len(params)}\n".encode())
        for name, value in params:
            arr = np.ascontiguousarray(value, dtype=np.float64)
            dims = " ".join(str(d) for d in arr.shape)
            parts.append(f"param {name} {arr.ndim} {dims}".rstrip().encode() + b"\n")
            parts.append(struct.pack("<Q", arr.size))
            parts.append(arr.astype("<f8").tobytes())
    parts.append(b"[end]\n")
    atomic_write_bytes(path, b"".join(parts))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def line(self) -> str:
        start = self.pos
        end = self.data.find(b"\n", start)
        if end < 0:
            raise CheckpointParseError("unexpected end of file", start)
        self.pos = end + 1
        try:
            return self.data[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointParseError(f"undecodable header line: {exc}", start) from exc

    def expect(self, marker: str):
        """Read one line that must read ``marker``."""
        start = self.pos
        if self.line() != marker:
            raise CheckpointParseError(f"missing {marker} line", start)

    def raw(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise CheckpointParseError(
                f"truncated payload: wanted {count} bytes", self.pos
            )
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file; inverse of `save_checkpoint`.

    A file that cannot be read is a `DataError` that names the path.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    reader = _Reader(data)

    version = reader.line()
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {version!r}; expected {FORMAT_VERSION!r}"
        )

    reader.expect("[config]")
    kwargs = {}
    while True:
        mark = reader.pos
        line = reader.line()
        if line == "[stats]":
            break
        if "=" not in line:
            raise CheckpointParseError(f"malformed config line {line!r}", mark)
        key, _, text = line.partition("=")
        if key in kwargs:
            raise CheckpointParseError(f"repeated config key {key!r}", mark)
        try:
            kwargs[key] = parse_config_value(key, text)
        except ConfigError as exc:
            raise CheckpointParseError(f"bad config line: {exc}", mark) from exc
    missing = [f.name for f in fields(SigGanConfig) if f.name not in kwargs]
    if missing:
        raise CheckpointParseError(f"config lacks keys {missing}", mark)
    try:
        config = SigGanConfig(**kwargs)
    except ConfigError as exc:
        raise CheckpointParseError(f"invalid config: {exc}", mark) from exc

    mark = reader.pos
    stats_line = reader.line()
    stats_fields = {}
    for token in stats_line.split():
        if "=" not in token:
            raise CheckpointParseError(f"malformed stats token {token!r}", mark)
        key, _, value = token.partition("=")
        if key in stats_fields:
            raise CheckpointParseError(f"repeated stats key {key!r}", mark)
        try:
            stats_fields[key] = float(value)
        except ValueError as exc:
            raise CheckpointParseError(f"bad stats value {token!r}", mark) from exc
    try:
        stats = PreprocessStats(**stats_fields)
    except (TypeError, DomainError) as exc:
        raise CheckpointParseError(f"bad stats line: {exc}", mark) from exc

    reader.expect("[params]")

    groups: dict[str, list[tuple[str, np.ndarray]]] = {}
    for expected in ("generator", "discriminator"):
        mark = reader.pos
        header = reader.line().split()
        if len(header) != 3 or header[0] != "group" or header[1] != expected:
            raise CheckpointParseError(
                f"expected 'group {expected} <n>' header", mark
            )
        try:
            count = int(header[2])
        except ValueError as exc:
            raise CheckpointParseError("bad parameter count", mark) from exc
        if count < 0:
            raise CheckpointParseError(f"negative parameter count {count}", mark)
        params = []
        for _ in range(count):
            mark = reader.pos
            words = reader.line().split()
            if len(words) < 3 or words[0] != "param":
                raise CheckpointParseError("expected 'param' header", mark)
            name = words[1]
            try:
                ndim = int(words[2])
                dims = tuple(int(d) for d in words[3 : 3 + ndim])
            except ValueError as exc:
                raise CheckpointParseError("bad shape header", mark) from exc
            if len(dims) != ndim:
                raise CheckpointParseError("shape header dimension mismatch", mark)
            (size,) = struct.unpack("<Q", reader.raw(8))
            expected_size = int(np.prod(dims, dtype=np.int64)) if dims else 1
            if size != expected_size:
                raise CheckpointParseError(f"element count {size} does not match shape {dims}", mark)
            payload = reader.raw(8 * size)
            value = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
            if not np.isfinite(value).all():
                raise CheckpointParseError(f"non-finite values in parameter {name!r}", mark)
            params.append((name, value))
        groups[expected] = params

    reader.expect("[end]")
    if reader.pos != len(data):
        raise CheckpointParseError("bytes after [end]", reader.pos)

    return Checkpoint(
        config=config,
        stats=stats,
        generator_params=groups["generator"],
        discriminator_params=groups["discriminator"],
    )

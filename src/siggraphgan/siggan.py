"""Generator/discriminator pair trained with truncated-signature losses.

Both agents share one architecture: a recurrent block (stacked LSTMs plus
a linear head) captures temporal structure, a geometric block (stacked
graph convolutions over the window's visibility graph, then an LSTM and a
linear head) captures shape structure, and a feedforward block fuses the
two, optionally concatenating the raw input back in through a skip path.

The training signal compares generator output against the discriminator's
transform of the real window in signature space: lead-lag embed, truncate
the signature at the configured degree, and penalize either the mean
squared coefficient gap or the KL divergence of softmax-normalized
coefficients, each evaluated on both the raw window and its running sum.
A loss is three graph nodes with hand-written adjoints: the stacked
windows and running sums, their signatures, and the comparison of the
batch-mean signatures, done by a plain-numpy function that returns its
value and vjp. The discriminator ascends this loss while the generator
descends it, alternating one step each per batch under RMSProp.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .autodiff import Tensor
from .errors import ConfigError, NumericError, ShapeError, SizeError
from .optim import RmsProp
from .preprocess import PreprocessStats, invert_pipeline, transform_with_stats
from .signature import _leadlag_forward, _leadlag_vjp
from .visibility import VisibilityGraph, natural_visibility

# generate() runs at most this many samples per forward pass, and at most
# this many forward passes at once
GENERATE_CHUNK = 64
GENERATE_THREADS = 2

# The discriminator maximizes an objective with no finite maximizer, so its
# ascent is projected into a small box around its initialization (a bounded
# critic in the weight-clipping tradition). Without the projection the
# adversarial loop diverges: the critic inflates its output scale without
# limit and the degree-5 signature terms amplify that polynomially.
DISC_TRUST_RADIUS = 0.01

LOSS_KINDS = ("mse", "kld")
GRAPH_DIRECTIONS = ("undirected", "left_to_right")

# Config changes that remove one architectural component, for ablations
_ABLATIONS = {
    "geometric": {"disable_geometric": True},
    "recurrent": {"disable_recurrent": True},
    "feedforward": {"disable_feedforward": True},
    "skip": {"skip_layer": False},
    "dropout": {"disable_dropout": True},
}
ABLATION_COMPONENTS = tuple(_ABLATIONS)

# Tuned defaults per loss kind: batch size, learning rate, (gnn, geometric
# lstm, recurrent lstm) widths, (gnn, recurrent lstm) depths, dropout.
_PRESETS = {
    "mse": dict(
        batch_size=30,
        learning_rate=0.000797,
        gnn_neurons=190,
        geo_lstm_neurons=120,
        rec_lstm_neurons=190,
        gnn_layers=3,
        rec_lstm_layers=7,
        dropout=0.31,
    ),
    "kld": dict(
        batch_size=30,
        learning_rate=0.000221,
        gnn_neurons=110,
        geo_lstm_neurons=70,
        rec_lstm_neurons=190,
        gnn_layers=2,
        rec_lstm_layers=4,
        dropout=0.35,
    ),
}


@dataclass
class SigGanConfig:
    """Architecture, loss, and training-loop settings."""

    loss_kind: str = "mse"
    batch_size: int = 30
    learning_rate: float = 0.000797
    gnn_neurons: int = 190
    geo_lstm_neurons: int = 120
    rec_lstm_neurons: int = 190
    gnn_layers: int = 3
    rec_lstm_layers: int = 7
    dropout: float = 0.31
    seq_len: int = 100
    graph_direction: str = "undirected"
    epochs: int = 100
    sig_degree: int = 5
    noise_features: int = 1
    skip_layer: bool = True
    disable_geometric: bool = False
    disable_recurrent: bool = False
    disable_feedforward: bool = False
    disable_dropout: bool = False
    seed: int = 0

    @classmethod
    def for_loss(cls, loss_kind: str, **overrides) -> "SigGanConfig":
        """Config preloaded with the tuned defaults of one loss kind."""
        if loss_kind not in _PRESETS:
            raise ConfigError(f"unknown loss kind {loss_kind!r}; use one of {LOSS_KINDS}")
        merged = dict(_PRESETS[loss_kind], loss_kind=loss_kind)
        merged.update(overrides)
        cfg = cls(**merged)
        cfg.validate()
        return cfg

    def validate(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.graph_direction not in GRAPH_DIRECTIONS:
            raise ConfigError(
                f"graph_direction must be one of {GRAPH_DIRECTIONS}, "
                f"got {self.graph_direction!r}"
            )
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.seq_len < 2:
            raise ConfigError("seq_len must be >= 2")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.sig_degree < 1:
            raise ConfigError("sig_degree must be >= 1")
        if self.noise_features < 1:
            raise ConfigError("noise_features must be >= 1")
        for name in ("gnn_neurons", "geo_lstm_neurons", "rec_lstm_neurons",
                     "gnn_layers", "rec_lstm_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.disable_feedforward and self.noise_features != 1:
            raise ConfigError(
                "disable_feedforward requires noise_features = 1 so the "
                "summed block output is already a single feature"
            )

    @property
    def effective_dropout(self) -> float:
        return 0.0 if self.disable_dropout else self.dropout

    def ablated(self, component: str) -> "SigGanConfig":
        """Copy of this config with one architectural component removed."""
        if component not in _ABLATIONS:
            raise ConfigError(
                f"unknown ablation component {component!r}; "
                f"expected one of {ABLATION_COMPONENTS}"
            )
        cfg = replace(self, **_ABLATIONS[component])
        cfg.validate()
        return cfg


def config_to_items(cfg: SigGanConfig) -> list[tuple[str, str]]:
    """Stable key=value view of a config (used by checkpoints and the CLI)."""
    items = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        items.append((f.name, text))
    return items


def parse_config_items(items: dict[str, str]) -> dict:
    """Typed values of textual config items; unknown keys are rejected."""
    kwargs = {}
    known = {f.name: f.type for f in fields(SigGanConfig)}
    defaults = SigGanConfig()
    for key, text in items.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        current = getattr(defaults, key)
        if isinstance(current, bool):
            if text.lower() not in ("true", "false"):
                raise ConfigError(f"config key {key!r} expects true/false, got {text!r}")
            kwargs[key] = text.lower() == "true"
        elif isinstance(current, int):
            try:
                kwargs[key] = int(text)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r} expects an integer, got {text!r}") from exc
        elif isinstance(current, float):
            try:
                kwargs[key] = float(text)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r} expects a number, got {text!r}") from exc
        else:
            kwargs[key] = text
    return kwargs


def config_from_items(items: dict[str, str]) -> SigGanConfig:
    """Inverse of `config_to_items`; unknown keys are rejected."""
    cfg = SigGanConfig(**parse_config_items(items))
    cfg.validate()
    return cfg


# -- signature losses ---------------------------------------------------------


def leadlag_signature_tensor(series: Tensor, degree: int) -> Tensor:
    """Differentiable truncated signature of lead-lag-embedded series rows."""
    value, cache = _leadlag_forward(series.value, degree)
    return ad.from_op(
        value, [(series, lambda g: _leadlag_vjp(cache, g))], "leadlag_signature"
    )


def _loss_paths(fake: Tensor, real: Tensor) -> Tensor:
    """The (4B, T) rows a loss signs, as one graph node.

    Rows [0, B) are the (B, T, 1) fake windows, [B, 2B) the real ones, and
    [2B, 4B) the running sums of each side in the same order. The adjoint
    hands each side its own rows plus the reversed cumulative sum of its
    running-sum rows.
    """
    if fake.value.shape != real.value.shape:
        raise ShapeError(
            f"fake/real shapes differ: {fake.value.shape} vs {real.value.shape}"
        )
    if fake.value.ndim != 3 or fake.value.shape[2] != 1:
        raise ShapeError(f"expected a (B, T, 1) window batch, got {fake.value.shape}")
    batch, steps, _ = fake.value.shape
    if steps < 2:
        raise SizeError("signature losses need windows of length >= 2")
    f = fake.value.reshape(batch, steps)
    r = real.value.reshape(batch, steps)
    value = np.concatenate([f, r, np.cumsum(f, axis=1), np.cumsum(r, axis=1)], axis=0)

    def side_vjp(first):
        def vjp(g):
            summed = g[first + 2 * batch : first + 3 * batch]
            from_sums = np.flip(np.cumsum(np.flip(summed, axis=1), axis=1), axis=1)
            return (g[first : first + batch] + from_sums).reshape(batch, steps, 1)

        return vjp

    return ad.from_op(value, [(fake, side_vjp(0)), (real, side_vjp(batch))], "loss_paths")


def _signature_loss(sigs: Tensor, compare) -> Tensor:
    """compare() of the expected signatures, plain plus cumulative, as one node.

    ``sigs`` holds the signatures of `_loss_paths`'s four row blocks. A
    batch is summarized by its expected signature before the two sides
    are compared; matching expected signatures is what identifies equal
    path distributions, and a window batch of one reduces to the plain
    per-window comparison. ``compare(fake, real)`` returns the value and
    its vjp, which maps the upstream gradient to one for each argument.
    """
    blocks = np.split(sigs.value, 4)
    scale = 1.0 / blocks[0].shape[0]
    sig_f, sig_r, cum_f, cum_r = (block.sum(axis=0) * scale for block in blocks)
    plain, plain_vjp = compare(sig_f, sig_r)
    cumulative, cumulative_vjp = compare(cum_f, cum_r)

    def vjp(g):
        out = np.empty_like(sigs.value)
        for rows, grad in zip(np.split(out, 4), plain_vjp(g) + cumulative_vjp(g)):
            rows[...] = grad * scale
        return out

    return ad.from_op(plain + cumulative, [(sigs, vjp)], "signature_loss")


def _mse_gap(a: np.ndarray, b: np.ndarray):
    """Mean squared gap over all elements, and its vjp."""
    d = a - b
    scale = 1.0 / d.size

    def vjp(g):
        gd = (g * scale) * d
        twice = gd + gd
        return twice, -twice

    return (d * d).sum() * scale, vjp


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """log(softmax(logits)); stays finite even where softmax underflows to 0."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softmax_kl(logits_p: np.ndarray, logits_q: np.ndarray):
    """KL(softmax(p) || softmax(q)) along the last axis, and its vjp.

    Computed in the logit domain: equivalent to sum(p * ln(p / q)) of the
    two softmaxes but immune to the probability underflow that raw
    signature coefficients provoke.
    """
    p = _softmax(logits_p)
    log_p, log_q = _log_softmax(logits_p), _log_softmax(logits_q)
    gap = log_p - log_q

    def vjp(g):
        g = np.expand_dims(g, -1)
        g_p, g_log_p = g * gap, g * p
        g_log_q = -g_log_p
        from_p = (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * p
        from_log_p = g_log_p - np.exp(log_p) * g_log_p.sum(axis=-1, keepdims=True)
        from_log_q = g_log_q - np.exp(log_q) * g_log_q.sum(axis=-1, keepdims=True)
        return from_p + from_log_p, from_log_q

    return (p * gap).sum(axis=-1), vjp


def sig_mse_loss(fake, real, degree: int = 5) -> Tensor:
    """Mean squared gap between expected signatures, plain plus cumulative.

    ``fake`` and ``real`` are (B, T, 1) window batches of one shape.
    """
    paths = _loss_paths(ad.as_tensor(fake), ad.as_tensor(real))
    return _signature_loss(leadlag_signature_tensor(paths, degree), _mse_gap)


def sig_kld_loss(fake, real, degree: int = 5) -> Tensor:
    """KL divergence between softmax-normalized expected signatures.

    The softmax runs over the full coefficient vector, constant term
    included; fake is the left argument. Plain and cumulative terms add.
    ``fake`` and ``real`` are (B, T, 1) window batches of one shape.
    """
    paths = _loss_paths(ad.as_tensor(fake), ad.as_tensor(real))
    return _signature_loss(leadlag_signature_tensor(paths, degree), _softmax_kl)


LOSS_FUNCTIONS = {"mse": sig_mse_loss, "kld": sig_kld_loss}


# -- network blocks -----------------------------------------------------------


class RecurrentBlock:
    """Stacked LSTMs followed by a linear head."""

    def __init__(self, init, cfg: SigGanConfig, in_features: int, out_features: int, name: str):
        self.cfg = cfg
        self.lstms = []
        width = in_features
        for i in range(cfg.rec_lstm_layers):
            self.lstms.append(ly.LSTM(init, width, cfg.rec_lstm_neurons, f"{name}.lstm{i}"))
            width = cfg.rec_lstm_neurons
        self.head = ly.Dense(init, width, out_features, f"{name}.head")

    def parameters(self):
        params = [p for lstm in self.lstms for p in lstm.parameters()]
        return params + self.head.parameters()

    def forward(self, x: Tensor, training: bool, rng) -> Tensor:
        h = x
        for lstm in self.lstms:
            h = lstm(h)
            h = ad.dropout(h, self.cfg.effective_dropout, training, rng)
        return self.head(h)


class GeometricBlock:
    """Stacked graph convolutions, an LSTM, and a linear head."""

    def __init__(self, init, cfg: SigGanConfig, in_features: int, out_features: int, name: str):
        self.cfg = cfg
        self.thetas = []
        width = in_features
        for i in range(cfg.gnn_layers):
            self.thetas.append(
                init.param(f"{name}.gcn{i}", (width, cfg.gnn_neurons), ly.glorot_uniform)
            )
            width = cfg.gnn_neurons
        self.lstm = ly.LSTM(init, width, cfg.geo_lstm_neurons, f"{name}.lstm")
        self.head = ly.Dense(init, cfg.geo_lstm_neurons, out_features, f"{name}.head")

    def parameters(self):
        return self.thetas + self.lstm.parameters() + self.head.parameters()

    def forward(self, x: Tensor, norm_adjacency: np.ndarray, training: bool, rng) -> Tensor:
        h = x
        for theta in self.thetas:
            h = ly.gcn_apply(h, norm_adjacency, theta)
            h = ad.dropout(h, self.cfg.effective_dropout, training, rng)
        h = self.lstm(h)
        return self.head(h)


class FeedforwardBlock:
    """Fixed 128/64/1 fully connected stack with PReLU activations."""

    def __init__(self, init, in_features: int, name: str):
        self.fc1 = ly.Dense(init, in_features, 128, f"{name}.fc1")
        self.fc2 = ly.Dense(init, 128, 64, f"{name}.fc2")
        self.fc3 = ly.Dense(init, 64, 1, f"{name}.fc3")

    def parameters(self):
        return self.fc1.parameters() + self.fc2.parameters() + self.fc3.parameters()

    def forward(self, x: Tensor) -> Tensor:
        h = ad.prelu(self.fc1(x))
        h = ad.prelu(self.fc2(h))
        return self.fc3(h)


class GanNetwork:
    """Shared generator/discriminator architecture over (B, T, F) inputs.

    ``init`` is the parameter source (see `layers.RandomInit`); every
    parameter is requested from it once, in a fixed order.
    """

    def __init__(self, init, cfg: SigGanConfig, in_features: int, name: str):
        self.cfg = cfg
        self.in_features = in_features
        # block output width mirrors the input width; the feedforward
        # stack reduces to a single feature at the end
        block_out = in_features
        self.recurrent = (
            None
            if cfg.disable_recurrent
            else RecurrentBlock(init, cfg, in_features, block_out, f"{name}.rec")
        )
        self.geometric = (
            None
            if cfg.disable_geometric
            else GeometricBlock(init, cfg, in_features, block_out, f"{name}.geo")
        )
        if cfg.disable_feedforward:
            self.feedforward = None
        else:
            ff_in = block_out + (in_features if cfg.skip_layer else 0)
            self.feedforward = FeedforwardBlock(init, ff_in, f"{name}.ff")

    def parameters(self):
        params = []
        for block in (self.recurrent, self.geometric, self.feedforward):
            if block is not None:
                params.extend(block.parameters())
        return params

    def forward(self, x: Tensor, norm_adjacency: np.ndarray, training: bool = False, rng=None) -> Tensor:
        if x.value.ndim != 3 or x.value.shape[2] != self.in_features:
            raise ShapeError(
                f"expected input (B, T, {self.in_features}), got {x.value.shape}"
            )
        parts = []
        if self.recurrent is not None:
            parts.append(self.recurrent.forward(x, training, rng))
        if self.geometric is not None:
            parts.append(self.geometric.forward(x, norm_adjacency, training, rng))
        if parts:
            total = parts[0] if len(parts) == 1 else ad.add(parts[0], parts[1])
        else:
            total = Tensor(np.zeros(x.value.shape[:2] + (self.in_features,)))
        if self.feedforward is None:
            return total
        if self.cfg.skip_layer:
            total = ad.concat([total, x], axis=-1)
        return self.feedforward.forward(total)


class SigGraphGan:
    """Generator plus discriminator built from one config.

    By default both networks are initialized at random from ``seed_seq``
    (from the config seed if not given). ``inits`` instead gives the
    (generator, discriminator) parameter sources, as the checkpoint loader
    does; then nothing is drawn. A discriminator source of None leaves the
    discriminator unbuilt (None), for sampling.
    """

    def __init__(self, cfg: SigGanConfig, seed_seq: np.random.SeedSequence | None = None,
                 inits=None):
        cfg.validate()
        self.cfg = cfg
        if inits is None:
            if seed_seq is None:
                seed_seq = np.random.SeedSequence(cfg.seed)
            inits = [
                ly.RandomInit(np.random.Generator(np.random.PCG64(s))) for s in seed_seq.spawn(2)
            ]
        gen_init, disc_init = inits
        self.generator = GanNetwork(gen_init, cfg, cfg.noise_features, "gen")
        self.discriminator = None if disc_init is None else GanNetwork(disc_init, cfg, 1, "disc")

    def generator_forward(self, noise, norm_adjacency, training=False, rng=None) -> Tensor:
        return self.generator.forward(ad.as_tensor(noise), norm_adjacency, training, rng)

    def discriminator_forward(self, real, norm_adjacency, training=False, rng=None) -> Tensor:
        return self.discriminator.forward(ad.as_tensor(real), norm_adjacency, training, rng)


# -- training and generation --------------------------------------------------


def series_graph(series: np.ndarray, cfg: SigGanConfig) -> VisibilityGraph:
    """Visibility graph of a whole series, banded to one window's lags."""
    return natural_visibility(
        series, directed=cfg.graph_direction == "left_to_right", max_lag=cfg.seq_len - 1
    )


def window_adjacencies(graph: VisibilityGraph, starts: np.ndarray, cfg: SigGanConfig) -> np.ndarray:
    """Normalized visibility adjacency (B, T, T) of the windows at ``starts``.

    Each window's graph is the induced subgraph of the series graph, so it
    is sliced from ``graph`` rather than built again.
    """
    return ly.normalized_adjacency(graph.windows(starts, cfg.seq_len))


@dataclass
class TrainResult:
    checkpoint: "Checkpoint"
    epoch_losses: list[float]


def train(returns, cfg: SigGanConfig, stats: PreprocessStats | None = None) -> TrainResult:
    """Adversarial training on sliding windows of a (gaussianized) series.

    Per batch the discriminator takes one RMSProp ascent step on the
    signature loss, then the generator takes one descent step with fresh
    noise. Each step detaches the other player's output, so its backward
    pass walks only the stepping player's graph. Both updates clip the
    global gradient norm at 5. The per-epoch trace records the mean loss
    of the generator steps.

    One visibility graph is built over the whole series, with lags up to
    seq_len - 1; each batch slices and normalizes the adjacency of its own
    windows, which both player steps share.
    """
    from .checkpoint import Checkpoint  # local import to avoid a cycle

    cfg.validate()
    values = np.asarray(returns, dtype=np.float64)
    if values.ndim != 1:
        raise ShapeError("train expects a one-dimensional return series")
    min_returns = cfg.seq_len + cfg.batch_size - 1  # one full batch of windows
    if values.shape[0] < min_returns:
        raise SizeError(
            f"need at least seq_len + batch_size - 1 = {min_returns} "
            f"returns, got {values.shape[0]}"
        )
    if stats is None:
        stats = PreprocessStats(mean=0.0, std=1.0, delta=0.0)

    window_values = np.lib.stride_tricks.sliding_window_view(values, cfg.seq_len)
    graph = series_graph(values, cfg)
    n_windows = window_values.shape[0]

    seed_seq = np.random.SeedSequence(cfg.seed)
    model_seed, shuffle_seed, noise_seed, dropout_seed = seed_seq.spawn(4)
    model = SigGraphGan(cfg, model_seed)
    shuffle_rng = np.random.Generator(np.random.PCG64(shuffle_seed))
    noise_rng = np.random.Generator(np.random.PCG64(noise_seed))
    dropout_rng = np.random.Generator(np.random.PCG64(dropout_seed))

    opt_disc = RmsProp(
        model.discriminator.parameters(),
        cfg.learning_rate,
        maximize=True,
        trust_radius=DISC_TRUST_RADIUS,
    )
    opt_gen = RmsProp(model.generator.parameters(), cfg.learning_rate)
    loss_fn = LOSS_FUNCTIONS[cfg.loss_kind]

    def player_step(opt, real_windows, adjs) -> float:
        """One step of ``opt``'s player, the other's output held constant."""
        batch = real_windows.shape[0]
        noise = noise_rng.standard_normal((batch, cfg.seq_len, cfg.noise_features))
        fake = model.generator_forward(noise, adjs, training=True, rng=dropout_rng)
        if opt is opt_disc:
            fake = Tensor(fake.value)  # drop the generator's graph before the critic's
        real = model.discriminator_forward(
            real_windows[:, :, np.newaxis], adjs, training=True, rng=dropout_rng
        )
        if opt is opt_gen:
            real = Tensor(real.value)
        loss = loss_fn(fake, real, cfg.sig_degree)
        loss.backward()
        opt.step()
        return loss.item()

    epoch_losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n_windows)
        gen_losses = []
        for start in range(0, n_windows - cfg.batch_size + 1, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            real_batch = window_values[idx]
            adj_batch = window_adjacencies(graph, idx, cfg)
            try:
                player_step(opt_disc, real_batch, adj_batch)
                gen_losses.append(player_step(opt_gen, real_batch, adj_batch))
            except NumericError as exc:
                raise NumericError(
                    f"{exc} (epoch {epoch}, batch starting at {start})"
                ) from exc
        epoch_losses.append(float(np.mean(gen_losses)) if gen_losses else float("nan"))

    checkpoint = Checkpoint.from_model(model, cfg, stats)
    return TrainResult(checkpoint=checkpoint, epoch_losses=epoch_losses)


def generate(
    checkpoint,
    conditioning_log_returns,
    n_samples: int,
    seed: int = 0,
) -> np.ndarray:
    """Sample synthetic log-return windows from a trained generator.

    Conditioning data (raw log returns) is pushed through the recorded
    preprocessing; each sample takes the next conditioning window in
    cyclic order, draws fresh noise, runs the generator, and inverts the
    preprocessing on the output. One visibility graph is built, over just
    the points of the windows the samples draw, and each chunk of samples
    slices its windows' adjacency from it.

    Samples run in the chunks `generate_chunks` plans, up to
    `GENERATE_THREADS` at once on threads (numpy releases the interpreter
    lock inside its array operations). All noise is drawn up front and
    each chunk writes only its own rows. No chunk has a single row unless
    one sample is drawn, and every row of a product with two or more rows
    comes out the same whatever the other rows are, so each output equals
    one unchunked forward over all samples: at a fixed OpenBLAS thread
    count it does not depend on the number of cores or worker threads,
    and the first m >= 2 samples do not depend on how many more are
    drawn. A chunk's error, such as `NumericError`, is raised to the
    caller.

    Returns an (n_samples, seq_len) array of log returns.
    """
    cfg = checkpoint.config
    stats = checkpoint.stats
    if n_samples < 0:
        raise ConfigError("n_samples must be >= 0")
    model = checkpoint.build_generator()
    for p in model.generator.parameters():
        p.requires_grad = False  # no backward follows, so ops keep no graph
    if n_samples == 0:
        return np.zeros((0, cfg.seq_len))

    conditioning = np.asarray(conditioning_log_returns, dtype=np.float64)
    transformed = transform_with_stats(conditioning, stats)
    n_windows = transformed.shape[0] - cfg.seq_len + 1
    if n_windows < 1:
        raise SizeError(
            f"series of length {transformed.shape[0]} is shorter than window length {cfg.seq_len}"
        )
    # samples cycle through the first min(n_samples, n_windows) windows only
    graph = series_graph(transformed[: min(n_samples, n_windows) + cfg.seq_len - 1], cfg)

    # all noise is drawn before any forward runs, so the draws do not
    # depend on how the chunks are scheduled
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    noise = rng.standard_normal((n_samples, cfg.seq_len, cfg.noise_features))
    sizes = generate_chunks(n_samples)
    starts = list(accumulate(sizes[:-1], initial=0))
    outputs = np.empty((n_samples, cfg.seq_len))

    def run_chunk(start, size):
        rows = slice(start, start + size)
        idx = np.arange(start, start + size) % n_windows
        adjs = window_adjacencies(graph, idx, cfg)
        fake = model.generator_forward(noise[rows], adjs, training=False)
        outputs[rows] = fake.value[:, :, 0]

    workers = min(GENERATE_THREADS, _usable_cores(), len(sizes))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(run_chunk, starts, sizes):
            pass  # reading each result re-raises a chunk's error here
    return invert_pipeline(outputs, stats)


def generate_chunks(n_samples: int) -> list[int]:
    """Rows per forward pass of `generate`, in sample order.

    At most `GENERATE_CHUNK` rows each, and at least `GENERATE_THREADS`
    chunks while that leaves two or more rows per chunk, with sizes that
    differ by at most one: 64 samples run as 32 + 32, 200 as 4 x 50. The
    plan depends only on ``n_samples``, never on the machine.
    """
    chunks = max(-(-n_samples // GENERATE_CHUNK), min(GENERATE_THREADS, n_samples // 2))
    base, extra = divmod(n_samples, chunks)
    return [base + 1] * extra + [base] * (chunks - extra)


def _usable_cores() -> int:
    """Cores this process may run on (all cores where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1

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
The discriminator ascends this loss while the generator descends it,
alternating one step each per batch under RMSProp.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .autodiff import Parameter, Tensor
from .errors import ConfigError, NumericError, ShapeError, SizeError
from .optim import RmsProp
from .preprocess import PreprocessStats, WindowSpec, invert_pipeline, transform_with_stats, windows
from .signature import _leadlag_forward, _leadlag_vjp, sig_length
from .visibility import natural_visibility

GRAD_CLIP_NORM = 5.0

# The discriminator maximizes an objective with no finite maximizer, so its
# ascent is projected into a small box around its initialization (a bounded
# critic in the weight-clipping tradition). Without the projection the
# adversarial loop diverges: the critic inflates its output scale without
# limit and the degree-5 signature terms amplify that polynomially.
DISC_TRUST_RADIUS = 0.01

LOSS_KINDS = ("mse", "kld")
GRAPH_DIRECTIONS = ("undirected", "left_to_right")

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
        mapping = {
            "geometric": {"disable_geometric": True},
            "recurrent": {"disable_recurrent": True},
            "feedforward": {"disable_feedforward": True},
            "skip": {"skip_layer": False},
            "dropout": {"disable_dropout": True},
        }
        if component not in mapping:
            raise ConfigError(
                f"unknown ablation component {component!r}; "
                f"expected one of {sorted(mapping)}"
            )
        cfg = replace(self, **mapping[component])
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


def config_from_items(items: dict[str, str]) -> SigGanConfig:
    """Inverse of `config_to_items`; unknown keys are rejected."""
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
    cfg = SigGanConfig(**kwargs)
    cfg.validate()
    return cfg


# -- signature losses ---------------------------------------------------------


def leadlag_signature_tensor(series: Tensor, degree: int) -> Tensor:
    """Differentiable truncated signature of lead-lag-embedded series rows."""
    value, cache = _leadlag_forward(series.value, degree)
    return ad.from_op(
        value, [(series, lambda g: _leadlag_vjp(cache, g))], "leadlag_signature"
    )


def _as_series_batch(t: Tensor) -> Tensor:
    """Coerce (T,), (T, 1) or (B, T, 1) into a (B, T) series batch."""
    v = t.value
    if v.ndim == 1:
        return ad.reshape(t, (1, v.shape[0]))
    if v.ndim == 2 and v.shape[1] == 1:
        return ad.reshape(t, (1, v.shape[0]))
    if v.ndim == 3 and v.shape[2] == 1:
        return ad.reshape(t, (v.shape[0], v.shape[1]))
    raise ShapeError(f"expected a window tensor of shape (T,), (T,1) or (B,T,1), got {v.shape}")


def _expected_signatures(fake, real, degree):
    """Batch-mean signatures of fake/real windows and their running sums.

    A batch is summarized by its expected signature before the two sides
    are compared; matching expected signatures is what identifies equal
    path distributions, and a window batch of one reduces to the plain
    per-window comparison.
    """
    f = _as_series_batch(ad.as_tensor(fake))
    r = _as_series_batch(ad.as_tensor(real))
    if f.value.shape != r.value.shape:
        raise ShapeError(
            f"fake/real shapes differ: {f.value.shape} vs {r.value.shape}"
        )
    if f.value.shape[1] < 2:
        raise SizeError("signature losses need windows of length >= 2")
    batch = f.value.shape[0]
    # one engine pass over fake, real, and both running sums
    stacked = ad.concat([f, r, ad.cumsum(f, axis=1), ad.cumsum(r, axis=1)], axis=0)
    sigs = leadlag_signature_tensor(stacked, degree)
    return (
        ad.tmean(sigs[0:batch], axis=0),
        ad.tmean(sigs[batch : 2 * batch], axis=0),
        ad.tmean(sigs[2 * batch : 3 * batch], axis=0),
        ad.tmean(sigs[3 * batch :], axis=0),
    )


def sig_mse_loss(fake, real, degree: int = 5) -> Tensor:
    """Mean squared gap between truncated signatures, plain plus cumulative."""
    sig_f, sig_r, cum_f, cum_r = _expected_signatures(fake, real, degree)
    return ad.add(ly.mse(sig_f, sig_r), ly.mse(cum_f, cum_r))


def _softmax_kl(logits_p: Tensor, logits_q: Tensor) -> Tensor:
    """KL(softmax(p) || softmax(q)) computed in the logit domain.

    Equivalent to `kl_divergence` of the two softmaxes but immune to the
    probability underflow that raw signature coefficients provoke.
    """
    p = ad.softmax(logits_p, axis=-1)
    gap = ad.sub(ad.log_softmax(logits_p, axis=-1), ad.log_softmax(logits_q, axis=-1))
    per_row = ad.tsum(ad.mul(p, gap), axis=-1)
    return per_row if per_row.value.ndim == 0 else ad.tmean(per_row)


def sig_kld_loss(fake, real, degree: int = 5) -> Tensor:
    """KL divergence between softmax-normalized signature coefficient vectors.

    The softmax runs over the full coefficient vector, constant term
    included; fake is the left argument. Plain and cumulative terms add.
    """
    sig_f, sig_r, cum_f, cum_r = _expected_signatures(fake, real, degree)
    return ad.add(_softmax_kl(sig_f, sig_r), _softmax_kl(cum_f, cum_r))


LOSS_FUNCTIONS = {"mse": sig_mse_loss, "kld": sig_kld_loss}


# -- network blocks -----------------------------------------------------------


class RecurrentBlock:
    """Stacked LSTMs followed by a linear head."""

    def __init__(self, rng, cfg: SigGanConfig, in_features: int, out_features: int, name: str):
        self.cfg = cfg
        self.lstms = []
        width = in_features
        for i in range(cfg.rec_lstm_layers):
            self.lstms.append(ly.LSTM(rng, width, cfg.rec_lstm_neurons, f"{name}.lstm{i}"))
            width = cfg.rec_lstm_neurons
        self.head = ly.Dense(rng, width, out_features, f"{name}.head")

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

    def __init__(self, rng, cfg: SigGanConfig, in_features: int, out_features: int, name: str):
        self.cfg = cfg
        self.thetas = []
        width = in_features
        for i in range(cfg.gnn_layers):
            self.thetas.append(
                Parameter(ly.glorot_uniform(rng, width, cfg.gnn_neurons), f"{name}.gcn{i}")
            )
            width = cfg.gnn_neurons
        self.lstm = ly.LSTM(rng, width, cfg.geo_lstm_neurons, f"{name}.lstm")
        self.head = ly.Dense(rng, cfg.geo_lstm_neurons, out_features, f"{name}.head")

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

    def __init__(self, rng, in_features: int, name: str):
        self.fc1 = ly.Dense(rng, in_features, 128, f"{name}.fc1")
        self.fc2 = ly.Dense(rng, 128, 64, f"{name}.fc2")
        self.fc3 = ly.Dense(rng, 64, 1, f"{name}.fc3")

    def parameters(self):
        return self.fc1.parameters() + self.fc2.parameters() + self.fc3.parameters()

    def forward(self, x: Tensor) -> Tensor:
        h = ad.prelu(self.fc1(x))
        h = ad.prelu(self.fc2(h))
        return self.fc3(h)


class GanNetwork:
    """Shared generator/discriminator architecture over (B, T, F) inputs."""

    def __init__(self, rng, cfg: SigGanConfig, in_features: int, name: str):
        self.cfg = cfg
        self.in_features = in_features
        # block output width mirrors the input width; the feedforward
        # stack reduces to a single feature at the end
        block_out = in_features
        self.recurrent = (
            None
            if cfg.disable_recurrent
            else RecurrentBlock(rng, cfg, in_features, block_out, f"{name}.rec")
        )
        self.geometric = (
            None
            if cfg.disable_geometric
            else GeometricBlock(rng, cfg, in_features, block_out, f"{name}.geo")
        )
        if cfg.disable_feedforward:
            self.feedforward = None
        else:
            ff_in = block_out + (in_features if cfg.skip_layer else 0)
            self.feedforward = FeedforwardBlock(rng, ff_in, f"{name}.ff")

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
    """Generator plus discriminator built from one config."""

    def __init__(self, cfg: SigGanConfig, seed_seq: np.random.SeedSequence | None = None):
        cfg.validate()
        self.cfg = cfg
        if seed_seq is None:
            seed_seq = np.random.SeedSequence(cfg.seed)
        gen_seed, disc_seed = seed_seq.spawn(2)
        self.generator = GanNetwork(
            np.random.Generator(np.random.PCG64(gen_seed)), cfg, cfg.noise_features, "gen"
        )
        self.discriminator = GanNetwork(
            np.random.Generator(np.random.PCG64(disc_seed)), cfg, 1, "disc"
        )

    def generator_forward(self, noise, norm_adjacency, training=False, rng=None) -> Tensor:
        return self.generator.forward(ad.as_tensor(noise), norm_adjacency, training, rng)

    def discriminator_forward(self, real, norm_adjacency, training=False, rng=None) -> Tensor:
        return self.discriminator.forward(ad.as_tensor(real), norm_adjacency, training, rng)


# -- training and generation --------------------------------------------------


def window_adjacencies(window_values: np.ndarray, cfg: SigGanConfig) -> np.ndarray:
    """Normalized visibility adjacency of each window, stacked (B, T, T)."""
    directed = cfg.graph_direction == "left_to_right"
    return np.stack(
        [
            ly.normalized_adjacency(
                natural_visibility(w, directed=directed).adjacency
            )
            for w in window_values
        ]
    )


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

    window_values = windows(values, WindowSpec(cfg.seq_len, 1))
    adjacencies = window_adjacencies(window_values, cfg)
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
        clip_norm=GRAD_CLIP_NORM,
        trust_radius=DISC_TRUST_RADIUS,
    )
    opt_gen = RmsProp(
        model.generator.parameters(), cfg.learning_rate, clip_norm=GRAD_CLIP_NORM
    )
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
            adj_batch = adjacencies[idx]
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
    cyclic order, builds its visibility graph, draws fresh noise, runs
    the generator, and inverts the preprocessing on the output.

    Returns an (n_samples, seq_len) array of log returns.
    """
    cfg = checkpoint.config
    stats = checkpoint.stats
    if n_samples < 0:
        raise ConfigError("n_samples must be >= 0")
    model = checkpoint.build_model()
    for p in model.generator.parameters():
        p.requires_grad = False  # no backward follows, so ops keep no graph
    if n_samples == 0:
        return np.zeros((0, cfg.seq_len))

    conditioning = np.asarray(conditioning_log_returns, dtype=np.float64)
    transformed = transform_with_stats(conditioning, stats)
    window_values = windows(transformed, WindowSpec(cfg.seq_len, 1))
    adjacencies = window_adjacencies(window_values, cfg)
    n_windows = window_values.shape[0]

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    outputs = np.empty((n_samples, cfg.seq_len))
    chunk = 64
    for start in range(0, n_samples, chunk):
        size = min(chunk, n_samples - start)
        idx = (start + np.arange(size)) % n_windows
        adjs = adjacencies[idx]
        noise = rng.standard_normal((size, cfg.seq_len, cfg.noise_features))
        fake = model.generator_forward(noise, adjs, training=False)
        outputs[start : start + size] = fake.value[:, :, 0]
    return invert_pipeline(outputs, stats)

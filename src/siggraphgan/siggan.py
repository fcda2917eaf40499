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

Each batch draws all its randomness before any forward runs
(`draw_batch`): both steps' noise, and a dropout keep-mask for every
dropout layer of the batch's four forwards. The forwards take their
masks and draw nothing, so their values do not depend on the order they
run in. A network's parameter list is the record its parameter source
kept while the network was built, so the architecture's order is
written once, in the constructors.

The recurrent block's LSTM stack and its dropout layers are one graph
node (`layers.lstm_stack`). In training, a stack of two or more layers
runs its lower half on one worker thread that the `TrainState` owns and
its upper half on the caller, block by block; `generate` runs its chunks
on two threads instead, each chunk's stacks on its own thread. `train`
and `generate` run with OpenBLAS on one thread (`blas.one_thread`), so
their outputs do not depend on the machine.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from . import blas
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

GRAPH_DIRECTIONS = ("undirected", "left_to_right")

# Values of the config's `ablation` field: the full network, or the network
# without its geometric block, recurrent block, feedforward block or skip path
ABLATIONS = ("none", "geometric", "recurrent", "feedforward", "skip")
# What `SigGanConfig.ablated` removes: one architectural component, or dropout
ABLATION_COMPONENTS = ABLATIONS[1:] + ("dropout",)

# Tuned defaults per loss kind, where they differ from the field defaults
# of `SigGanConfig`, which hold the mse preset: learning rate, (gnn,
# geometric lstm) widths, (gnn, recurrent lstm) depths, dropout.
_PRESETS = {
    "kld": dict(
        learning_rate=0.000221,
        gnn_neurons=110,
        geo_lstm_neurons=70,
        gnn_layers=2,
        rec_lstm_layers=4,
        dropout=0.35,
    ),
}


@dataclass(frozen=True)
class SigGanConfig:
    """Architecture, loss, and training-loop settings.

    Frozen, and checked when built: a config that exists is valid, and
    `dataclasses.replace` checks the copy again.
    """

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
    ablation: str = "none"
    seed: int = 0

    def __post_init__(self):
        if self.loss_kind not in LOSS_FUNCTIONS:
            raise ConfigError(
                f"loss_kind must be one of {tuple(LOSS_FUNCTIONS)}, got {self.loss_kind!r}"
            )
        if self.graph_direction not in GRAPH_DIRECTIONS:
            raise ConfigError(
                f"graph_direction must be one of {GRAPH_DIRECTIONS}, "
                f"got {self.graph_direction!r}"
            )
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 < self.learning_rate < float("inf"):
            raise ConfigError("learning_rate must be positive and finite")
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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name in ("gnn_neurons", "geo_lstm_neurons", "rec_lstm_neurons",
                     "gnn_layers", "rec_lstm_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.ablation == "feedforward" and self.noise_features != 1:
            raise ConfigError(
                "ablation = feedforward requires noise_features = 1 so the "
                "summed block output is already a single feature"
            )

    @classmethod
    def for_loss(cls, loss_kind: str, **overrides) -> "SigGanConfig":
        """Config preloaded with the tuned defaults of one loss kind."""
        return cls(loss_kind=loss_kind, **{**_PRESETS.get(loss_kind, {}), **overrides})

    def ablated(self, component: str) -> "SigGanConfig":
        """Copy of this config with one component removed (dropout is rate 0).

        A config that already has an ablation is rejected, so one ablation
        never quietly replaces another. So is "dropout" on a config whose
        rate is already 0: the copy would train the same model.
        """
        if component not in ABLATION_COMPONENTS:
            raise ConfigError(
                f"unknown ablation component {component!r}; "
                f"expected one of {ABLATION_COMPONENTS}"
            )
        if self.ablation != "none":
            raise ConfigError(f"config already has ablation {self.ablation!r}")
        if component == "dropout":
            if self.dropout == 0.0:
                raise ConfigError("config already has dropout 0; nothing to ablate")
            return replace(self, dropout=0.0)
        return replace(self, ablation=component)


def config_to_items(cfg: SigGanConfig) -> list[tuple[str, str]]:
    """Stable key=value view of a config (used by checkpoints and the CLI)."""
    items = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        items.append((f.name, repr(value) if isinstance(value, float) else str(value)))
    return items


# each field's type, read from its default
_FIELD_TYPES = {f.name: type(f.default) for f in fields(SigGanConfig)}


def parse_config_value(key: str, text: str):
    """Typed value of one textual config item; an unknown key is rejected."""
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    if kind is str:
        return text
    try:
        return kind(text)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"config key {key!r} expects {expected}, got {text!r}") from exc


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


def _layer_masks(layers, masks):
    """Pairs each layer with its keep-mask; masks of None pair each with None.

    A mask list of another length than ``layers`` raises `ValueError`.
    """
    return zip(layers, [None] * len(layers) if masks is None else masks, strict=True)


class RecurrentBlock:
    """Stacked LSTMs, each followed by its dropout, then a linear head.

    The stack and its dropout layers are one graph node
    (`layers.lstm_stack`). ``worker`` is the one-thread executor of a
    training run, or None; with it, a stack of two or more layers runs its
    lower half on the worker and its upper half on the caller, block by
    block, with the same values as on one thread.
    """

    def __init__(self, init, cfg: SigGanConfig, in_features: int, out_features: int, name: str,
                 worker=None):
        self.cfg = cfg
        self.worker = worker
        self.lstms = []
        width = in_features
        for i in range(cfg.rec_lstm_layers):
            self.lstms.append(ly.LSTM(init, width, cfg.rec_lstm_neurons, f"{name}.lstm{i}"))
            width = cfg.rec_lstm_neurons
        self.head = ly.Dense(init, width, out_features, f"{name}.head")

    def forward(self, h: Tensor, masks) -> Tensor:
        h = ly.lstm_stack(h, self.lstms, masks, self.cfg.dropout, self.worker)
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

    def forward(self, h: Tensor, norm_adjacency: np.ndarray, masks) -> Tensor:
        for theta, mask in _layer_masks(self.thetas, masks):
            h = ad.dropout(ly.gcn_apply(h, norm_adjacency, theta), mask, self.cfg.dropout)
        h = self.lstm(h)
        return self.head(h)


class FeedforwardBlock:
    """Fixed 128/64/1 fully connected stack with PReLU activations."""

    def __init__(self, init, in_features: int, name: str):
        self.fc1 = ly.Dense(init, in_features, 128, f"{name}.fc1")
        self.fc2 = ly.Dense(init, 128, 64, f"{name}.fc2")
        self.fc3 = ly.Dense(init, 64, 1, f"{name}.fc3")

    def forward(self, x: Tensor) -> Tensor:
        h = ad.prelu(self.fc1(x))
        h = ad.prelu(self.fc2(h))
        return self.fc3(h)


class GanNetwork:
    """Shared generator/discriminator architecture over (B, T, F) inputs.

    ``init`` is the parameter source (see `layers.RandomInit`); every
    parameter is requested from it once, in a fixed order, and the
    source's record of them is the network's parameter list. ``worker``
    goes to the recurrent block.
    """

    def __init__(self, init, cfg: SigGanConfig, in_features: int, name: str, worker=None):
        self.in_features = in_features
        # block output width mirrors the input width; the feedforward
        # stack reduces to a single feature at the end
        block_out = in_features
        self.recurrent = (
            None
            if cfg.ablation == "recurrent"
            else RecurrentBlock(init, cfg, in_features, block_out, f"{name}.rec", worker)
        )
        self.geometric = (
            None
            if cfg.ablation == "geometric"
            else GeometricBlock(init, cfg, in_features, block_out, f"{name}.geo")
        )
        # the skip path concatenates the raw input to the block sum
        self.skip = cfg.ablation != "skip"
        if cfg.ablation == "feedforward":
            self.feedforward = None
        else:
            ff_in = block_out + (in_features if self.skip else 0)
            self.feedforward = FeedforwardBlock(init, ff_in, f"{name}.ff")
        self._params = init.params

    def parameters(self):
        return list(self._params)

    def forward(self, x: Tensor, norm_adjacency: np.ndarray, masks=None) -> Tensor:
        """The network's output on ``x``.

        ``masks`` is this forward's (recurrent, graph) pair of keep-mask
        lists, one mask per layer, as `draw_batch` makes them; None applies
        no dropout.
        """
        if x.value.ndim != 3 or x.value.shape[2] != self.in_features:
            raise ShapeError(
                f"expected input (B, T, {self.in_features}), got {x.value.shape}"
            )
        rec, geo = (None, None) if masks is None else masks
        # at most one block is ablated
        if self.recurrent is None:
            total = self.geometric.forward(x, norm_adjacency, geo)
        elif self.geometric is None:
            total = self.recurrent.forward(x, rec)
        else:
            total = ad.add(
                self.recurrent.forward(x, rec), self.geometric.forward(x, norm_adjacency, geo)
            )
        if self.feedforward is None:
            return total
        if self.skip:
            total = ad.concat([total, x])
        return self.feedforward.forward(total)


class SigGraphGan:
    """Generator plus discriminator built from one config.

    By default both networks are initialized at random from ``seed_seq``
    (from the config seed if not given). ``inits`` instead gives the
    (generator, discriminator) parameter sources, as the checkpoint loader
    does; then nothing is drawn. A discriminator source of None leaves the
    discriminator unbuilt (None), for sampling. ``worker`` is the one-thread
    executor both networks' recurrent stacks share, or None.
    """

    def __init__(self, cfg: SigGanConfig, seed_seq: np.random.SeedSequence | None = None,
                 inits=None, worker=None):
        self.cfg = cfg
        if inits is None:
            if seed_seq is None:
                seed_seq = np.random.SeedSequence(cfg.seed)
            inits = [
                ly.RandomInit(np.random.Generator(np.random.PCG64(s))) for s in seed_seq.spawn(2)
            ]
        gen_init, disc_init = inits
        self.generator = GanNetwork(gen_init, cfg, cfg.noise_features, "gen", worker)
        self.discriminator = (
            None if disc_init is None else GanNetwork(disc_init, cfg, 1, "disc", worker)
        )

    def generator_forward(self, noise, norm_adjacency, masks=None) -> Tensor:
        return self.generator.forward(ad.as_tensor(noise), norm_adjacency, masks)

    def discriminator_forward(self, real, norm_adjacency, masks=None) -> Tensor:
        return self.discriminator.forward(ad.as_tensor(real), norm_adjacency, masks)


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


class TrainState:
    """Everything a training run carries from one epoch to the next.

    Built from the (gaussianized) return series, the config and the
    preprocessing statistics the checkpoint records (identity statistics
    if None). It holds the series' window view and visibility graph, the
    model, the shuffle, noise and dropout generators, one RMSProp per
    player and the epoch losses so far. The model and the three generators
    take the four children of ``SeedSequence(cfg.seed)``, in that order.

    A config whose recurrent stacks have two or more layers also gets one
    worker thread (``worker``), which both networks' stacks share; it is
    started by the first forward and ended by `close`, or by leaving a
    ``with`` block over the state.
    """

    def __init__(self, returns, cfg: SigGanConfig, stats: PreprocessStats | None = None):
        values = np.asarray(returns, dtype=np.float64)
        if values.ndim != 1:
            raise ShapeError("train expects a one-dimensional return series")
        min_returns = cfg.seq_len + cfg.batch_size - 1  # one full batch of windows
        if values.shape[0] < min_returns:
            raise SizeError(
                f"need at least seq_len + batch_size - 1 = {min_returns} "
                f"returns, got {values.shape[0]}"
            )
        self.cfg = cfg
        self.stats = PreprocessStats(mean=0.0, std=1.0, delta=0.0) if stats is None else stats
        self.window_values = np.lib.stride_tricks.sliding_window_view(values, cfg.seq_len)
        self.graph = series_graph(values, cfg)
        model_seed, *rng_seeds = np.random.SeedSequence(cfg.seed).spawn(4)
        self.worker = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="siggraphgan-lstm")
            if cfg.rec_lstm_layers >= 2 and cfg.ablation != "recurrent"
            else None
        )
        self.model = SigGraphGan(cfg, model_seed, worker=self.worker)
        self.shuffle_rng, self.noise_rng, self.dropout_rng = (
            np.random.Generator(np.random.PCG64(seed)) for seed in rng_seeds
        )
        self.opt_disc = RmsProp(
            self.model.discriminator.parameters(),
            cfg.learning_rate,
            maximize=True,
            trust_radius=DISC_TRUST_RADIUS,
        )
        self.opt_gen = RmsProp(self.model.generator.parameters(), cfg.learning_rate)
        self.epoch_losses: list[float] = []

    def close(self):
        """Ends the worker thread, once it has finished; no batch can run after this."""
        if self.worker is not None:
            self.worker.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def draw_batch(state: TrainState) -> list:
    """All of one batch's random draws, made before any of its forwards runs.

    Returns one ``(noise, [generator_masks, critic_masks])`` pair per
    player step, the critic's step first. A step's noise is a (batch,
    seq_len, noise_features) normal draw. A forward's masks are a
    (recurrent, graph) pair of lists with one boolean keep-mask per
    dropout layer, an empty list for an ablated block; at dropout 0 each
    mask is None and nothing is drawn. The noise stream gives the critic
    step's noise, then the generator step's; the dropout stream gives the
    masks of the critic step's generator and critic forwards, then the
    generator step's, each forward's recurrent layers before its graph
    layers. So every forward's values follow from the parameters and
    these draws alone, whatever order the forwards run in.
    """
    cfg, rng = state.cfg, state.dropout_rng
    shape = (cfg.batch_size, cfg.seq_len)
    noise = [state.noise_rng.standard_normal(shape + (cfg.noise_features,)) for _ in range(2)]
    rec = [] if cfg.ablation == "recurrent" else [cfg.rec_lstm_neurons] * cfg.rec_lstm_layers
    gnn = [] if cfg.ablation == "geometric" else [cfg.gnn_neurons] * cfg.gnn_layers

    def masks(widths):
        return [rng.random(shape + (w,)) >= cfg.dropout if cfg.dropout else None for w in widths]

    return [(n, [(masks(rec), masks(gnn)), (masks(rec), masks(gnn))]) for n in noise]


def player_step(state: TrainState, opt: RmsProp, idle: RmsProp, real_windows, adjs, draws) -> float:
    """One step of ``opt``'s player on its `draw_batch` draws; ``idle``'s output is a constant.

    Each forward takes its masks out of ``draws``. The idle network's
    forward builds no graph, so its masks are freed as soon as it has run;
    the stepping network's are held by its graph until the backward pass.
    """
    for p in opt.params:
        p.requires_grad = True
    for p in idle.params:
        p.requires_grad = False
    cfg, model = state.cfg, state.model
    noise, masks = draws
    fake = model.generator_forward(noise, adjs, masks.pop(0))
    real = model.discriminator_forward(real_windows[:, :, np.newaxis], adjs, masks.pop(0))
    loss = LOSS_FUNCTIONS[cfg.loss_kind](fake, real, cfg.sig_degree)
    loss.backward()
    opt.step()
    return loss.item()


def train_epoch(state: TrainState) -> float:
    """One epoch over a fresh shuffle of the windows; returns its mean generator loss.

    Each full batch makes its `draw_batch` draws, then takes one
    discriminator step and one generator step; the mean of the generator
    losses is appended to ``state.epoch_losses``. A `NumericError` names
    its epoch and the batch's position in the shuffle.
    """
    cfg, windows = state.cfg, state.window_values
    epoch = len(state.epoch_losses)
    order = state.shuffle_rng.permutation(windows.shape[0])
    gen_losses = []
    for start in range(0, windows.shape[0] - cfg.batch_size + 1, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        real, adjs = windows[idx], window_adjacencies(state.graph, idx, cfg)
        draws = draw_batch(state)  # each step pops its own, so they are freed as it ends
        try:
            player_step(state, state.opt_disc, state.opt_gen, real, adjs, draws.pop(0))
            loss = player_step(state, state.opt_gen, state.opt_disc, real, adjs, draws.pop(0))
            gen_losses.append(loss)
        except NumericError as exc:
            raise NumericError(f"{exc} (epoch {epoch}, batch starting at {start})") from exc
    state.epoch_losses.append(float(np.mean(gen_losses)))
    return state.epoch_losses[-1]


def train(returns, cfg: SigGanConfig, stats: PreprocessStats | None = None) -> TrainResult:
    """Adversarial training on sliding windows of a (gaussianized) series.

    Builds a `TrainState`, steps it `cfg.epochs` times with `train_epoch`
    and saves its model as a checkpoint; per-epoch reporting or saving
    belongs in that loop. Per batch the discriminator takes one RMSProp
    ascent step on the signature loss, then the generator takes one
    descent step with fresh noise. Only the stepping player's parameters
    require grad during its step, so the idle player's forward records no
    graph and the backward pass walks the stepping player's alone. Both
    updates clip the global gradient norm at 5. The per-epoch trace
    records the mean loss of the generator steps.

    One visibility graph is built over the whole series, with lags up to
    seq_len - 1; each batch slices and normalizes the adjacency of its own
    windows, which both player steps share.

    Training runs with OpenBLAS on one thread (`blas.one_thread`), and
    recurrent stacks of two or more layers split over the caller and the
    state's worker thread, which ends with the call.
    """
    from .checkpoint import Checkpoint  # local import to avoid a cycle

    with blas.one_thread(), TrainState(returns, cfg, stats) as state:
        for _ in range(cfg.epochs):
            train_epoch(state)
    checkpoint = Checkpoint.from_model(state.model, cfg, state.stats)
    return TrainResult(checkpoint=checkpoint, epoch_losses=state.epoch_losses)


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
    one unchunked forward over all samples. The forwards run with
    OpenBLAS on one thread (`blas.one_thread`), so the output does not
    depend on the number of cores or worker threads, and the first m >= 2
    samples do not depend on how many more are drawn. Each chunk's
    recurrent stack runs on its own thread, without a worker. A chunk's
    error, such as `NumericError`, is raised to the caller.

    Returns an (n_samples, seq_len) array of log returns.
    """
    cfg = checkpoint.config
    stats = checkpoint.stats
    if n_samples < 0:
        raise ConfigError("n_samples must be >= 0")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
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
        fake = model.generator_forward(noise[rows], adjs)
        outputs[rows] = fake.value[:, :, 0]

    workers = min(GENERATE_THREADS, len(sizes))
    with blas.one_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
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


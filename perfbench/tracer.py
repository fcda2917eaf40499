"""Spans and counts recorded around siggraphgan's layers, from outside.

`Tracer.install()` replaces module attributes of the package with thin
wrappers that open a span (name, start, end, parent, run id) around the
call and bump counters from its arguments or result; `uninstall()` puts
the originals back. Spans are kept in memory and written out once, at the
end of a run. The program under test is not edited: every wrapper sits on
an attribute that the package looks up at call time (a module global, a
class attribute or a dict entry), which is what makes it intercept calls.

With ``peaks=True`` the tracer also follows `tracemalloc` peaks per
backward pass and per adversarial batch; that pass is kept apart from the
timing pass because `tracemalloc` slows every allocation.
"""

from __future__ import annotations

import json
import time
import tracemalloc
import weakref
from collections import defaultdict

MB = float(1 << 20)


class Tracer:
    """In-memory span recorder plus counters for one traced pass."""

    def __init__(self, run_id: str, peaks: bool = False):
        self.run_id = run_id
        self.peaks = peaks
        # one row per span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._optimizers: weakref.WeakSet = weakref.WeakSet()
        # adversarial batch boundaries: end of the previous generator step,
        # or, for a train() call's first batch, start of its first forward
        self._batch_start: float | None = None
        self._await_first_forward = False
        self.batch_seconds: list[float] = []
        self.backward_peak = 0
        self.batch_peak = 0
        self._batch_running_peak = 0

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; used by the benchmark around its own calls."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed duration minus the time covered by child spans."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            totals[name] += duration
            if parent >= 0:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def total_seconds(self) -> dict[str, float]:
        """Per span name: summed duration, children included."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def covered_seconds(self) -> float:
        """Time inside any span (the sum of top-level span durations)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path):
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
            for n, s, e, p in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"run": self.run_id, "spans": rows, "counts": dict(self.counts)}, handle)

    # -- batch boundaries and memory peaks -----------------------------------

    def train_started(self):
        """Mark the start of a train() call: its first batch opens at the
        first generator or discriminator forward."""
        self._batch_start = None
        self._await_first_forward = True
        if self.peaks:
            tracemalloc.reset_peak()
            self._batch_running_peak = 0

    def _forward_started(self, now: float):
        if self._await_first_forward:
            self._batch_start = now
            self._await_first_forward = False

    def _generator_stepped(self):
        now = time.perf_counter()
        if self._batch_start is not None:
            self.batch_seconds.append(now - self._batch_start)
        self._batch_start = now
        if self.peaks:
            peak = max(self._batch_running_peak, tracemalloc.get_traced_memory()[1])
            self.batch_peak = max(self.batch_peak, peak)
            tracemalloc.reset_peak()
            self._batch_running_peak = 0

    def _backward_started(self):
        if self.peaks:
            self._batch_running_peak = max(
                self._batch_running_peak, tracemalloc.get_traced_memory()[1]
            )
            tracemalloc.reset_peak()

    def _backward_ended(self):
        if self.peaks:
            peak = tracemalloc.get_traced_memory()[1]
            self.backward_peak = max(self.backward_peak, peak)
            self._batch_running_peak = max(self._batch_running_peak, peak)

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _spanned(self, name: str, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the layer entry points; the package must already be imported."""
        from siggraphgan import autodiff, baselines, layers, metrics, optim, siggan
        from siggraphgan.signature import sig_length

        counts = self.counts
        tracer = self

        # visibility: one graph per natural_visibility call, and the largest
        # stacked adjacency window_adjacencies returns
        def count_adjacency(result, *args, **kwargs):
            counts["visibility.max_adjacency_bytes"] = max(
                counts["visibility.max_adjacency_bytes"], result.nbytes
            )

        self._patch(siggan, "window_adjacencies", self._spanned(
            "visibility.adjacency", siggan.window_adjacencies, after=count_adjacency))
        natural_visibility = siggan.natural_visibility

        def counted_visibility(*args, **kwargs):
            counts["visibility.graphs"] += 1
            return natural_visibility(*args, **kwargs)

        self._patch(siggan, "natural_visibility", counted_visibility)

        # signature engine: rows and Chen steps, and the largest snapshot
        # array the forward keeps for its adjoint
        def count_signature(series, degree):
            rows, points = series.value.shape
            steps = 2 * (points - 1)
            counts["signature.rows"] += rows
            counts["signature.chen_steps"] += steps
            counts["signature.max_snapshot_bytes"] = max(
                counts["signature.max_snapshot_bytes"], steps * rows * sig_length(2, degree) * 8
            )

        self._patch(siggan, "leadlag_signature_tensor", self._spanned(
            "signature.fwd", siggan.leadlag_signature_tensor, before=count_signature))
        self._patch(siggan, "_leadlag_vjp", self._spanned(
            "signature.adjoint", siggan._leadlag_vjp))

        # autodiff: backward passes, graph nodes per pass, memory peaks
        def backward_before(*args):
            counts["autodiff.backwards"] += 1
            tracer._backward_started()

        def backward_after(*args):
            tracer._backward_ended()

        self._patch(autodiff.Tensor, "backward", self._spanned(
            "autodiff.backward", autodiff.Tensor.backward,
            before=backward_before, after=backward_after))
        toposort = autodiff._toposort

        def counted_toposort(root):
            order = toposort(root)
            counts["autodiff.nodes"] += len(order)
            return order

        self._patch(autodiff, "_toposort", counted_toposort)

        # optimizer: steps, and gradient elements held by the idle player
        init = optim.RmsProp.__init__

        def registered_init(opt, *args, **kwargs):
            init(opt, *args, **kwargs)
            tracer._optimizers.add(opt)

        self._patch(optim.RmsProp, "__init__", registered_init)

        def step_before(opt):
            held_own = sum(p.grad.size for p in opt.params if p.grad is not None)
            held_other = sum(
                p.grad.size
                for other in list(tracer._optimizers)
                if other is not opt
                for p in other.params
                if p.grad is not None
            )
            counts["autodiff.grad_elements"] += held_own + held_other
            counts["autodiff.wasted_grad_elements"] += held_other

        def step_after(result, opt):
            counts["optim.steps"] += 1
            if not opt.maximize:
                tracer._generator_stepped()

        self._patch(optim.RmsProp, "step", self._spanned(
            "optim.step", optim.RmsProp.step, before=step_before, after=step_after))

        # network blocks and layers
        def forward_before(*args, **kwargs):
            tracer._forward_started(time.perf_counter())

        self._patch(siggan.SigGraphGan, "generator_forward", self._spanned(
            "siggan.gen_fwd", siggan.SigGraphGan.generator_forward, before=forward_before))
        self._patch(siggan.SigGraphGan, "discriminator_forward", self._spanned(
            "siggan.disc_fwd", siggan.SigGraphGan.discriminator_forward, before=forward_before))
        for cls, name in ((siggan.RecurrentBlock, "siggan.rec_fwd"),
                          (siggan.GeometricBlock, "siggan.geo_fwd"),
                          (siggan.FeedforwardBlock, "siggan.ff_fwd")):
            self._patch(cls, "forward", self._spanned(name, cls.forward))
        self._patch(layers, "lstm_forward", self._spanned("layers.lstm_fwd", layers.lstm_forward))
        self._patch(layers, "gcn_apply", self._spanned("layers.gcn_fwd", layers.gcn_apply))
        for kind, fn in list(siggan.LOSS_FUNCTIONS.items()):
            self._patch_item(siggan.LOSS_FUNCTIONS, kind, self._spanned("siggan.loss", fn))

        # preprocessing inverse inside generate
        self._patch(siggan, "invert_pipeline", self._spanned(
            "preprocess.invert", siggan.invert_pipeline))

        # metrics: the pieces of build_report
        self._patch(metrics, "emd_1d", self._spanned("metrics.emd", metrics.emd_1d))
        self._patch(metrics, "expected_leadlag_signature", self._spanned(
            "metrics.signature", metrics.expected_leadlag_signature))
        self._patch(metrics, "leverage_effect_score", self._spanned(
            "metrics.leverage", metrics.leverage_effect_score))

        # baselines: likelihood evaluations inside garch_fit
        variance = baselines.garch_conditional_variance

        def counted_variance(*args, **kwargs):
            counts["baselines.garch_evals"] += 1
            return variance(*args, **kwargs)

        self._patch(baselines, "garch_conditional_variance", counted_variance)
        return self

    def _patch_item(self, mapping, key, replacement):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

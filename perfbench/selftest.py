"""Fast self-test of the benchmark at minimal sizes.

    python3 perfbench/selftest.py

Runs every workload, scaled down to a few tiny batches, untraced and
traced, in this process. Asserts that each run emits exactly the metrics
BENCHMARK.json names, with their units; that the layers a workload runs
report non-zero work; that per-layer self-times plus the unattributed
remainder add up to the traced wall time; that the wrappers are removed
afterwards; and that the output check accepts recorded references and
rejects a perturbed one. Exits non-zero on the first failure.
"""

import dataclasses
import json
import os
import sys

import run  # pins BLAS before numpy loads

sys.path.insert(0, run.SRC)

import bench  # noqa: E402
from siggraphgan import autodiff, siggan  # noqa: E402

TINY_NET = dict(gnn_neurons=4, geo_lstm_neurons=4, rec_lstm_neurons=4,
                gnn_layers=1, rec_lstm_layers=1)
# 12 windows of 10 points are the shortest sample build_report accepts;
# preprocessing needs 100 returns, which make 91 windows
TINY = {
    "train_smoke": dict(overrides=dict(bench.SMOKE, seq_len=10, batch_size=30, **TINY_NET),
                        closes=101, n_samples=12),
    "train_kld": dict(overrides=dict(seq_len=10, batch_size=45, epochs=1, **TINY_NET),
                      closes=101, n_samples=12),
    # garch_fit needs 200 returns
    "score_kld": dict(overrides=dict(seq_len=10, epochs=0, **TINY_NET),
                      closes=202, n_samples=12),
}

# per-layer metrics that must read non-zero where the layer runs
RUNS_ON = {
    "train": ("visibility.graphs", "signature.rows", "signature.chen_steps",
              "autodiff.backward_s", "autodiff.nodes_per_backward",
              "autodiff.wasted_grad_share", "autodiff.backward_peak_mb",
              "layers.lstm_fwd_s", "optim.steps", "siggan.batches",
              "siggan.batch_peak_mb", "metrics.signature_s"),
    "score": ("visibility.graphs", "visibility.adjacency_mb", "layers.lstm_fwd_s",
              "baselines.garch_evals", "checkpoint.mb", "checkpoint.save_s",
              "metrics.signature_s"),
}


def tiny(name):
    return dataclasses.replace(bench.WORKLOADS[name], warmup=False, **TINY[name])


def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS), spec["workloads"]
    return e2e, layers


def run_tiny(w, trace, refs=None):
    out = bench.run(w, 0, 0.01, trace, 0.0, run.WORKDIR, refs)
    return out["result"]


def check_metrics(result, units, label):
    metrics = result["metrics"]
    assert set(metrics) == set(units), (label, sorted(set(metrics) ^ set(units)))
    for name, unit in units.items():
        assert metrics[name]["unit"] == unit, (label, name, metrics[name])
        assert isinstance(metrics[name]["value"], float), (label, name, metrics[name])


def check_partition(metrics, label):
    parts = sum(metrics[m]["value"] for m in bench.SELF_TIME_METRICS.values())
    parts += metrics["trace.unattributed_s"]["value"]
    wall = metrics["trace.wall_s"]["value"]
    assert abs(parts - wall) < 1e-6 * max(1.0, wall), (label, parts, wall)


def main():
    e2e_units, layer_units = declared()
    assert e2e_units == bench.E2E_UNITS, e2e_units
    assert layer_units == bench.LAYER_UNITS, sorted(set(layer_units) ^ set(bench.LAYER_UNITS))
    originals = (siggan.window_adjacencies, autodiff.Tensor.backward, dict(siggan.LOSS_FUNCTIONS))
    os.makedirs(run.WORKDIR, exist_ok=True)

    for name in bench.WORKLOADS:
        w = tiny(name)
        result = run_tiny(w, trace=False)
        assert result["correct"] and result["failed"] == 0, (name, result)
        assert result["metrics"]["ok_share"]["value"] == 1.0, result
        check_metrics(result, e2e_units, name)

        result = run_tiny(w, trace=True)
        assert result["correct"], (name, result)
        check_metrics(result, layer_units, f"{name} traced")
        check_partition(result["metrics"], name)
        for metric in RUNS_ON[w.kind]:
            assert result["metrics"][metric]["value"] > 0, (name, metric)

        refs = {name: {"0": bench.record_outputs(w, 0, 2, run.WORKDIR)}}
        result = run_tiny(w, trace=False, refs=refs)
        assert result["correct"] and result["failed"] == 0, (name, "reference", result)
        first = refs[name]["0"][sorted(refs[name]["0"])[0]]
        key = sorted(first)[-1]
        first[key] *= 1.0 + 1e-7
        result = run_tiny(w, trace=False, refs=refs)
        assert not result["correct"] and result["failed"] > 0, (name, "perturbed", key, result)
        assert result["metrics"]["ok_share"]["value"] < 1.0, result
        print(f"ok {name}")

    assert (siggan.window_adjacencies, autodiff.Tensor.backward,
            dict(siggan.LOSS_FUNCTIONS)) == originals, "tracer left wrappers installed"
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

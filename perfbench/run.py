"""Benchmark launcher.

    python3 perfbench/run.py --workload train_smoke --seed 0 --seconds 34 --trace 0

Run from the root of a checkout. BLAS is pinned to one thread before
numpy loads, the package is imported from the checkout's ``src/``, and one
workload runs in this process, so ``ru_maxrss`` is that workload's alone.
The last line of standard output is the result object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones). The line before it records the
environment and sample counts. Without the package, the launcher exits 2
and prints no result.

``--record N`` instead runs N operations per phase of the workload at
``--seed`` and stores their outputs in ``refs.json`` as the reference the
output check compares with.
"""

import os
import sys
import time

_START = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs.json")
WORKDIR = os.path.join(ROOT, ".perfbench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, default=0, metavar="N",
                        help="store the outputs of N operations per phase as references")
    return parser.parse_args(argv)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        import siggraphgan
    except ImportError as exc:
        print(f"perfbench: cannot import siggraphgan from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(siggraphgan.__file__).startswith(SRC + os.sep):
        print(f"perfbench: siggraphgan was not loaded from {SRC}", file=sys.stderr)
        return 2
    import bench

    import_seconds = time.perf_counter() - _START
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    if env["blas_threads"] not in (None, int(BLAS_THREADS)):
        print(f"perfbench: BLAS runs {env['blas_threads']} threads, not {BLAS_THREADS}",
              file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    if args.record:
        return record(bench, workload, args.seed, args.record)

    refs = None
    if os.path.exists(REFS):
        with open(REFS) as handle:
            refs = json.load(handle)
    out = bench.run(workload, args.seed, args.seconds, bool(args.trace), import_seconds,
                    WORKDIR, refs)
    for problem in out["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace,
                      "environment": env, "samples": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


def record(bench, workload, seed: int, ops: int) -> int:
    refs = {}
    if os.path.exists(REFS):
        with open(REFS) as handle:
            refs = json.load(handle)
    os.makedirs(WORKDIR, exist_ok=True)
    flat = bench.record_outputs(workload, seed, ops, WORKDIR)
    refs.setdefault(workload.name, {})[str(seed)] = flat
    with open(REFS, "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {sorted(flat)} of {workload.name} at seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

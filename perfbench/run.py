"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload {predict,train,dataset} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  BLAS and OpenMP run on one thread.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` the library's public
functions are wrapped, their spans are written to
``perfbench/out/<workload>-seed<N>.spans.jsonl`` and the per-layer
metrics are printed instead.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record (environment, seed, every timing), which is
also written to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
Exit code 0 when the workload ran, 2 when the library cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("predict", "train", "dataset"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha():
    """The checkout's HEAD commit, read from its ``.git`` directory; None
    when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [HERE, src]
    try:
        import intentmotion
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(intentmotion.__file__).startswith(src + os.sep):
        print(f"perfbench: imported {intentmotion.__file__}, not the "
              f"checkout's library under {src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    kwargs = {"out_dir": os.path.join(OUT, "episodes")} \
        if args.workload == "dataset" else {}
    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer,
                                             **kwargs)
    p50_ms = statistics.median(run.op_s) * 1e3 if run.op_s else float("nan")
    if tracer:
        tracer.write_jsonl(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                             ".spans.jsonl"))
        layers = spans.layer_metrics(spans.summarize(tracer.spans,
                                                     set(range(run.min_ops))))
        layers["trace.op_p50_ms"] = (p50_ms, "ms")
    else:
        layers = {
            "setup_s": (statistics.median(run.setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            "op_p50_ms": (p50_ms, "ms"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    attempted = len(run.op_s) + run.failed
    result = {"correct": not run.problems and attempted > run.failed,
              "attempted": attempted, "failed": run.failed, "metrics": metrics}
    record = dict(environment(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, min_ops=run.min_ops,
                  setup_s=run.setup_s, op_s=run.op_s,
                  quality={k: {"value": v, "unit": u}
                           for k, (v, u) in run.quality.items()},
                  notes=run.notes, problems=run.problems, **result)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for msg in run.problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop CLI benchmark of weakmeans.

    python3 perfbench/run.py --workload falsify --seed 1 --seconds 20 --trace 0

One client, one process, no extra threads: each op calls
``weakmeans.cli.main([...])`` in-process with the arguments a user would
type and captures its stdout.  The op count is fixed by the workload's
nominal rate times ``--seconds``, so a run does the same work in the same
order for a given seed however fast the host is.  The correctness gates run
on the saved outputs after the timed loop.  The last stdout line is the
result JSON; the line before it holds the run metadata.

``setup_s`` is the median over fresh processes, each timed by this one from
its start to the end of its warm-up op (see ``setup_probe``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each of
the first half of the ops untraced and then traced, and reports the
per-layer metrics (see tracing.py).  The library is imported from ``src`` of the checkout
that holds this file, and nothing is read or written outside it.
"""

from __future__ import annotations

import os
import sys

# One process and no extra threads: BLAS must not start a pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 4  # before the timed pass, and as many again after it


def host_ref_rate(seconds: float = 0.3) -> float:
    """Rate of a fixed NumPy + Python loop that does not touch the library.

    Diagnostic only: it tells a slow host from a slow change and never
    scales a metric."""
    import numpy as np

    a = np.random.default_rng(0).random(4096)
    n, t0 = 0, time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < seconds:
        s = 0.0
        for i in range(2000):
            s += i * 0.5
        np.sort(a)
        n += 1
    return n / elapsed


def setup_probe(workload, seed: int) -> int:
    """Body of one set-up probe process: import the library, make one op's
    inputs, run it untimed as the warm-up and collect garbage, then say
    ``ready``.  Everything a user's process pays before its first op is in
    it; the inputs of the other ops, which only the benchmark needs, are
    not."""
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=HERE))
    try:
        from weakmeans import cli

        [warm] = make_ops(workload, seed, 1, tmp)
        run_op(cli, warm)
        gc.collect()
        print("ready", flush=True)
    finally:
        shutil.rmtree(tmp)
    return 0


def setup_times(args) -> list[float]:
    """Start SETUP_PROBES fresh processes one after another and time each
    from its start to its ``ready`` line: interpreter start, imports
    (NumPy's too), one op's inputs and the warm-up op.  A run takes one
    batch before and one after its timed pass, so that its set-up median
    does not rest on a single stretch of the host's speed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def make_ops(workload, seed: int, count: int, tmp: Path):
    import numpy as np

    rng = np.random.default_rng([seed, 0x5EED])
    return [workload.make_op(rng, tmp, i) for i in range(count)]


def run_op(cli, op, tracer=None):
    outputs = []
    for argv in op.calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = tracer.call_root(cli.main, argv) if tracer else cli.main(argv)
        outputs.append((code, out.getvalue()))
    return outputs


def samples_used(outputs) -> int:
    total = 0
    for _, out in outputs:
        with contextlib.suppress(ValueError, TypeError, AttributeError):
            total += int(json.loads(out).get("samples_used", 0))
    return total


def timed_pass(cli, workload, ops, tracer=None):
    """Run every op in order and gate the saved outputs after the loop.

    With a tracer, each op runs untraced and then traced, so that a slow
    stretch of the host lands on both alike.  Returns the untraced and the
    traced op latencies, the outputs gated and how many failed."""
    gc.collect()
    latencies, traced, gated = [], [], []
    for op in ops:
        t0 = time.perf_counter()
        out = run_op(cli, op)
        latencies.append(time.perf_counter() - t0)
        gated.append((op, out))
        if tracer:
            tracer.install()
            try:
                t0 = time.perf_counter()
                out = run_op(cli, op, tracer)
                traced.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            tracer.end_op(samples_used(out))
            gated.append((op, out))
    failed = sum(not workload.gate(op, out) for op, out in gated)
    return latencies, traced, len(gated), failed


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def os_thread_count() -> str:
    """OS threads of this process, from /proc where it exists."""
    status = Path("/proc/self/status")
    if not status.exists():
        return "?"
    return next((line.split()[1] for line in status.read_text().splitlines()
                 if line.startswith("Threads:")), "?")


def metadata(args, workload, n_ops, latencies, failed, attempted, ref_before, ref_after,
             setups, own_setup):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    p90 = percentile(latencies, 90)
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": n_ops,
        "work_per_op": f"{workload.work_per_op} {workload.work_unit}",
        "latency_p50_samples": len(latencies),
        "latency_p90_samples_beyond": sum(v > p90 for v in latencies),
        "failed_frac": failed / attempted,
        "setup_probes_s": [round(t, 6) for t in setups],
        "own_setup_s": own_setup,  # this process, after the probes; not a metric
        "host_ref_rate_before": ref_before,
        "host_ref_rate_after": ref_after,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": os_thread_count(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "weakmeans" / "cli.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload, args.seed)
    n_ops = max(1, round(args.seconds * workload.nominal_ops_per_s))
    if args.trace:
        n_ops = max(1, n_ops // 2)
    setups = [] if args.trace else setup_times(args)

    # This process's own set-up: inputs and temp files for every op, then
    # one untimed warm-up op.
    t0 = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=HERE))
    try:
        from weakmeans import cli

        *ops, warm = make_ops(workload, args.seed, n_ops + 1, tmp)
        run_op(cli, warm)
        own_setup = time.perf_counter() - t0
        tracer = None
        if args.trace:
            from tracing import METRICS, Tracer

            tracer = Tracer()
        ref_before = host_ref_rate()
        latencies, traced, attempted, failed = timed_pass(cli, workload, ops, tracer)
        ref_after = host_ref_rate()
    finally:
        shutil.rmtree(tmp)
    if not args.trace:
        setups += setup_times(args)

    wall = sum(latencies)
    if tracer:
        values = tracer.metrics()
        values["host.ref_rate"] = (ref_before + ref_after) / 2
        values["trace.overhead_frac"] = sum(traced) / wall - 1
        units = METRICS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "work_per_s": len(ops) * workload.work_per_op / wall,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "work_per_s": "1/s", "latency_p50_ms": "ms",
                 "latency_p90_ms": "ms", "peak_rss_mb": "MB"}
    print(json.dumps({"meta": metadata(args, workload, len(ops), latencies, failed, attempted,
                                       ref_before, ref_after, setups, own_setup)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

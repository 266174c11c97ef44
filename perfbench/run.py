"""uwbsim benchmark: one workload per call, closed loop, one client.

Run from the root of a uwbsim checkout:

    python3 perfbench/run.py --workload uncoded-sweep --seed 3 --seconds 35 --trace 0

The run builds nothing: it imports ``uwbsim`` from ``src/`` of the checkout.
Each operation is one ``harness.run_testcaseN(cfg, out_dir)`` call (see
workloads.py), made one at a time from this process until ``--seconds`` have
passed and at least MIN_OPS operations have completed.  An untimed warm-up
operation on the default seed comes first; its CSV digests must match
digests.json, which holds the determinism contract (same config and seed,
byte-identical CSVs).  Every operation's CSVs are checked; an operation that
raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, and prints
the wall-clock throughput and operation times, the reference kernel's median
time and the failed fraction beside them.  The gated timings are in
reference seconds (see hostspeed.py): each operation's wall time is rescaled
by the speed of a fixed kernel timed right before and after it, so that the
drift of a shared host's speed between runs largely cancels.  ``--trace 1``
alternates untraced and traced runs of the same operation and reports the
per-layer metrics (layers.py) and the tracing overhead.  The last line of
standard output is the JSON result; the lines before it repeat the metrics
with units, the failed fraction, the tail percentile and the environment.
Details and spans go to perfbench/out/.
"""

import os

# pinned before numpy is imported here or in a set-up probe
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# the tail percentile needs at least ten operations beyond it
MIN_OPS = 11
MIN_TRACE_PAIRS = 3
SETUP_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_uwbsim():
    """Import uwbsim from this checkout's src/, and nothing else."""
    if not (SRC / "uwbsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no uwbsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import uwbsim
    if not Path(uwbsim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: uwbsim imported from {uwbsim.__file__}, not {SRC}")


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until it has imported uwbsim
    and built the default LDPC code (one set-up probe)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "setup_probe.py")],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or not line.strip():
            raise RuntimeError("set-up probe failed")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in sorted((SRC / "uwbsim").glob("*.py")):
        with open(path) as f:
            src_lines += sum(1 for _ in f)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in
                     ("name", "version", "openblas configuration")},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads_pinned": {v: os.environ[v] for v in THREAD_VARS},
            "git_sha": git_sha(), "src_uwbsim_lines": src_lines}


class Runner:
    """Runs and checks operations of one workload, counting failures."""

    def __init__(self, workload: str, tracer=None):
        import workloads
        self.wl = workloads
        self.workload = workload
        self.tracer = tracer
        self.out_dir = str(OUT / f"{workload}-csv")
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, seed: int, traced_op=None, digests=None):
        """One operation; returns (wall seconds, payload bits) or None."""
        wl = self.wl
        self.attempted += 1
        try:
            cfg = wl.make_config(self.workload, seed)
            wl.clear_dir(self.out_dir)
            t0 = time.perf_counter()
            if traced_op is None:
                wl.run_operation(cfg, self.out_dir)
            else:
                with self.tracer.operation(traced_op):
                    wl.run_operation(cfg, self.out_dir)
            wall = time.perf_counter() - t0
            exp = wl.expected(cfg)
            problems = wl.check_outputs(exp, self.out_dir)
            if digests is not None and wl.csv_digests(self.out_dir) != digests:
                problems.append("CSV digests differ from digests.json")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = [f"seed {seed}: operation raised"]
        if problems:
            self.failed += 1
            self.problems += problems
            print(f"perfbench: FAILED seed {seed}: {problems[:5]}", file=sys.stderr)
            return None
        return wall, exp.payload_bits

    def warm_up(self, traced_op=None):
        """Untimed operation on the default seed, checked against the
        recorded CSV digests."""
        wl = self.wl
        with open(BENCH_DIR / "digests.json") as f:
            digests = json.load(f)[self.workload]
        self.run(wl.op_seed(wl.DEFAULT_SEED, 0), traced_op, digests)


def tail(times):
    """Highest percentile with at least ten operations beyond it."""
    s = sorted(times)
    k = len(s) - MIN_OPS
    return s[k], 100.0 * (k + 1) / len(s)


def run_e2e(args, runner):
    from hostspeed import REF_S, Reference
    setup = statistics.median(measure_setup() for _ in range(SETUP_PROBES))
    runner.warm_up()
    times, ref_times, bits = [], [], 0
    with Reference() as ref:
        start = time.perf_counter()
        before = ref.time()
        i = 0
        while time.perf_counter() - start < args.seconds or len(times) < MIN_OPS:
            res = runner.run(runner.wl.op_seed(args.seed, i))
            after = ref.time()
            i += 1
            if res is not None:
                times.append(res[0])
                ref_times.append(res[0] * REF_S / ((before + after) / 2))
                bits += res[1]
            elif runner.failed > MIN_OPS:
                break
            before = after
    if len(times) < MIN_OPS:
        sys.exit("perfbench: too many failed operations")
    tail_ref_s, pct = tail(ref_times)
    metrics = {
        "bits_per_ref_s": (bits / sum(ref_times), "bit/ref_s"),
        "op_ref_s_tail": (tail_ref_s, "ref_s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    # printed but not in BENCHMARK.json: failed_frac is 0 when all is well;
    # wall-clock times drift with the shared host's speed (IQR/median of ten
    # runs' bits_per_s reached 0.24, of op_s_p50 0.34); and coded-waterfall's
    # operation times are bimodal, so the median of its ~20 jumps between
    # the modes (IQR/median of op_ref_s_p50 0.03-0.12)
    info = {"bits_per_s": (bits / sum(times), "bit/s"),
            "op_ref_s_p50": (statistics.median(ref_times), "ref_s"),
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_tail": (tail(times)[0], "s"),
            "reference_s_p50": (statistics.median(ref.seconds), "s"),
            "failed_frac": (runner.failed / runner.attempted, "ratio"),
            "op_s_tail_percentile": pct, "operations": len(times),
            "op_s": times, "reference_s": ref.seconds}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def run_trace(args, runner):
    from uwbsim import ldpc
    t0 = time.perf_counter()
    ldpc.default_code()
    default_code_s = time.perf_counter() - t0
    tracer = runner.tracer
    count_op = -1
    runner.warm_up(traced_op=count_op)
    missing = tracer.missing_spans(
        count_op, runner.wl.WORKLOADS[args.workload].spans)
    if missing:
        runner.problems.append(f"spans with no calls: {missing}")
    ratios, timed_ops = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or len(ratios) < MIN_TRACE_PAIRS:
        seed = runner.wl.op_seed(args.seed, i)
        # alternate which side runs first, so neither gets the warmer caches
        if i % 2 == 0:
            plain = runner.run(seed)
            traced = runner.run(seed, traced_op=i)
        else:
            traced = runner.run(seed, traced_op=i)
            plain = runner.run(seed)
        if plain is not None and traced is not None:
            ratios.append(traced[0] / plain[0])
            timed_ops.append(i)
        elif runner.failed > MIN_OPS:
            break
        i += 1
    if not timed_ops:
        sys.exit("perfbench: too many failed operations")
    overhead = statistics.median(ratios) - 1.0
    metrics = tracer.metrics(count_op, timed_ops, default_code_s, overhead)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}-spans.jsonl")
    info = {"failed_frac": (runner.failed / runner.attempted, "ratio"),
            "trace_pairs": len(timed_ops), "missing_spans": missing,
            "self_share": {k: round(v, 4)
                           for k, v in tracer.shares(timed_ops).items()}}
    return metrics, info


def main(argv=None):
    args = parse_args(argv)
    # one CPU, inherited by every child: the reference kernel (hostspeed.py)
    # must time the core the operations run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_uwbsim()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.trace:
        from layers import Tracer
        runner = Runner(args.workload, Tracer())
        metrics, info = run_trace(args, runner)
        declared = [m["name"] for m in spec["per_layer"]]
    else:
        runner = Runner(args.workload)
        metrics, info = run_e2e(args, runner)
        declared = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(declared):
        sys.exit(f"perfbench: metrics {sorted(metrics)} do not match "
                 f"BENCHMARK.json {sorted(declared)}")
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": runner.attempted, "failed": runner.failed,
              "problems": runner.problems, "metrics": metrics, "info": info,
              "environment": environment()}
    OUT.mkdir(exist_ok=True)
    detail_path = OUT / f"{args.workload}-{'trace' if args.trace else 'e2e'}.json"
    with open(detail_path, "w") as f:
        json.dump(detail, f, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{runner.attempted} operations, {runner.failed} failed")
    rows = {k: (m["value"], m["unit"]) for k, m in metrics.items()}
    rows.update((k, v) for k, v in info.items() if isinstance(v, tuple))
    for name, (value, unit) in rows.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for key, value in info.items():
        if key not in rows and key not in ("op_s", "reference_s"):
            print(f"  {key}: {json.dumps(value)}")
    print(f"  environment: {json.dumps(detail['environment'])}")
    print(f"  details: {detail_path.relative_to(ROOT)}")
    correct = runner.failed == 0 and not runner.problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

"""critex benchmark: one workload per run, timed end to end or traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_column --seed 1 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One process, serial, BLAS pinned to one thread: set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "op_max_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_critex():
    if not os.path.isfile(os.path.join(SRC, "critex", "cli.py")):
        _fail(f"no critex sources under {SRC}; run from the root of a checkout", 2)
    sys.path.insert(0, SRC)
    import critex
    import critex.cli

    if os.path.dirname(os.path.abspath(critex.__file__)) != os.path.join(SRC, "critex"):
        _fail(f"imported critex from {critex.__file__}, not from {SRC}", 2)
    return critex


def _source_hash():
    """Identifies the program under test, so saved records match only it."""
    hsh = hashlib.sha256()
    pkg = os.path.join(SRC, "critex")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                hsh.update(name.encode() + b"\0" + fh.read())
    return hsh.hexdigest()[:16]


def machine_record(critex):
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, index, key)) as fh:
                    fields[key] = fh.read().strip()
            if fields["type"] != "Instruction":
                caches[f"L{fields['level']}"] = fields["size"]
    except OSError:
        pass

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches_per_instance": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "critex": critex.__version__,
        "kernels_backend": critex.kernels.backend_name(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": bool(critex.kernels.NUMBA_ENABLED),
    }


def measure_setup(args):
    """Median seconds from a fresh interpreter start until inputs are ready."""
    times = []
    for k in range(SETUP_REPEATS):
        out = os.path.join(WORK, f"setup-{os.getpid()}-{k}")
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--generate", out],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            _fail(f"set-up process failed: {proc.stderr.strip()}", 1)
        times.append(float(proc.stdout.split()[-1]) - t0)
        shutil.rmtree(out, ignore_errors=True)
    return statistics.median(times)


def run_pass(cli_mod, ops, inputs, out_root):
    """Run every operation once: per-op seconds, problems, facts and digests."""
    seconds, problems, facts, digests = [], {}, {}, {}
    for op, ini in zip(ops, inputs):
        out_dir = os.path.join(out_root, op.name)
        shutil.rmtree(out_dir, ignore_errors=True)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli_mod.main(op.argv(ini, out_dir))
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            rc = f"raised {exc!r}"
        seconds.append(time.perf_counter() - t0)
        probs, fct = workloads.check(op, rc, buf.getvalue(), out_dir)
        problems[op.name], facts[op.name] = probs, fct
        digests[op.name] = workloads.csv_digest(out_dir) if os.path.isdir(out_dir) else ""
    return seconds, problems, facts, digests


def _saved(kind, args, record):
    """Compare with the record saved by an earlier run of this seed, or save it.

    Returns the names whose values differ from the saved record.
    """
    path = os.path.join(WORK, "records",
                        f"{args.workload}-seed{args.seed}-{_source_hash()}-{kind}.json")
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
        return sorted(k for k in set(old) | set(record) if old.get(k) != record.get(k))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return []


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    critex = _import_critex()
    ops = workloads.generate(args.workload, args.seed)
    if args.generate:  # set-up probe: inputs ready, report the time
        workloads.write_inputs(ops, args.generate)
        print(repr(time.monotonic()))
        return 0

    run_dir = os.path.join(WORK, f"run-{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        return measure(args, critex, ops, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, critex, ops, run_dir):
    inputs = workloads.write_inputs(ops, os.path.join(run_dir, "inputs"))
    outputs = os.path.join(run_dir, "out")
    setup_s = None if args.trace else measure_setup(args)
    machine = machine_record(critex)

    # Untraced passes for --seconds: a new pass starts only if it is expected
    # to end in time.  The first pass runs in a cold process (allocator, FFT
    # plans); when there are more, the timings come from the warm ones.
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(critex.cli, ops, inputs, outputs))
        if len(passes) == 1:
            check_property(args, passes[0])
        timed = passes[1:] or passes
        per_pass = statistics.median(sum(p[0]) for p in timed)
        if time.perf_counter() - t_start + per_pass > args.seconds:
            break
    wall_s = statistics.median(sum(p[0]) for p in timed)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes.append(run_pass(critex.cli, ops, inputs, outputs))
        finally:
            tracer.remove()

    attempted = sum(len(p[0]) for p in passes)
    failures = [f"pass {i}: {op}: {msg}" for i, p in enumerate(passes)
                for op, probs in p[1].items() for msg in probs]
    failed = sum(1 for p in passes for probs in p[1].values() if probs)
    drift = [f"pass {i}: {op} CSVs differ from pass 0" for i, p in enumerate(passes[1:], 1)
             for op in p[3] if p[3][op] != passes[0][3][op]]
    drift += [f"{op} CSVs differ from an earlier run of this seed"
              for op in _saved("csv", args, passes[0][3])]

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": len(passes), "machine": machine}, sort_keys=True))
    if tracer is None:
        metrics = {
            "wall_s": wall_s,
            "op_max_s": statistics.median(max(p[0]) for p in timed),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        metrics, units, problems = traced_metrics(args, tracer, wall_s)
        drift += problems
    print(f"{'failed_frac':32s} {failed / attempted:>16.6f} ratio "
          f"({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6f} {units[name]}")
    for msg in failures + drift:
        print(f"perfbench: {msg}", file=sys.stderr)
    correct = not failures and not drift
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def check_property(args, first_pass):
    """Stop loudly if this seed's inputs lack the workload's defining property."""
    _, problems, facts, _ = first_pass
    if any(problems.values()):
        return  # failed operations are reported with the result
    missing = workloads.property_problems(args.workload, facts)
    if missing:
        _fail(f"seed {args.seed} lacks the {args.workload} property: " + "; ".join(missing), 3)


def traced_metrics(args, tracer, untraced_wall):
    """Per-layer metrics, their units, and any problem the trace reveals."""
    import tracing

    metrics = tracing.metrics(tracer, untraced_wall)
    units = {k: u for k, (u, _) in tracing.METRICS.items()}
    counters = {k: metrics[k] for k in tracing.COUNTERS}
    print(json.dumps({"counters": counters}, sort_keys=True))
    problems = [f"counter {k} differs from an earlier run of this seed"
                for k in _saved("counters", args, counters)]
    jobs = tracing.sweep_jobs(tracer)
    problems += [f"sweep job {job} reported {reason!r}"
                 for job, reason, _ in jobs if reason.startswith("error:")]
    if args.workload == "sweep_column":
        escalated = [job for job, _, runs in jobs if runs > 1]
        if len(escalated) != 1:
            problems.append(f"expected exactly one escalating sweep job, got {escalated}")
    gap = abs(metrics["trace.self_sum_s"] - metrics["trace.wall_s"])
    if gap > 1e-6 * max(1.0, metrics["trace.wall_s"]):
        problems.append(f"layer self times miss the traced wall time by {gap:.3g} s")
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
    return metrics, units, problems


if __name__ == "__main__":
    sys.exit(main())

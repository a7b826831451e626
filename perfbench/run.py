"""forceplan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-bottle --seed 0 --seconds 30 --trace 0

Runs the workload's ``forceplan`` command through ``cli.main`` in this
process, closed loop (one command at a time), until starting another
would overrun ``--seconds``; always at least once.  Every output is
checked (see workloads.py), outside the timed region.  The last line of
stdout is the JSON result: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  A record of each run, with the
environment, is written under perfbench/out/.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from process start

import os  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
# Numerical libraries read these at import: never more threads than cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    try:
        _n = int(os.environ.get(_var, "1"))
    except ValueError:
        _n = 1
    os.environ[_var] = str(max(1, min(_n, NPROC)))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 2  # extra cold starts per run; with the run's own, 3 samples


def _import_forceplan():
    src = ROOT / "src"
    if not (src / "forceplan" / "cli.py").is_file() or not (ROOT / "scenarios").is_dir():
        sys.exit(f"error: no forceplan source under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import forceplan.cli

    if Path(forceplan.cli.__file__).resolve().parent != (src / "forceplan").resolve():
        sys.exit(f"error: imported forceplan from {forceplan.cli.__file__}, not {src}")
    return forceplan.cli


def setup_probe(workload, seed):
    """Print the seconds from process start to the first planning or
    estimation call, and end the process there."""
    cli = _import_forceplan()

    def ready(*args, **kwargs):
        print(repr(time.perf_counter() - _T0), flush=True)
        os._exit(0)

    cli.solve = cli._bottle_rows = ready
    cli.main(workload.argv(ROOT, seed, OUT / "probe.out"))
    sys.exit("command finished without planning or estimating")


def cold_setups(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload.name, "--seed", str(seed),
             "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def fingerprint():
    import numpy
    import scipy

    h = hashlib.sha256(f"{sys.version}|{numpy.__version__}|{scipy.__version__}".encode())
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scenarios").glob("*"),
               *(ROOT / "perfbench").glob("*.py")]
    for path in sorted(sources):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(load_start):
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity": NPROC,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Op:
    """One command: its timings, checked output units and spans."""

    def __init__(self, cli, workload, seed, index, layers):
        from forceplan.planner import validate_plan

        self.tracer = spans.Tracer(layers)
        out_path = OUT / f"{workload.name}-seed{seed}-op{index}{workload.suffix}"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.unlink(missing_ok=True)  # `solve` writes no file when it finds no plan
        stdout = io.StringIO()
        with self.tracer as tr:
            self.root = tr.open(spans.COMMAND)
            with contextlib.redirect_stdout(stdout):
                code = cli.main(workload.argv(ROOT, seed, out_path))
            tr.close(self.root)
            # Checks run from here on, outside every timed span.
            solves = [(s[4]["problem"], s[4]["result"]) for s in tr.under(self.root, spans.SOLVE)]
            self.validate_root = tr.open(spans.VALIDATE)
            verdicts = [
                validate_plan(problem, result.plan, result.cost) if result.solved else (False, None)
                for problem, result in solves
            ]
            tr.close(self.validate_root)
        if code not in (0, 2):  # 2: some stage has no plan, a failed unit below
            raise RuntimeError(f"forceplan exited {code}:\n{stdout.getvalue()}")
        command = tr.spans[self.root]
        self.run_s = command[2] - command[1]
        self.first_call = min(
            (s[1] for s in tr.spans if s[0] in (spans.SOLVE, spans.SWEEP)), default=None
        )
        compute = spans.SWEEP if workload.points else spans.SOLVE
        self.compute_s = [s[2] - s[1] for s in tr.under(self.root, compute)]
        estimates = tr.under(self.root, spans.ESTIMATE)
        self.samples = sum(s[4]["samples"] for s in estimates)
        self.estimate_s = sum(s[2] - s[1] for s in estimates)

        text = out_path.read_text(encoding="utf-8") if out_path.exists() else None
        if workload.points:
            calls = [s[4]["call"] for s in estimates if "call" in s[4]]
            self.units = workloads.sweep_units(workload, text, calls, seed)
        else:
            self.units = workloads.stage_units(workload, text, solves, verdicts, seed)
        for s in tr.spans:  # drop captured problems and chains
            if s[4]:
                s[4].pop("problem", None)
                s[4].pop("call", None)
        self.missing = max(0, workload.units_per_op - len(self.units))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload, args.seed)

    load_start = list(os.getloadavg())
    cli = _import_forceplan()
    ops = []
    if args.trace:
        with spans.Tracer(layers=True):
            pass  # a missing hook target fails here, before any command runs
        # One plain command, then the same command with every layer hooked:
        # their outputs must match byte for byte, and their ratio is the
        # tracing overhead.
        ops = [Op(cli, workload, args.seed, i, layers=bool(i)) for i in (0, 1)]
    else:
        while True:
            ops.append(Op(cli, workload, args.seed, len(ops), layers=False))
            gc.collect()
            spent = sum(op.run_s for op in ops)
            median = statistics.median(op.run_s for op in ops)
            if spent + median > args.seconds:
                break

    store = workloads.DigestStore(OUT / "digests.json", f"{workload.name}|{args.seed}|{fingerprint()}")
    for op in ops:
        store.check(op.units)
    store.save()
    units = [u for op in ops for u in op.units]
    failures = [f"{u.name}: {msg}" for u in units for msg in u.failures]
    missing = sum(op.missing for op in ops)
    failed = sum(1 for u in units if u.failures) + missing
    attempted = len(units) + missing

    setups = None
    if args.trace:
        traced = ops[1]
        metrics = spans.per_layer(traced.tracer, traced.root, traced.validate_root, ops[0].run_s)
        traced.tracer.write(OUT / f"{workload.name}-seed{args.seed}.spans.jsonl.gz")
    else:
        setups = [ops[0].first_call - _T0] + cold_setups(workload, args.seed)
        compute = [c for op in ops for c in op.compute_s]
        samples = sum(op.samples for op in ops)
        estimate_s = sum(op.estimate_s for op in ops)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (statistics.median(compute), "s"),
            "run_s": (statistics.median(op.run_s for op in ops), "s"),
            # 0 only when nothing was estimated, which fails a check too.
            "mc_samples_per_s": (samples / estimate_s if estimate_s else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(load_start),
        "commands": len(ops),
        "setup_s": setups,
        "run_s": [op.run_s for op in ops],
        "compute_s": [op.compute_s for op in ops],
        "failed_ratio": failed / attempted,
        "failures": failures,
        "result": result,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for line in failures:
        print(f"FAILED {line}")
    print(f"environment {json.dumps(record['environment'])}")
    print(f"{workload.name}: {len(ops)} command(s), failed_ratio {failed}/{attempted}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

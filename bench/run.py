"""Benchmark of the nonclassicality package: one command, two workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The package is imported from ``src/`` of
the same checkout. One client runs ops in a closed loop, each op starting
when the previous one returned, and repeats whole passes over the
workload's inputs while the next pass, as long as the last one, still ends
within ``--seconds`` (at least one pass). Outputs are checked after the
timed section. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, with times scaled
to a reference machine speed (see ``Reference``). With ``--trace 1`` the
run does one untraced pass, then one pass with layer wrappers installed
(plus the workload's untimed and trace-only ops), writes the spans to
``bench/out/trace-<workload>-seed<n>.jsonl`` and reports per-layer self
times and counts. See bench/README.md.
"""

import os
import sys

# BLAS runs on one thread; the sweep's thread pool keeps its default size.
# Both must be settled before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("NONCLASSICALITY_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
# Median time of one Reference.measure() on the machine the benchmark was
# tuned on (2 vCPUs of a shared host); sets the scale of "reference seconds".
REFERENCE_S = 0.042
WORKLOADS = ("dv", "optomech")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "ops_per_s": "1/s",
    "ree_width_max_bits": "bits",
    "ree_width_p50_bits": "bits",
    "ree_unconverged_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="orders the ops of a pass")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="minimum length of the timed section")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--held-out", action="store_true",
                   help="use the held-out input pools, for confirming a claim")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and budgets, for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up (used to time set-up in a fresh process)")
    return p.parse_args(argv)


class Reference:
    """Fixed work, timed between ops, that no change to the package touches.

    The host's CPU speed drifts by 10-30% over minutes, longer than a run,
    so runs made minutes apart disagree by more than any bound a timing
    may have. Every timed run measures this work before each op and each
    set-up sample, and scales its times by ``REFERENCE_S`` over the run's
    median reference time: the time metrics are in seconds on a machine
    running at the reference speed. The work mixes what the ops spend
    their time on: small complex eigensolves and products, interpreted
    Python with dicts and floats, and a mid-sized LAPACK call.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        small = rng.standard_normal((40, 8, 8)) + 1j * rng.standard_normal((40, 8, 8))
        self._small = list(small + small.conj().transpose(0, 2, 1))
        big = rng.standard_normal((160, 160))
        self._big = big + big.T
        self._np = np
        self.samples: list[float] = []

    def measure(self) -> None:
        np = self._np
        t0 = time.perf_counter()
        for _ in range(6):
            for m in self._small:
                w, v = np.linalg.eigh(m)
                np.trace(((v * np.log(np.abs(w) + 1)) @ v.conj().T) @ m)
        table, acc = {}, 0.0
        for i in range(60000):
            k = i % 1013
            table[k] = table.get(k, 0.0) + i * 0.5
            acc += table[k] * 1e-9
        for _ in range(4):
            np.linalg.eigh(self._big)
        self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        """How many times slower than the reference speed this run went."""
        return statistics.median(self.samples) / REFERENCE_S


def run_passes(ops, seconds, tracer=None, reference=None):
    """Closed loop over whole passes; returns (records, busy seconds).

    A record is (op, output, seconds, error). Failed calls are recorded
    with their traceback and no time. Busy seconds are the time spent in
    ops, failed ones included, and leave out the reference work.
    """
    records = []
    busy = 0.0
    start = time.perf_counter()
    passes, last_pass = 0, 0.0
    while passes == 0 or time.perf_counter() - start + last_pass <= seconds:
        pass_start = time.perf_counter()
        for op in ops:
            if reference is not None:
                reference.measure()
            span = None
            if tracer is not None:
                tracer.op_id = 0 if tracer.op_id is None else tracer.op_id + 1
                span = tracer.open("bench.op")
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                records.append((op, None, None, traceback.format_exc()))
                continue
            finally:
                busy += time.perf_counter() - t0
                if span is not None:
                    tracer.close(span, label=op.label)
            records.append((op, out, time.perf_counter() - t0, None))
        last_pass = time.perf_counter() - pass_start
        passes += 1
    return records, busy


def check_records(records):
    """Check each output; returns the records whose op passed."""
    passed = []
    for op, out, secs, err in records:
        if err is None:
            try:
                err = op.check(out)
            except Exception:
                err = traceback.format_exc()
        if err is None:
            passed.append((op, out, secs))
        else:
            print(f"FAILED {op.label}: {err}", file=sys.stderr)
    return passed


def bracket_quality(brackets):
    widths = [r.value - r.lower_bound for r in brackets]
    return {
        "ree_width_max_bits": max(widths),
        "ree_width_p50_bits": statistics.median(widths),
        "ree_unconverged_frac": sum(not r.converged for r in brackets) / len(brackets),
    }


def measure_setup(args, reference):
    """Median wall time of fresh processes that set up and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    cmd += ["--held-out"] * args.held_out + ["--smoke"] * args.smoke
    samples = []
    for _ in range(SETUP_SAMPLES):
        reference.measure()
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_untraced(wl, args):
    reference = Reference()
    records, busy = run_passes(wl.ops, args.seconds, reference=reference)
    untimed, _ = run_passes(wl.untimed, 0)
    passed = check_records(records)
    failed = len(records) + len(untimed) - len(passed) - len(check_records(untimed))
    correct = failed == 0
    first_pass = records[:len(wl.ops)]
    brackets = [r for op, out, _, err in first_pass if err is None
                for r in op.brackets(out)]
    brackets += wl.quality_set()
    if any(not r.lower_bound <= r.value for r in brackets):
        print("FAILED quality set: inverted bracket", file=sys.stderr)
        correct = False

    raw = {"setup_s": measure_setup(args, reference)}
    if passed:
        raw["op_s"] = statistics.median(secs for _, _, secs in passed)
        raw["ops_per_s"] = len(passed) / busy
    slowdown = reference.slowdown()
    print("wall " + json.dumps(dict(raw, reference_slowdown=slowdown), sort_keys=True))
    metrics = {name: val * slowdown if name == "ops_per_s" else val / slowdown
               for name, val in raw.items()}
    if brackets:
        metrics.update(bracket_quality(brackets))
    correct = correct and len(metrics) == len(END_TO_END_UNITS)
    return correct, len(records) + len(untimed), failed, metrics, END_TO_END_UNITS


def run_traced(wl, args):
    from spans import LAYER_UNITS, Tracer, aggregate, write_jsonl

    base, _ = run_passes(wl.ops, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = run_passes(wl.ops, 0, tracer)
        untimed, _ = run_passes(wl.untimed + wl.trace_only, 0, tracer)
    finally:
        tracer.remove()
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    spans = tracer.records()
    write_jsonl(path, spans)
    print(f"trace: {len(spans)} spans -> {path.relative_to(ROOT)}")

    passed_base = check_records(base)
    passed_traced = check_records(traced)
    attempted = len(base) + len(traced) + len(untimed)
    failed = attempted - len(passed_base) - len(passed_traced) - len(check_records(untimed))
    metrics = aggregate(spans)
    if passed_base and passed_traced:
        metrics["trace_overhead_frac"] = (
            statistics.median(s for _, _, s in passed_traced)
            / statistics.median(s for _, _, s in passed_base) - 1
        )
    units = dict(LAYER_UNITS, trace_overhead_frac="ratio")
    return failed == 0 and len(metrics) == len(units), attempted, failed, metrics, units


def environment(args):
    import numpy
    import scipy

    from nonclassicality import gaussian

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    worker_count = getattr(gaussian, "_worker_count", None)
    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "sweep_pool_size": worker_count() if worker_count else None,
        "workload": args.workload,
        "seed": args.seed,
        "held_out_pools": args.held_out,
        "smoke": args.smoke,
    }


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest():
    """Content hash of the package source: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "nonclassicality").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nonclassicality" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'nonclassicality'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.build(args.workload, args.seed, args.held_out, args.smoke)
    workloads.warm_up(args.workload)
    if args.setup_only:
        return 0

    print("env " + json.dumps(environment(args), sort_keys=True))
    runner = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics, units = runner(wl, args)
    for name, unit in units.items():
        print(f"{name:34s} {metrics.get(name)!s:>24} {unit}")
    print(f"verdict {'PASS' if correct else 'FAIL'}: {attempted - failed}/{attempted} ops "
          "passed their checks")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

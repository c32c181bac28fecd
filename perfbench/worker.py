"""One workload in one fresh, single-threaded process.

Started by run.py with the package's `src` directory on PYTHONPATH. Runs a
cold first pass, then for `--seconds` warm passes and, between them, the cold
starts of the CLI that give `setup_s` (at least one warm pass; the cold
starts are left out when traced), then the untimed oracle checks, and prints
one JSON object as its last line. With `--trace 1` the warm passes alternate
between untraced and traced, and the per-layer metrics come from the traced
ones.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter, process_time

import workloads
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REF_ITERS = 100_000  # the reference loop: about 20-30 ms of CPU
REF_WINDOW = 3  # reference loops on each side of a job that scale its time
SETUP_ARGS = ["setup", "--p", "7", "--q", "2", "--json"]
SETUP_RUNS = 7
SETUP_LIMIT = 60  # s for one cold start
# interpreter start until the setup command has printed its JSON
CLI_CMD = "import sys; from eigenvanish.cli import main; sys.exit(main(sys.argv[1:]))"


def load_api():
    """The public entry points the benchmark calls, as a namespace it may wrap."""
    import eigenvanish

    src = ROOT / "src"
    if src not in Path(eigenvanish.__file__).resolve().parents:
        raise SystemExit(f"eigenvanish imported from {eigenvanish.__file__}, not {src}")
    return types.SimpleNamespace(**{name: getattr(eigenvanish, name) for name in workloads.API_NAMES})


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


class PassResult:
    def __init__(self):
        self.seconds = 0.0  # wall time of the jobs
        self.times: dict[str, float] = {}  # job -> CPU time
        self.refs: dict[str, float] = {}  # job -> CPU time of the reference loop before it
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict[str, dict] = {}


def reference_loop() -> int:
    """A fixed pure-Python computation, the yardstick for the host's speed.

    It depends on nothing in the library, so no change to the library moves
    its time; only the machine does.
    """
    x = 1
    for i in range(REF_ITERS):
        x = (x * 1103515245 + i) % 2147483647
    return x


def run_pass(jobs, api, checker, tracer=None) -> PassResult:
    """Run every job once, closed loop; time the jobs, not the checks.

    Each job is timed in CPU time of this (single-threaded) process, which
    leaves out the time the host of a shared VM gives its other guests; that
    moves the wall time of one job up to threefold. The reference loop runs,
    timed the same way, just before each job.
    """
    res = PassResult()
    for job in jobs:
        res.attempted += 1
        cpu = process_time()
        reference_loop()
        res.refs[job.key] = process_time() - cpu
        if tracer is not None:
            tracer.job = job.key
        wall, cpu = perf_counter(), process_time()
        try:
            out = job.run(api)
        except Exception as exc:  # a raising job is a failed job, not a crash
            out = None
            res.failed += 1
            res.problems.append(f"{job.key}: raised {type(exc).__name__}: {exc}")
        res.times[job.key] = process_time() - cpu
        res.seconds += perf_counter() - wall
        if out is None:
            continue
        problems = checker.check(job, out)
        if problems:
            res.failed += 1
            res.problems.append(f"{job.key}: {'; '.join(problems)}")
        res.outputs[job.key] = out
    return res


def least_pass(passes: list[PassResult]) -> float:
    """Sum over jobs of each job's least CPU time over the passes."""
    return sum(min(r.times[key] for r in passes) for key in passes[0].times)


def pass_ref(passes: list[PassResult]) -> float:
    """One pass's cost in reference loops: the sum over jobs of the median
    over the passes of the job's CPU time divided by the median CPU time of
    the reference loops run next to it (REF_WINDOW on each side, in run
    order).

    The host's speed drifts, in CPU time too, by up to a half from one spell
    of seconds to minutes to the next; library code and the reference loop
    slow down together, so their ratio holds where the seconds do not.
    """
    order = [(i, key) for i, r in enumerate(passes) for key in r.times]
    refs = [passes[i].refs[key] for i, key in order]
    ratio: dict[str, list] = {}
    for n, (i, key) in enumerate(order):
        near = statistics.median(refs[max(0, n - REF_WINDOW):n + REF_WINDOW + 1])
        ratio.setdefault(key, []).append(passes[i].times[key] / near)
    return sum(statistics.median(v) for v in ratio.values())


def children_cpu_s() -> float:
    """User plus system CPU time of the children waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_start(expect: str) -> tuple[float, float, bool]:
    """One CLI run in a fresh interpreter: (its CPU time, wall time, output
    as pinned). The environment is this process's, so the same sources."""
    cpu, wall = children_cpu_s(), perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CMD, *SETUP_ARGS], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=SETUP_LIMIT,
    )
    ok = proc.returncode == 0 and proc.stdout == expect
    return children_cpu_s() - cpu, perf_counter() - wall, ok


def machine_stamp(seed: int) -> dict:
    import importlib.util
    import os
    import platform

    import numpy
    import sympy

    try:
        from eigenvanish._scan import default_backend

        backend = default_backend()
    except ImportError:
        backend = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "scan_backend": backend,
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, pins: dict) -> dict:
    api = load_api()
    jobs = workloads.build_jobs(workload, seed)
    checker = workloads.Checker(pins, seed)
    first = run_pass(jobs, api, checker)
    passes = [first]
    warm: list[PassResult] = []
    traced: list[PassResult] = []
    starts: list[tuple[float, float, bool]] = []
    tracer = Tracer() if trace else None
    window = perf_counter()
    while True:
        elapsed = perf_counter() - window
        if not trace:
            # spread the cold starts over the window, not bunched at one end
            due = min(SETUP_RUNS, math.ceil(SETUP_RUNS * elapsed / seconds))
            while len(starts) < due:
                starts.append(cold_start(pins["invariant"]["cli:setup"]))
        if elapsed >= seconds and warm and (traced or not trace):
            break
        if trace and len(traced) < len(warm):
            tracer.install(api)
            try:
                traced.append(run_pass(jobs, api, checker, tracer))
            finally:
                tracer.uninstall()
            passes.append(traced[-1])
        else:
            warm.append(run_pass(jobs, api, checker))
            passes.append(warm[-1])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    oracles = workloads.oracle_checks(workload, seed, api, first.outputs)
    problems = [p for r in passes for p in r.problems]
    problems += [f"oracle {name}: {'; '.join(probs)}" for name, probs in oracles if probs]
    bad_starts = sum(1 for *_, ok in starts if not ok)
    if bad_starts:
        problems.append(f"cli setup: {bad_starts} of {len(starts)} cold starts wrong")
    result = {
        "attempted": sum(r.attempted for r in passes) + len(oracles) + len(starts),
        "failed": (sum(r.failed for r in passes) + sum(1 for _, probs in oracles if probs)
                   + bad_starts),
        "problems": problems,
        "pass_ref": pass_ref(warm),
        # the cold pass is a sample too: its one-off costs can only lose the min
        "pass_cpu_s": least_pass([first, *warm]),
        "first_pass_cpu_s": sum(first.times.values()),
        "wall_s": statistics.median(r.seconds for r in warm),
        "first_pass_s": first.seconds,
        "warm_passes": len(warm),
        "peak_rss_mb": peak_rss_mb,
        "stamp": machine_stamp(seed),
    }
    if starts:
        result["setup_s"] = statistics.median(cpu for cpu, _, _ in starts)
        result["setup_wall_s"] = statistics.median(wall for _, wall, _ in starts)
    if trace:
        metrics, missing = layer_metrics(tracer, len(traced))
        overhead = pass_ref(traced) / pass_ref(warm) - 1
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["missing"] = missing
        result["traced_passes"] = len(traced)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), load_pins())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

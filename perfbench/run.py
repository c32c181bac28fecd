"""eigenvanish benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the root of a source checkout; the package is imported from its
`src` directory. Each workload runs in a fresh single-threaded child process,
one job at a time (a closed loop with one client). The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from worker import HERE, ROOT, SETUP_ARGS

SRC = ROOT / "src"

CLI_PROBES = 3
WORKLOAD_LIMIT = 170  # s per workload; a child still running then is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")

# the setup command split into import time and main() time, in CPU time
CLI_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
from time import process_time
t0 = process_time()
from eigenvanish.cli import main
t1 = process_time()
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
t2 = process_time()
print(json.dumps({"import_s": t1 - t0, "main_s": t2 - t1, "code": code}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args: list[str], deadline: float) -> tuple[int, str]:
    """Run a python child to completion; returns (exit code, stdout). A child
    still running at `deadline` (a perf_counter reading) is killed with every
    process it started, and the run ends without a result."""
    with subprocess.Popen(
        [sys.executable, *args], env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"error: {Path(args[0]).name} ran past the {WORKLOAD_LIMIT} s limit")
    return proc.returncode, out


def probe_cli(runs: int, deadline: float) -> tuple[dict, int]:
    """cli.import_s and cli.main_s, medians over fresh processes; returns
    (metrics, failed runs)."""
    samples, failed = [], 0
    for _ in range(runs):
        code, out = run_child(["-c", CLI_PROBE, *SETUP_ARGS], deadline)
        probe = json.loads(out.strip().splitlines()[-1]) if code == 0 else None
        if probe is None or probe["code"] != 0:
            failed += 1
            continue
        samples.append(probe)
    if not samples:
        return {}, failed
    return {
        key: {"value": statistics.median(s[key] for s in samples), "unit": "s"}
        for key in ("import_s", "main_s")
    }, failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One fresh worker process for the workload (and, traced, the CLI probes)."""
    deadline = perf_counter() + WORKLOAD_LIMIT
    code, out = run_child([
        str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ], deadline)
    if code != 0:
        raise SystemExit(f"error: {workload}: worker exited with {code}")
    res = json.loads(out.strip().splitlines()[-1])
    if trace:
        cli, failed = probe_cli(CLI_PROBES, deadline)
        res["layers"].update({f"cli.{k}": v for k, v in cli.items()})
        if not cli:
            res["missing"].append("cli")
        res["attempted"] += CLI_PROBES
        res["failed"] += failed
    return res


def end_to_end(res: dict) -> dict:
    return {
        "pass_ref": {"value": res["pass_ref"], "unit": "ref"},
        "setup_s": {"value": res["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def report(workload: str, res: dict, trace: bool) -> dict:
    """Human lines on stdout; returns the workload's metrics."""
    print(f"# {workload} stamp {json.dumps(res['stamp'], sort_keys=True)}")
    for problem in res["problems"]:
        print(f"# {workload} FAIL {problem}")
    metrics = res["layers"] if trace else end_to_end(res)
    fail_frac = res["failed"] / res["attempted"]
    for name, m in metrics.items():
        print(f"# {workload:9s} {name:45s} {m['value']:14.6g} {m['unit']}")
    print(f"# {workload:9s} {'fail_frac':45s} {fail_frac:14.6g} ratio"
          f" ({res['failed']}/{res['attempted']})")
    if trace:
        for name in res["missing"]:
            print(f"# {workload:9s} MISSING {name}: entry point or counter not found")
    else:
        # not gated: one sample per run, or wall times (README.md)
        for name in ("pass_cpu_s", "first_pass_cpu_s", "wall_s", "first_pass_s", "setup_wall_s"):
            print(f"# {workload:9s} {name:45s} {res[name]:14.6g} s")
        print(f"# {workload:9s} warm passes {res['warm_passes']}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "eigenvanish" / "__init__.py").is_file():
        print(f"error: no eigenvanish sources under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        got = report(name, res, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += res["attempted"]
        failed += res["failed"]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

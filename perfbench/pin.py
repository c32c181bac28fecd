"""Write perfbench/pins.json: the expected output of every benchmark job.

    PYTHONPATH=src python3 perfbench/pin.py

Runs each workload once for every seed in workloads.PINNED_SEEDS. The
seed-invariant part of each output is pinned for all seeds (and must come out
the same for every pinned seed); the seed-dependent part is pinned per seed.
Only regenerate the pins from a commit whose outputs are known to be right.
"""

import json
import subprocess
import sys

import workloads
from run import child_env
from worker import CLI_CMD, HERE, SETUP_ARGS, load_api


def main() -> int:
    api = load_api()
    invariant: dict = {}
    seeded: dict = {}
    for seed in workloads.PINNED_SEEDS:
        per_seed = seeded.setdefault(str(seed), {})
        for workload in workloads.WORKLOADS:
            for job in workloads.build_jobs(workload, seed):
                out = job.run(api)
                problems = job.check(out)
                if problems:
                    raise SystemExit(f"seed {seed} {job.key}: {problems}")
                inv, part = job.split(out)
                if inv is not None:
                    if invariant.setdefault(job.key, inv) != inv:
                        raise SystemExit(f"{job.key}: seed-invariant output depends on the seed")
                if part is not None:
                    per_seed[job.key] = part
            print(f"pinned seed {seed} {workload}", file=sys.stderr)
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CMD, *SETUP_ARGS],
        env=child_env(), stdout=subprocess.PIPE, text=True, check=True,
    )
    invariant["cli:setup"] = proc.stdout
    pins = {"invariant": invariant, "seeded": seeded}
    (HERE / "pins.json").write_text(json.dumps(pins, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

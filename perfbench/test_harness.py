"""Tests of the benchmark harness itself: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import eigenvanish.certify  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from worker import PassResult, load_api, load_pins, pass_ref, run_pass  # noqa: E402

SEED = workloads.DEFAULT_SEED


def _jobs(workload, keys, seed=SEED):
    jobs = [j for j in workloads.build_jobs(workload, seed) if j.key in keys]
    assert {j.key for j in jobs} == set(keys)
    return jobs


@pytest.fixture(scope="module")
def api():
    return load_api()


def test_untampered_pins_pass(api):
    jobs = _jobs("grid", {"periods:7,2", "periods:5,2"})
    res = run_pass(jobs, api, workloads.Checker(load_pins(), SEED))
    assert (res.attempted, res.failed) == (2, 0), res.problems


def test_one_tampered_pin_makes_fail_frac_positive(api):
    pins = load_pins()
    pins["invariant"]["periods:7,2"]["eta"][0] += 1
    jobs = _jobs("grid", {"periods:7,2", "periods:5,2"})
    res = run_pass(jobs, api, workloads.Checker(pins, SEED))
    assert res.failed / res.attempted > 0
    assert res.problems == ["periods:7,2: differs from the pinned answer"]


def test_tampered_seed_pin_fails_only_on_its_seed(api):
    pins = load_pins()
    key = "periods:13,3"
    pins["seeded"][str(SEED)][key]["d"][0] += 1
    jobs = _jobs("grid", {key})
    assert run_pass(jobs, api, workloads.Checker(pins, SEED)).failed == 1
    other = workloads.HELD_OUT_SEED
    assert run_pass(_jobs("grid", {key}, other), api, workloads.Checker(pins, other)).failed == 0


def test_unpinned_seed_still_checks_identities(api):
    jobs = _jobs("grid", {"periods:13,3"}, seed=99)
    out = jobs[0].run(api)
    assert jobs[0].check(out) == []
    out["d"][0] += 1
    assert jobs[0].check(out)


def test_grid_oracle_counts_a_missing_output_as_failed(api):
    # a job that raised in the timed pass leaves no output to compare
    checks = workloads.oracle_checks("grid", SEED, api, {})
    assert checks
    assert all(probs == ["no output from the timed pass to compare"] for _, probs in checks)


def test_invariant_outputs_do_not_depend_on_seed(api):
    a = _jobs("certify", {"certify:19"}, 1)[0]
    b = _jobs("certify", {"certify:19"}, 7)[0]
    assert a.split(a.run(api))[0] == b.split(b.run(api))[0]


def _pass(times, refs):
    res = PassResult()
    res.times, res.refs = dict(times), dict(refs)
    return res


def test_pass_ref_follows_the_host_speed_out():
    fast = _pass({"a": 1.0, "b": 3.0}, {"a": 0.02, "b": 0.02})
    slow = _pass({"a": 1.5, "b": 4.5}, {"a": 0.03, "b": 0.03})
    # each job's median ratio over the passes, summed: 50 + 150 reference loops
    assert pass_ref([fast]) == pytest.approx(200)
    assert pass_ref([slow]) == pytest.approx(200)
    assert pass_ref([slow, fast]) == pytest.approx(200)
    # a program twice as slow costs twice as many reference loops
    assert pass_ref([_pass({"a": 2.0, "b": 6.0}, {"a": 0.02, "b": 0.02})]) == pytest.approx(400)


def test_tracer_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    tracer.job = "j1"

    def child():
        return sum(range(20000))

    def parent():
        return tracer.call("scan.scan_counts", child, (), {})

    tracer.call("periods.compute_period_table", parent, (), {})
    outer, inner = tracer.spans
    assert inner[3] == 0 and outer[3] == -1 and inner[4] == "j1"
    times = tracer.self_times()
    total = outer[2] - outer[1]
    assert times["periods.compute_period_table"][0] == pytest.approx(total - (inner[2] - inner[1]))
    assert times["scan.scan_counts"][1] == 1


def test_traced_pass_counts_work(api):
    tracer = Tracer()
    tracer.install(api)
    try:
        res = run_pass(_jobs("grid", {"periods:7,2"}), api,
                       workloads.Checker(load_pins(), SEED), tracer)
    finally:
        tracer.uninstall()
    assert res.failed == 0
    metrics, missing = layer_metrics(tracer, 1)
    assert missing == []
    assert metrics["scan.scan_counts.calls"][0] == 1
    assert metrics["scan.scan_counts.elements"][0] == 7
    # F_8 = F_2[x]/(x^3 + x + 1): modulus candidates 0..3, generator x (code 2)
    assert metrics["ffield.build_field.modulus_candidates"][0] == 4
    assert metrics["ffield.build_field.generator_candidates"][0] == 1
    # uninstall restored the library's own functions
    assert eigenvanish.certify.build_field.__module__ == "eigenvanish.ffield"


def test_missing_entry_point_is_named_not_zero(api, monkeypatch):
    monkeypatch.delattr(eigenvanish.certify, "index_mod_p")
    tracer = Tracer()
    tracer.install(api)
    tracer.uninstall()
    metrics, missing = layer_metrics(tracer, 1)
    assert "units.index_mod_p" in missing
    assert not any(k.startswith("units.index_mod_p.") for k in metrics)
    assert "scan.scan_counts.self_s" in metrics


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    tracer = Tracer()
    metrics, _ = layer_metrics(tracer, 1)
    names = set(metrics) | {"trace.overhead_frac", "cli.import_s", "cli.main_s"}
    assert {m["name"] for m in spec["per_layer"]} == names

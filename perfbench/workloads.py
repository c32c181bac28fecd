"""The benchmark's workloads: seeded job lists and the checks on their outputs.

A job is one call (or a short fixed chain of calls) into the library's public
API, reached through the `api` namespace so that a traced run can wrap it.
Each job's output is split into a part that no seed can change, pinned for
every seed, and a seed-dependent part, pinned only for the seeds in
`PINNED_SEEDS`. Identity checks that need no pin run on every output.
"""

import json
import random
from dataclasses import dataclass
from typing import Callable

# sympy, not the library, so that the identity checks stay independent of it
from sympy import primerange
from sympy.ntheory import is_primitive_root, n_order

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

WORKLOADS = ("certify", "vandiver", "grid", "bigfield", "forms")

API_NAMES = (
    "CyclotomicSetup", "build_field", "certificate_from_dict",
    "certificate_to_dict", "certify_half_plus", "class_number",
    "compute_period_table", "density_estimate", "reduced_forms_count",
    "represent_all", "vandiver_scan", "verify_certificate", "verify_identity_i",
)

CERTIFY_P = (19, 23, 31, 43, 47, 59)
VANDIVER_P = (41, 43, 47, 53, 59, 61)
GRID_P = (5, 7, 11, 13, 17, 19, 23, 29, 31)
GRID_QMAX = 50
GRID_CAP = 1 << 24
BIGFIELD_PAIRS = ((17, 3), (5, 107), (47, 2))
BIGFIELD_CAP = 1 << 27
DENSITY_D = (7, 343, 11, 1331)
DENSITY_X = 10**6
CLASSNUM_PMAX = 2000
REPR_D = 7
REPR_COUNT = 200
REPR_RANGE = (10**11, 10**12)
# python scan oracle: grid fields up to this size are rescanned untimed
ORACLE_SCAN_MAX = 1 << 13
ORACLE_REPR_COUNT = 20
ORACLE_REPR_RANGE = (10**6, 10**8)


def primitive_roots(p: int) -> list[int]:
    return [g for g in range(2, p) if is_primitive_root(g, p)]


def grid_pairs() -> list[tuple[int, int]]:
    """Every valid (p, q) with p <= 31, q <= 50 and q^n <= 2^24."""
    pairs = []
    for p in GRID_P:
        for q in primerange(2, GRID_QMAX + 1):
            if q == p or q % p == 1:
                continue
            if q ** n_order(q, p) <= GRID_CAP:
                pairs.append((p, q))
    return pairs


def _form_targets(rng: random.Random, count: int, lo: int, hi: int):
    """`count` distinct N = x^2 + 7y^2 in [lo, hi), each with its known (x, y)."""
    targets: dict[int, tuple[int, int]] = {}
    xmax, ymax = int(hi**0.5), int((hi / REPR_D) ** 0.5)
    while len(targets) < count:
        x, y = rng.randrange(1, xmax), rng.randrange(1, ymax)
        n = x * x + REPR_D * y * y
        if lo <= n < hi:
            targets.setdefault(n, (x, y))
    return sorted(targets.items())


@dataclass
class Job:
    """One timed unit of work.

    `run(api)` returns a JSON-safe dict; `split(out)` gives its (invariant,
    seeded) parts for the pins; `check(out)` returns problems found by
    identities that need no pin.
    """

    key: str
    run: Callable
    split: Callable = lambda out: (out, None)
    check: Callable = lambda out: []


def _choose_g(seed: int, p: int) -> int:
    return random.Random(f"{seed}:g:{p}").choice(primitive_roots(p))


# ---------------------------------------------------------------------------
# certify


def _certify_job(p: int, g: int) -> Job:
    def run(api):
        cert = api.certify_half_plus(p, g=g)
        data = api.certificate_to_dict(cert)
        back = api.certificate_from_dict(json.loads(json.dumps(data)))
        return {
            "cert": data,
            "round_trip_equal": back == cert,
            "verified": api.verify_certificate(back),
        }

    def split(out):
        cert = dict(out["cert"])
        return cert, {"g": cert.pop("g")}

    def check(out):
        problems = []
        if not out["round_trip_equal"]:
            problems.append("certificate changed in the JSON round trip")
        if not out["verified"]:
            problems.append("verify_certificate rejected the round-tripped certificate")
        if out["cert"]["g"] != g:
            problems.append(f"certificate g={out['cert']['g']}, asked for {g}")
        return problems

    return Job(f"certify:{p}", run, split, check)


# ---------------------------------------------------------------------------
# vandiver


def _vandiver_job(p: int, g: int) -> Job:
    def run(api):
        report = api.vandiver_scan(p, g=g)
        return {
            "scans": [
                [s.r, s.verdict, s.witness_q, s.i_mod_p,
                 [list(t) for t in s.tried], list(s.admissible_orders)]
                for s in report.scans
            ]
        }

    def check(out):
        problems = []
        rs = [s[0] for s in out["scans"]]
        if rs != list(range(2, p - 2, 2)):
            problems.append(f"eigenspaces {rs} are not the even r in [2, {p - 3}]")
        for r, verdict, wq, i_val, tried, admissible in out["scans"]:
            if verdict == "Trivial":
                hit = tried[-1] if tried else None
                if hit is None or hit[0] != wq or hit[2] != i_val or not i_val:
                    problems.append(f"r={r}: Trivial without a matching nonzero index")
                elif hit[1] not in admissible:
                    problems.append(f"r={r}: witness order {hit[1]} not admissible")
            elif any(t[2] for t in tried):
                problems.append(f"r={r}: {verdict} despite a nonzero index")
        return problems

    return Job(f"vandiver:{p}", run, check=check)


# ---------------------------------------------------------------------------
# grid and bigfield: period tables


def _period_job(p: int, q: int, g: int, cap: int) -> Job:
    def run(api):
        setup = api.CyclotomicSetup.create(p, q, g=g)
        ctx = api.build_field(setup, cap=cap)
        table = api.compute_period_table(ctx, setup)
        residual = api.verify_identity_i(setup, table)
        return {
            "eta": list(table.eta_values), "v": table.v,
            "d": list(table.d), "a": list(table.a),
            "identity_residual": residual,
            "modulus": ctx.modulus_int, "generator": ctx.encode(ctx.alpha),
        }

    def split(out):
        keep = ("eta", "v", "identity_residual", "modulus", "generator")
        return {k: out[k] for k in keep}, {"d": out["d"], "a": out["a"]}

    def check(out):
        return period_identities(p, q, g, out)

    return Job(f"periods:{p},{q}", run, split, check)


def period_identities(p: int, q: int, g: int, out: dict) -> list[str]:
    """Recompute d and a from the periods, g and v, exactly."""
    eta, v, d, a = out["eta"], out["v"], out["d"], out["a"]
    n = n_order(q, p)
    e = (p - 1) // n
    problems = []
    if sum(eta) != -1:
        problems.append(f"periods sum to {sum(eta)}, not -1")
    if out["identity_residual"] != 0:
        problems.append(f"identity (i) residual {out['identity_residual']}")
    scale = q**v
    want_d = []
    for i in range(e):
        diff = eta[pow(g, i, p)] - eta[0]
        if diff % scale:
            problems.append(f"eta_(g^{i}) - eta_0 not divisible by q^v")
            return problems
        want_d.append(diff // scale)
    if d != want_d:
        problems.append(f"d={d} but the periods give {want_d}")
    lead = n * scale
    want_a = [lead * sum(g ** (n * k * i) * want_d[i] for i in range(e)) for k in range(e)]
    if a != want_a:
        problems.append("a does not match n q^v sum g^(nki) d_i")
    return problems


# ---------------------------------------------------------------------------
# forms


def _density_job(D: int) -> Job:
    def run(api):
        est = api.density_estimate(D, DENSITY_X)
        return {"represented": est.represented, "primes": est.primes}

    def check(out):
        if not 0 < out["represented"] <= out["primes"]:
            return [f"density counts {out} out of range"]
        return []

    return Job(f"density:{D}", run, check=check)


def _classnum_job(p: int) -> Job:
    def run(api):
        cn = api.class_number(p)
        return {"h": cn.h, "R": cn.R, "V": cn.V, "forms": api.reduced_forms_count(-p)}

    def check(out):
        if out["h"] != out["forms"]:
            return [f"h(-{p}) = {out['h']} but {out['forms']} reduced forms"]
        return []

    return Job(f"classnum:{p}", run, check=check)


def _repr_job(N: int, known: tuple[int, int]) -> Job:
    def run(api):
        return {"reps": [list(r) for r in api.represent_all(REPR_D, N)]}

    def split(out):
        return None, out

    def check(out):
        reps = [tuple(r) for r in out["reps"]]
        problems = []
        if any(x * x + REPR_D * y * y != N or x < 0 or y < 0 for x, y in reps):
            problems.append(f"a pair does not satisfy x^2 + {REPR_D}y^2 = {N}")
        if reps != sorted(set(reps)):
            problems.append("pairs are not distinct and ascending")
        if known not in reps:
            problems.append(f"known representation {known} missing")
        return problems

    return Job(f"repr:{N}", run, split, check)


# ---------------------------------------------------------------------------


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for `seed`, in the seed's order."""
    if workload == "certify":
        jobs = [_certify_job(p, _choose_g(seed, p)) for p in CERTIFY_P]
    elif workload == "vandiver":
        jobs = [_vandiver_job(p, _choose_g(seed, p)) for p in VANDIVER_P]
    elif workload == "grid":
        jobs = [_period_job(p, q, _choose_g(seed, p), GRID_CAP) for p, q in grid_pairs()]
    elif workload == "bigfield":
        jobs = [_period_job(p, q, _choose_g(seed, p), BIGFIELD_CAP) for p, q in BIGFIELD_PAIRS]
    elif workload == "forms":
        rng = random.Random(f"{seed}:forms")
        jobs = [_density_job(D) for D in DENSITY_D]
        jobs += [_classnum_job(p) for p in primerange(5, CLASSNUM_PMAX) if p % 4 == 3]
        jobs += [_repr_job(N, xy) for N, xy in _form_targets(rng, REPR_COUNT, *REPR_RANGE)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{seed}:order:{workload}").shuffle(jobs)
    return jobs


class Checker:
    """Compares job outputs with the pins and the pin-free identities."""

    def __init__(self, pins: dict, seed: int):
        self.invariant = pins["invariant"]
        self.seeded = pins["seeded"].get(str(seed))

    def check(self, job: Job, out: dict) -> list[str]:
        problems = list(job.check(out))
        inv, seeded = job.split(out)
        if inv is not None:
            if job.key not in self.invariant:
                problems.append("no pinned answer")
            elif _canon(inv) != _canon(self.invariant[job.key]):
                problems.append("differs from the pinned answer")
        if self.seeded is not None and seeded is not None:
            if _canon(seeded) != _canon(self.seeded.get(job.key)):
                problems.append("differs from the answer pinned for this seed")
        return problems


def _canon(x) -> str:
    return json.dumps(x, sort_keys=True)


# ---------------------------------------------------------------------------
# untimed oracles


def oracle_checks(workload: str, seed: int, api, results: dict) -> list[tuple[str, list[str]]]:
    """Cross-checks against slow independent routes, run once after timing.

    `results` maps job keys to the outputs of the first pass.
    Returns (name, problems) per check.
    """
    checks = []
    if workload == "grid":
        for p, q in grid_pairs():
            if q ** n_order(q, p) > ORACLE_SCAN_MAX:
                continue
            g = _choose_g(seed, p)
            setup = api.CyclotomicSetup.create(p, q, g=g)
            ctx = api.build_field(setup, cap=GRID_CAP)
            table = api.compute_period_table(ctx, setup, backend="python")
            fast = results.get(f"periods:{p},{q}")
            slow = [list(table.eta_values), table.v, list(table.d), list(table.a)]
            if fast is None:
                problems = ["no output from the timed pass to compare"]
            elif slow != [fast["eta"], fast["v"], fast["d"], fast["a"]]:
                problems = ["python scan disagrees"]
            else:
                problems = []
            checks.append((f"python-scan:{p},{q}", problems))
    elif workload == "forms":
        rng = random.Random(f"{seed}:forms-oracle")
        for N, _ in _form_targets(rng, ORACLE_REPR_COUNT, *ORACLE_REPR_RANGE):
            slow = api.represent_all(REPR_D, N, method="exhaustive")
            fast = api.represent_all(REPR_D, N, method="factor")
            checks.append((f"exhaustive-repr:{N}", [] if slow == fast else ["factor route disagrees"]))
    return checks

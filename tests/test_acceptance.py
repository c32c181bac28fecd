"""End-to-end acceptance suite: one test and one printed verdict line per
criterion, with every stated tolerance and time budget asserted."""

import itertools
import json
import random
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest
from sympy import I, expand, im, primerange, re, sqrt

import eigenvanish
from eigenvanish import (
    CyclotomicSetup,
    beta_index_mod_p,
    build_field,
    certify_half_plus,
    class_number,
    compute_period_table,
    compute_v,
    density_estimate,
    index_mod_p,
    least_primitive_root,
    legendre,
    multiplicative_order,
    power_representation,
    reduced_forms_count,
    represent_all,
    stickelberger_sign,
    vandiver_scan,
    verify_certificate,
    verify_congruences_ii,
    verify_identity_i,
)
from eigenvanish.certify import _primes_of_order

from conftest import record_acceptance

GRID_P = [5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.fixture(scope="module")
def grid():
    """Every valid (p, q) with p <= 31, q <= 50, q^n <= 2^24."""
    rows = []
    for p in GRID_P:
        for q in primerange(2, 51):
            q = int(q)
            if q == p or q % p == 1:
                continue
            n = multiplicative_order(q, p)
            if q**n > 1 << 24:
                continue
            setup = CyclotomicSetup.create(p, q)
            ctx = build_field(setup, cap=1 << 24)
            rows.append((setup, ctx, compute_period_table(ctx, setup)))
    assert len(rows) >= 40
    return rows


def test_criterion_01_golden_vector():
    t0 = time.time()
    setup = CyclotomicSetup.create(7, 2)
    ctx = build_field(setup, cap=1 << 20)
    table = compute_period_table(ctx, setup, backend="python")
    ok = (
        table.v == 1
        and table.eta_values == (-1, 1, 1, -1, 1, -1, -1)
        and table.d == (1, 0)
        and table.a == (6, 6)
    )
    r4 = beta_index_mod_p(ctx, setup, 4)
    r2 = beta_index_mod_p(ctx, setup, 2)
    ok = ok and r4.i_mod_p == 1 and r4.verdict == "Trivial"
    ok = ok and r2.i_mod_p == 0 and r2.verdict == "Unknown"
    ok = ok and class_number(7).h == 1
    cert = certify_half_plus(7)
    w = cert.witnesses[-1]
    ok = ok and cert.verdict == "Trivial" and verify_certificate(cert)
    ok = ok and 4 * 2 == w.a**2 + 7 * w.b**2 and (abs(w.a), abs(w.b)) == (1, 1)
    dt = time.time() - t0
    ok = ok and dt < 1.0
    record_acceptance(1, ok, f"p=7 q=2 golden vector exact, {dt:.2f} s")
    assert ok


def test_criterion_02_square_identity_on_grid(grid):
    t0 = time.time()
    bad = [
        (s.p, s.q) for s, ctx, table in grid if verify_identity_i(s, table) != 0
    ]
    dt = time.time() - t0
    ok = not bad and dt < 300
    record_acceptance(
        2, ok, f"square identity residual 0 on all {len(grid)} grid pairs, {dt:.1f} s"
    )
    assert ok, bad


def test_criterion_03_product_congruences_on_grid(grid):
    t0 = time.time()
    bad = []
    for setup, ctx, table in grid:
        indices = {
            l: index_mod_p(ctx, setup, setup.p - l * setup.n)
            for l in range(1, setup.e, 2)
        }
        a0_res, odd_res = verify_congruences_ii(setup, table.a, indices)
        if a0_res != 0 or any(odd_res.values()):
            bad.append((setup.p, setup.q, a0_res, odd_res))
    dt = time.time() - t0
    ok = not bad and dt < 300
    record_acceptance(
        3, ok,
        f"a_0 = -1 and all odd-l congruences 0 mod p on {len(grid)} pairs, {dt:.1f} s",
    )
    assert ok, bad


def test_criterion_04_period_invariants_on_grid(grid):
    bad = []
    for setup, ctx, table in grid:
        vals = table.eta_values
        if sum(vals) != -1:
            bad.append((setup.p, setup.q, "sum"))
        for row, val in zip(table.counts, vals):
            if sum(row) != setup.f or len(set(row[1:])) != 1 or val != row[0] - row[1]:
                bad.append((setup.p, setup.q, "counts"))
            if val % setup.q != setup.f % setup.q:
                bad.append((setup.p, setup.q, "mod-q"))
    ok = not bad
    record_acceptance(
        4, ok, f"rationality, count-sum f, eta = f mod q, sum = -1 on {len(grid)} pairs"
    )
    assert ok, bad


def test_criterion_05_class_numbers():
    t0 = time.time()
    bad = []
    witnesses = 0
    for p in primerange(5, 200):
        p = int(p)
        if p % 4 != 3:
            continue
        h = class_number(p).h
        if reduced_forms_count(-p) != h:
            bad.append((p, "forms"))
        if p < 100:
            g = least_primitive_root(p)
            for q in itertools.islice(_primes_of_order(p, (p - 1) // 2, 10_000), 2):
                witnesses += 1
                v = compute_v(p, q, g)
                if (p - 1) // 2 - 2 * v != h:
                    bad.append((p, q, "h-from-v"))
    dt = time.time() - t0
    ok = not bad and dt < 10
    record_acceptance(
        5, ok,
        f"h(-p) = reduced forms for p < 200 and (p-1)/2 - 2v = h on "
        f"{witnesses} witnesses, {dt:.1f} s",
    )
    assert ok, bad


def test_criterion_06_certify_range():
    worst = 0.0
    bad = []
    for p in (7, 11, 19, 23, 31, 43):
        t0 = time.time()
        cert = certify_half_plus(p, field_cap=1 << 27)
        dt = time.time() - t0
        worst = max(worst, dt)
        if cert.verdict != "Trivial" or not verify_certificate(cert) or dt >= 60:
            bad.append((p, cert.verdict, round(dt, 1)))
    ok = not bad
    record_acceptance(
        6, ok, f"Trivial certificate for all p = 3 mod 4 in [7, 43], worst {worst:.1f} s"
    )
    assert ok, bad


def test_criterion_07_vandiver_full_scan():
    reports = {p: vandiver_scan(p) for p in (7, 11, 19, 23, 31)}
    certified = {
        p: tuple(s.r for s in rep.scans if s.verdict == "Trivial")
        for p, rep in reports.items()
    }
    ok = all(rep.all_certified for rep in reports.values())
    record_acceptance(
        7, ok, f"even eigenspaces certified per p: {certified}"
    )
    # the en-route claim holds: p=7, r=2 stays Unknown with q=2 giving i=0
    scan_7_2 = next(s for s in reports[7].scans if s.r == 2)
    assert scan_7_2.verdict == "Unknown"
    assert scan_7_2.tried[0] == (2, 3, 0)
    # and the certified sets are exactly the structurally reachable ones
    for p, rep in reports.items():
        for scan in rep.scans:
            reachable = any(
                n % 2 == 1 and n >= 3 and (p - scan.r) % n == 0
                for n in range(3, p)
                if (p - 1) % n == 0
            )
            if not reachable:
                assert scan.verdict == "Unknown", (p, scan.r)
    assert ok, (
        "an even eigenspace r can only be certified by a witness prime q whose "
        "order n mod p is an odd divisor >= 3 of gcd(p-1, p-r); eigenspaces "
        "admitting no such order have i_r(Q) = 0 for every witness and stay "
        f"Unknown regardless of how many witnesses are tried. certified: {certified}"
    )


def test_criterion_08_power_representation_random():
    rng = random.Random(20260815)
    ps = [int(p) for p in primerange(3, 100) if p % 4 == 3]
    checked = 0
    sol = power_representation(2, 1, 3, 7)
    assert (sol.xval, sol.yval) == (-34, 5)
    for _ in range(50):
        u = rng.randint(-30, 30)
        w = rng.randint(-30, 30)
        s = rng.choice([1, 3, 5, 7, 9])
        p = rng.choice(ps)
        got = power_representation(u, w, s, p)
        sym = expand((u + w * sqrt(p) * I) ** s)
        assert got.xval == int(re(sym))
        assert got.yval == int(im(sym) / sqrt(p))
        assert got.xval**2 + p * got.yval**2 == (u * u + p * w * w) ** s
        checked += 1
    record_acceptance(
        8, True, f"recursion = symbolic expansion on {checked} samples"
    )


def test_criterion_09_stickelberger_sweep():
    t0 = time.time()
    pairs = 0
    bad = []
    for p in primerange(5, 100):
        p = int(p)
        if p % 4 != 3:
            continue
        data = class_number(p)
        for q in primerange(3, 10_000):
            q = int(q)
            if q == p or legendre(-p, q) != 1:
                continue
            pairs += 1
            reps = represent_all(p, 4 * q**data.h)
            good = [(x, y) for x, y in reps if gcd(x, y) <= 2]
            if len(good) != 1:
                bad.append((p, q, "count", reps))
                continue
            C, D = good[0]
            if C % p == 0 or stickelberger_sign(p, q, data.R, C) is None:
                bad.append((p, q, "sign", C))
    dt = time.time() - t0
    ok = not bad and dt < 300
    record_acceptance(
        9, ok,
        f"unique primitive C + sign congruence on {pairs} (p, q) pairs, {dt:.1f} s",
    )
    assert ok, bad[:5]


def test_criterion_10_densities():
    t0 = time.time()
    cases = [
        (7, 0.5), (343, 1 / 14),  # p = 7 mod 8: 1/(2h), 1/(2ph)
        (11, 1 / 6), (1331, 1 / 66),  # p = 3 mod 8: 1/(6h), 1/(6ph)
    ]
    deltas = {}
    for D, expect in cases:
        est = density_estimate(D, 10**6)
        deltas[D] = abs(est.ratio_float - expect)
    dt = time.time() - t0
    ok = all(d < 0.01 for d in deltas.values()) and dt < 60
    detail = ", ".join(f"D={D}: {d:.4f}" for D, d in deltas.items())
    record_acceptance(10, ok, f"density deltas at 10^6 [{detail}], {dt:.1f} s")
    assert ok, deltas


def test_criterion_11_invariance():
    bad = []
    # v never depends on the primitive root
    for p in GRID_P:
        roots = [g for g in range(2, p) if multiplicative_order(g, p) == p - 1]
        for q in itertools.islice(
            (q for q in primerange(2, 100) if q != p and q % p != 1), 2
        ):
            vs = {compute_v(p, int(q), g) for g in roots}
            if len(vs) != 1:
                bad.append((p, int(q), "v", vs))
    # certificate verdicts and witness data never depend on it either
    for p in (7, 11, 19, 23, 31):
        roots = [g for g in range(2, p) if multiplicative_order(g, p) == p - 1]
        seen = {
            (c.verdict, c.witnesses[-1].q, c.witnesses[-1].v,
             c.witnesses[-1].a, c.witnesses[-1].b)
            for c in (certify_half_plus(p, g=g) for g in roots)
        }
        if len(seen) != 1:
            bad.append((p, "certificate", seen))
    # byte-identical JSON across repeated CLI runs
    # run from the directory that holds the imported package, so that the
    # child finds it with neither PYTHONPATH nor an install
    root = Path(eigenvanish.__file__).parents[1]
    cmd = [sys.executable, "-m", "eigenvanish.cli", "certify", "--p", "11", "--json"]
    first = subprocess.run(cmd, capture_output=True, check=True, cwd=root).stdout
    second = subprocess.run(cmd, capture_output=True, check=True, cwd=root).stdout
    if first != second or json.loads(first)["schema"] != "eigenvanish/1":
        bad.append(("cli", "bytes"))
    ok = not bad
    record_acceptance(
        11, ok, "verdicts and v invariant over primitive roots; CLI output byte-stable"
    )
    assert ok, bad

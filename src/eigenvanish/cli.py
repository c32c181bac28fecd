"""Command-line front end.

Every run writes exactly one RunReport JSON document to stdout and a short
human summary to stderr (suppressed by --quiet/--json). Exit codes:
0 success or Trivial verdict, 1 invalid input, 2 valid but inconclusive
(Unknown/Inconclusive verdicts, failed checks, resource limits, MemoryError),
3 internal invariant violation. All arbitrary-precision integers in the JSON
are decimal strings; the only floats are density ratios.
"""

import argparse
import json
import sys
from fractions import Fraction
from math import gcd

from ._nt import is_prime
from .certify import (
    DEFAULT_FIELD_CAP,
    DEFAULT_QBOUND,
    certificate_from_dict,
    certificate_to_dict,
    certify_half_plus,
    check_certificate,
    remark_explore,
    vandiver_scan,
)
from .errors import BadInput, EigenvanishError, ResourceLimit
from .ffield import CyclotomicSetup, build_field
from .periods import compute_period_table
from .quadforms import (
    class_number,
    cornacchia,
    density_estimate,
    reduced_forms_count,
    represent_all,
    stickelberger_sign,
    stickelberger_target,
)
from .units import (
    TRIVIAL,
    beta_index_mod_p,
    index_vector,
    verify_congruences_ii,
    verify_identity_i,
)

SCHEMA = "eigenvanish/1"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the exit-code contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _report(command: str, params: dict, result, checks: list) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "params": params,
        "result": result,
        "checks": checks,
        "timing": None,
    }


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# --------------------------------------------------------------------------
# subcommand handlers return (report, summary lines, exit code); a failed check exits 2


def cmd_setup(args):
    setup = CyclotomicSetup.create(args.p, args.q, g=args.g)
    ctx = build_field(setup)
    params = {"p": setup.p, "q": setup.q, "g": setup.g}
    result = {
        "p": setup.p, "q": setup.q, "n": setup.n, "e": setup.e,
        "f": str(setup.f), "g": setup.g,
        "field": {
            "size": str(setup.field_size()),
            "modulus": str(ctx.modulus_int),
            "generator": str(ctx.encode(ctx.alpha)),
            "zeta": str(ctx.encode(ctx.zeta)),
            "basis_traces": list(ctx.basis_traces),
        },
    }
    checks = [
        _check("order-bookkeeping", True,
               f"n={setup.n} | p-1={setup.p - 1}; p*f = q^n - 1"),
        _check("zeta-order-p", True, "zeta = alpha^f has exact order p"),
    ]
    summary = [
        f"p={setup.p} q={setup.q}: n={setup.n} e={setup.e} f={setup.f} g={setup.g}",
        f"F_{setup.q}^{setup.n}: modulus {ctx.modulus_int}, generator "
        f"{ctx.encode(ctx.alpha)}, zeta {ctx.encode(ctx.zeta)}",
    ]
    return _report("setup", params, result, checks), summary, 0


def cmd_periods(args):
    setup = CyclotomicSetup.create(args.p, args.q, g=args.g)
    ctx = build_field(setup, cap=args.field_cap)
    table = compute_period_table(ctx, setup)
    params = {"p": setup.p, "q": setup.q, "g": setup.g, "field_cap": args.field_cap}
    result = {
        "p": setup.p, "q": setup.q, "n": setup.n, "e": setup.e, "g": setup.g,
        "f": str(setup.f), "v": table.v,
        "eta": [str(x) for x in table.eta_values],
        "d": [str(x) for x in table.d],
        "a": [str(x) for x in table.a],
    }
    if args.full:
        result["eta_counts"] = [[str(c) for c in row] for row in table.counts]
    checks = [
        _check("eta-count-sums", True, f"every eta holds f={setup.f} terms"),
        _check("eta-rational", True, "all periods are rational integers"),
        _check("eta-sum", True, "sum of periods is -1"),
        _check("eta-mod-q", True, "eta ≡ f mod q"),
        _check("v-range", True, f"v={table.v}, n-2v >= 0"),
    ]
    summary = [
        f"p={setup.p} q={setup.q}: v={table.v}",
        f"d = {table.d}",
        f"a = {table.a}",
    ]
    return _report("periods", params, result, checks), summary, 0


def cmd_indices(args):
    setup = CyclotomicSetup.create(args.p, args.q, g=args.g)
    ctx = build_field(setup)
    rec = beta_index_mod_p(ctx, setup, args.r)
    params = {"p": setup.p, "q": setup.q, "r": args.r, "g": setup.g}
    result = {
        "p": setup.p, "q": setup.q, "n": setup.n, "r": rec.r,
        "i_mod_p": rec.i_mod_p, "verdict": rec.verdict,
    }
    checks = [
        _check("beta-power-in-order-p-subgroup", True,
               "discrete log of beta^f found in the order-p subgroup"),
    ]
    summary = [f"i_{rec.r}(q={setup.q}) ≡ {rec.i_mod_p} mod {setup.p}: {rec.verdict}"]
    return _report("indices", params, result, checks), summary, (
        0 if rec.verdict == TRIVIAL else 2
    )


def cmd_identity(args):
    setup = CyclotomicSetup.create(args.p, args.q, g=args.g)
    ctx = build_field(setup, cap=args.field_cap)
    table = compute_period_table(ctx, setup)
    residual = verify_identity_i(setup, table)
    vector = index_vector(ctx, setup)
    indices = {l: vector.at(setup.p - l * setup.n) for l in range(1, setup.e, 2)}
    a0_res, residuals = verify_congruences_ii(setup, table.a, indices)
    params = {"p": setup.p, "q": setup.q, "g": setup.g, "field_cap": args.field_cap}
    result = {
        "p": setup.p, "q": setup.q, "n": setup.n, "e": setup.e, "v": table.v,
        "identity_residual": str(residual),
        "a0_residual_mod_p": a0_res,
        "congruence_residuals": {str(l): r for l, r in residuals.items()},
        "indices": {
            str(l): {"r": setup.p - l * setup.n, "i_mod_p": i}
            for l, i in indices.items()
        },
    }
    checks = [
        _check("square-identity", residual == 0,
               "e^2 q^(n-2v) = (Σd)^2 + p(eΣd^2 - (Σd)^2)"),
        _check("a0-congruence", a0_res == 0, "a_0 ≡ -1 mod p"),
    ] + [
        _check(f"product-congruence-l{l}", r == 0,
               f"alternating binomial sum at l={l} matches -i_{setup.p - l * setup.n}")
        for l, r in sorted(residuals.items())
    ]
    summary = [
        f"p={setup.p} q={setup.q}: identity residual {residual}, "
        f"a0 residual {a0_res}, product residuals {residuals}",
    ]
    return _report("identity", params, result, checks), summary, 0


def cmd_certify(args):
    cert = certify_half_plus(
        args.p, max_witnesses=args.max_witnesses, qbound=args.max_q,
        field_cap=args.field_cap, g=args.g,
    )
    problems = check_certificate(cert)
    params = {
        "p": args.p, "g": cert.g, "max_witnesses": args.max_witnesses,
        "max_q": args.max_q, "field_cap": args.field_cap,
    }
    checks = [_check("self-verify", not problems, "; ".join(problems) or "all stored identities re-verified")]
    for w in cert.witnesses:
        checks.append(
            _check(f"witness-q{w.q}-form-identity", w.qf_identity_ok,
                   f"4*{w.q}^{w.h} = {w.a}^2 + {cert.p}*({w.b})^2")
        )
    result = {"certificate": certificate_to_dict(cert)}
    summary = [f"p={cert.p} r={cert.r}: verdict {cert.verdict}"]
    for w in cert.witnesses:
        summary.append(
            f"  witness q={w.q} (n={w.n}, v={w.v}, h={w.h}): a={w.a} b={w.b} "
            f"i≡{w.i_mod_p} [{w.route}]"
        )
    return (
        _report("certify", params, result, checks),
        summary,
        0 if cert.verdict == TRIVIAL else 2,
    )


def cmd_vandiver(args):
    report = vandiver_scan(
        args.p, max_witnesses_per_r=args.max_witnesses, qbound=args.max_q,
        field_cap=args.field_cap, g=args.g,
    )
    params = {
        "p": args.p, "max_witnesses": args.max_witnesses,
        "max_q": args.max_q, "field_cap": args.field_cap,
    }
    scans = []
    checks = []
    summary = [f"p={args.p}: even eigenspaces r in [2, {args.p - 3}]"]
    for s in report.scans:
        scans.append({
            "r": s.r, "verdict": s.verdict, "witness_q": s.witness_q,
            "i_mod_p": s.i_mod_p,
            "tried": [{"q": q, "n": n, "i_mod_p": i} for q, n, i in s.tried],
            "admissible_orders": list(s.admissible_orders),
        })
        if s.verdict == TRIVIAL:
            detail = f"q={s.witness_q}, i ≡ {s.i_mod_p}"
        elif s.admissible_orders:
            detail = (
                f"no nonzero index among {len(s.tried)} witnesses; "
                f"orders that could work: {list(s.admissible_orders)}"
            )
        else:
            detail = (
                "no admissible witness order exists: i_r vanishes for every q "
                f"since no odd n >= 3 divides both p-1 and p-r={args.p - s.r}"
            )
        checks.append(_check(f"eigenspace-r{s.r}", s.verdict == TRIVIAL, detail))
        summary.append(f"  r={s.r}: {s.verdict} ({detail})")
    result = {"p": args.p, "scans": scans, "all_certified": report.all_certified}
    return _report("vandiver", params, result, checks), summary, 0


def cmd_classnum(args):
    cn = class_number(args.p)
    forms = reduced_forms_count(-args.p)
    params = {"p": args.p}
    result = {"p": cn.p, "R": cn.R, "V": cn.V, "h": cn.h, "reduced_forms": forms}
    checks = [
        _check("forms-oracle", forms == cn.h,
               f"reduced forms of discriminant -{args.p}: {forms}, V-R = {cn.h}"),
        _check("sum-rule", True, "V + R = (p-1)/2"),
        _check("h-odd", True, f"h = {cn.h} is odd"),
    ]
    summary = [f"h(-{args.p}) = {cn.h} (R={cn.R}, V={cn.V}, reduced forms {forms})"]
    return _report("classnum", params, result, checks), summary, 0


def cmd_cornacchia(args):
    D, N = args.D, args.N
    params = {"D": D, "N": str(N), "all": args.all}
    if args.all:
        sols = represent_all(D, N)
        result = {
            "D": D, "N": str(N),
            "solutions": [{"x": str(x), "y": str(y)} for x, y in sols],
        }
        checks = [
            _check("solutions-verify",
                   all(x * x + D * y * y == N for x, y in sols),
                   f"{len(sols)} representation(s), each re-checked"),
        ]
        summary = [f"x^2 + {D}y^2 = {N}: {len(sols)} solution(s) {sols}"]
        return _report("cornacchia", params, result, checks), summary, 0
    if not is_prime(N):
        raise BadInput(f"N={N} must be prime (use --all for general N)")
    sol = cornacchia(D, N)
    result = {
        "D": D, "N": str(N),
        "solution": None if sol is None else {"x": str(sol[0]), "y": str(sol[1])},
    }
    if sol is None:
        checks = [_check("no-solution", True, f"{N} is not represented by x^2 + {D}y^2")]
        summary = [f"x^2 + {D}y^2 = {N}: no solution"]
    else:
        checks = [_check("solution-verifies", sol[0] ** 2 + D * sol[1] ** 2 == N,
                         f"{sol[0]}^2 + {D}*{sol[1]}^2 = {N}")]
        summary = [f"x^2 + {D}y^2 = {N}: (x, y) = {sol}"]
    return _report("cornacchia", params, result, checks), summary, 0


def cmd_stickelberger(args):
    p, q = args.p, args.q
    cn = class_number(p)
    if not is_prime(q) or q == p:
        raise BadInput(f"q={q} must be a prime distinct from p")
    target = 4 * q**cn.h
    reps = represent_all(p, target)
    good = [(x, y) for x, y in reps if x % p and gcd(x, y) <= 2]
    params = {"p": p, "q": q}
    checks = [
        _check("unique-up-to-sign", len(good) == 1,
               f"primitive representations of 4q^h with p∤C: {good}"),
    ]
    result = {
        "p": p, "q": q, "h": cn.h, "R": cn.R, "target": str(target),
        "representations": [{"C": str(x), "D": str(y)} for x, y in reps],
    }
    if len(good) == 1:
        absC, absD = good[0]
        sign = stickelberger_sign(p, q, cn.R, absC)
        tgt = stickelberger_target(p, q, cn.R)
        checks.append(
            _check("sign-congruence", sign is not None,
                   f"2(-q)^-R ≡ {tgt} mod {p}; C = ±{absC}")
        )
        if sign is None:
            result["signed_C"] = None
            summary = [f"no sign of C={absC} meets C ≡ {tgt} mod {p}"]
        else:
            result["signed_C"] = str(sign * absC)
            result["D_abs"] = str(absD)
            result["congruence_target"] = tgt
            summary = [
                f"4*{q}^{cn.h} = ({sign * absC})^2 + {p}*{absD}^2, "
                f"C ≡ 2(-q)^-{cn.R} ≡ {tgt} mod {p}"
            ]
    else:
        summary = [f"expected one representation with p∤C, found {len(good)}"]
    return _report("stickelberger", params, result, checks), summary, 0


def cmd_density(args):
    p = args.p
    if not is_prime(p) or p <= 3:
        raise BadInput(f"p={p} must be an odd prime > 3")
    base = density_estimate(p, args.bound)
    cube = density_estimate(p**3, args.bound)
    params = {"p": p, "bound": args.bound}
    result = {
        "p": p, "bound": args.bound,
        "base": {
            "D": p, "represented": base.represented, "primes": base.primes,
            "ratio_fraction": _frac(base.ratio), "ratio": base.ratio_float,
        },
        "cube": {
            "D": p**3, "represented": cube.represented, "primes": cube.primes,
            "ratio_fraction": _frac(cube.ratio), "ratio": cube.ratio_float,
        },
    }
    summary = [
        f"primes ≤ {args.bound}: x^2+{p}y^2 hits {base.represented}/{base.primes}"
        f" = {base.ratio_float:.6f}",
        f"primes ≤ {args.bound}: x^2+{p**3}y^2 hits {cube.represented}/{cube.primes}"
        f" = {cube.ratio_float:.6f}",
    ]
    if p % 4 == 3:
        h = class_number(p).h
        lead = 2 if p % 8 == 7 else 6
        expect_base = Fraction(1, lead * h)
        expect_cube = Fraction(1, lead * p * h)
        result["expected"] = {
            "base": _frac(expect_base), "cube": _frac(expect_cube),
            "base_delta": abs(base.ratio_float - float(expect_base)),
            "cube_delta": abs(cube.ratio_float - float(expect_cube)),
        }
        summary.append(
            f"expected {_frac(expect_base)} and {_frac(expect_cube)} "
            f"(h={h}, p ≡ {p % 8} mod 8)"
        )
    checks = [
        _check("sieve", base.primes == cube.primes and base.primes > 0,
               f"{base.primes} primes ≤ {args.bound}"),
    ]
    return _report("density", params, result, checks), summary, 0


def cmd_explore(args):
    report = remark_explore(
        args.p, args.which, qbound=args.max_q, field_cap=args.field_cap, g=args.g,
    )
    w = report.witness
    params = {
        "p": args.p, "which": args.which, "max_q": args.max_q,
        "field_cap": args.field_cap,
    }
    result = {
        "p": report.p, "which": report.which, "e": report.e, "r": report.r,
        "witness": {
            "q": w.q, "n": w.n, "v": w.v,
            "d": [str(x) for x in w.d],
            "sum_d": str(w.sum_d), "spread": str(w.spread),
            "lhs": str(w.lhs), "rhs": str(w.rhs),
            "i_mod_p": w.i_mod_p, "verdict": w.verdict,
        },
    }
    checks = [
        _check("square-identity", w.lhs == w.rhs,
               f"{report.e}^2 q^(n-2v) = {w.lhs} matches the decomposition"),
    ]
    summary = [
        f"p={report.p} {report.which}: q={w.q} n={w.n} v={w.v}, identity "
        f"{w.lhs} = {w.rhs}, i_{report.r} ≡ {w.i_mod_p} mod {report.p} ({w.verdict})",
    ]
    return _report("explore", params, result, checks), summary, 0


def cmd_verify(args):
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadInput(f"cannot read {args.certificate}: {exc}") from None
    except ValueError as exc:  # not UTF-8, not JSON, or an int literal too long to parse
        raise BadInput(f"{args.certificate} is not JSON: {exc}") from None
    if isinstance(data, dict) and "result" in data and isinstance(data["result"], dict):
        data = data["result"].get("certificate", data)
    if not isinstance(data, dict):
        raise BadInput("certificate document must be a JSON object")
    cert = certificate_from_dict(data)
    problems = check_certificate(cert)
    params = {"certificate": args.certificate}
    result = {
        "p": cert.p, "r": cert.r, "verdict": cert.verdict,
        "ok": not problems, "problems": problems,
    }
    checks = [_check("certificate", not problems,
                     "; ".join(problems) or "all stored identities hold")]
    summary = (
        [f"certificate p={cert.p} verdict={cert.verdict}: OK"]
        if not problems
        else [f"certificate p={cert.p}: INVALID"] + [f"  - {x}" for x in problems]
    )
    return _report("verify", params, result, checks), summary, 0


# --------------------------------------------------------------------------


# option key -> (flag or positional name, add_argument keywords)
_OPTIONS = {
    "p": ("--p", dict(type=int, required=True)),
    "q": ("--q", dict(type=int, required=True)),
    "r": ("--r", dict(type=int, required=True)),
    "full": ("--full", dict(action="store_true", help="include count vectors")),
    "g": ("--g", dict(type=int, default=None, help="primitive root mod p (default: least)")),
    "max_witnesses": ("--max-witnesses", dict(type=int)),
    "max_q": ("--max-q", dict(type=int, default=DEFAULT_QBOUND,
                              help="largest witness prime to try")),
    "field_cap": ("--field-cap", dict(type=int, default=DEFAULT_FIELD_CAP,
                                      help="largest field size q^n to enumerate")),
    "bound": ("--bound", dict(type=int, default=100_000)),
    "D": ("D", dict(type=int)),
    "N": ("N", dict(type=int)),
    "all": ("--all", dict(action="store_true",
                          help="every solution for general N (not only prime)")),
    "which": ("which", dict(choices=["e4", "e6"])),
    "certificate": ("certificate", dict(help="path to a certificate or run-report JSON")),
    "json": ("--json", dict(action="store_true", help="machine output only")),
    "quiet": ("--quiet", dict(action="store_true", help="suppress stderr summary")),
}

# subcommand -> (handler, help, option keys in usage order); a key may carry
# keywords that override its declaration for that subcommand
_COMMANDS = {
    "setup": (cmd_setup, "field and order bookkeeping for (p, q)", ("p", "q", "g")),
    "periods": (cmd_periods, "Gaussian periods, v, d, a", ("p", "q", "full", "g", "field_cap")),
    "indices": (cmd_indices, "cyclotomic-unit index i_r mod p", ("p", "q", "r", "g")),
    "identity": (cmd_identity, "square identity and product congruences",
                 ("p", "q", "g", "field_cap")),
    "certify": (cmd_certify, "certificate for r = (p+1)/2",
                ("p", ("max_witnesses", {"default": 8}), "g", "max_q", "field_cap")),
    "vandiver": (cmd_vandiver, "scan all even eigenspaces",
                 ("p", ("max_witnesses", {"default": 5, "help": "witnesses per eigenspace"}),
                  "g", "max_q", "field_cap")),
    "classnum": (cmd_classnum, "h(-p) via residue sums and forms", ("p",)),
    "cornacchia": (cmd_cornacchia, "solve x^2 + D y^2 = N", ("D", "N", "all")),
    "stickelberger": (cmd_stickelberger, "signed representation of 4q^h and its congruence",
                      ("p", "q")),
    "density": (cmd_density, "prime densities for x^2+py^2, x^2+p^3y^2", ("p", "bound")),
    "explore": (cmd_explore, "order-(p-1)/4 and (p-1)/6 identity data",
                ("which", "p", "g", "max_q", "field_cap")),
    "verify": (cmd_verify, "re-check a stored certificate", ("certificate",)),
}

# exit code and stderr prefix of a failed run: the first class that matches
_FAILURES = (
    (BadInput, 1, "error"),
    (ResourceLimit, 2, "resource limit"),
    (MemoryError, 2, "resource limit"),
    (EigenvanishError, 3, "internal invariant violated"),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="eigenvanish",
                     description="Eigenspace-vanishing certificates for the "
                                 "p-part of cyclotomic class groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_line, keys) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_line)
        for key in keys + ("json", "quiet"):
            key, override = (key, {}) if isinstance(key, str) else key
            flag, kwargs = _OPTIONS[key]
            sp.add_argument(flag, **{**kwargs, **override})
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, summary, code = args.handler(args)
    except (EigenvanishError, MemoryError) as exc:
        code, prefix = next((c, pre) for cls, c, pre in _FAILURES if isinstance(exc, cls))
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        report = _report(args.command, {}, None, [])
        report["error"] = {"type": kind, "message": str(exc) or kind}
        print(json.dumps(report, indent=2, sort_keys=True))
        print(f"{prefix}: {report['error']['message']}", file=sys.stderr)
        return code
    if any(not c["ok"] for c in report["checks"]):
        code = max(code, 2)
    print(json.dumps(report, indent=2, sort_keys=True))
    if not (args.quiet or args.json):
        for line in summary:
            print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

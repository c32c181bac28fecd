import argparse
import dataclasses
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import WRONG_TYPES, forged_golden_certificate, unencodable_certificates

from eigenvanish import cli, errors, ffield, periods, quadforms, units
from eigenvanish.cli import SCHEMA, build_parser, main
from eigenvanish.errors import InternalInvariant
from eigenvanish.ffield import FieldContext, build_field


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, json.loads(out), err


def test_setup_report_shape(capsys):
    code, report, err = run(capsys, "setup", "--p", "7", "--q", "2")
    assert code == 0
    assert report["schema"] == SCHEMA
    assert report["command"] == "setup"
    assert report["timing"] is None
    assert isinstance(report["checks"], list)
    assert all(c["ok"] for c in report["checks"])
    assert report["result"]["n"] == 3
    assert "n=3" in err  # human summary on stderr by default


def test_json_flag_silences_summary(capsys):
    code, report, err = run(capsys, "setup", "--p", "7", "--q", "2", "--json")
    assert code == 0 and err == ""
    code, report, err = run(capsys, "setup", "--p", "7", "--q", "2", "--quiet")
    assert code == 0 and err == ""


def test_bad_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["setup", "--p", "7"])  # missing --q
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    # both name the command argument by its dest
    assert "\neigenvanish: error: argument command: invalid choice: 'no-such-command'" in (
        capsys.readouterr().err
    )
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "\neigenvanish: error: the following arguments are required: command\n"
    )


def test_invalid_input_exits_1(capsys):
    code, report, err = run(capsys, "setup", "--p", "7", "--q", "29")  # 29 ≡ 1 mod 7
    assert code == 1
    assert report["error"]


def test_periods_golden(capsys):
    code, report, err = run(capsys, "periods", "--p", "7", "--q", "2")
    assert code == 0
    res = report["result"]
    assert res["v"] == 1
    assert [int(x) for x in res["d"]] == [1, 0]
    assert [int(x) for x in res["a"]] == [6, 6]


def test_indices_exit_codes(capsys):
    code, report, err = run(capsys, "indices", "--p", "7", "--q", "2", "--r", "4")
    assert code == 0
    assert report["result"]["i_mod_p"] == 1
    assert report["result"]["verdict"] == "Trivial"
    code, report, err = run(capsys, "indices", "--p", "7", "--q", "2", "--r", "2")
    assert code == 2  # index vanished: valid run, inconclusive outcome
    assert report["result"]["verdict"] == "Unknown"


def test_identity_checks_pass(capsys):
    code, report, err = run(capsys, "identity", "--p", "11", "--q", "3")
    assert code == 0
    assert all(c["ok"] for c in report["checks"])


def test_certify_roundtrip_through_verify(capsys, tmp_path):
    code, report, err = run(capsys, "certify", "--p", "7")
    assert code == 0
    assert report["result"]["certificate"]["verdict"] == "Trivial"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(report))
    code, report2, err = run(capsys, "verify", str(path))
    assert code == 0
    # and a tampered copy must be rejected
    report["result"]["certificate"]["witnesses"][0]["b"] = "49"
    path.write_text(json.dumps(report))
    code, report3, err = run(capsys, "verify", str(path))
    assert code == 2
    assert any(not c["ok"] for c in report3["checks"])


@pytest.mark.parametrize("payload", [
    b'\xff\xfe{"p": 7}',  # not UTF-8
    b'{"p": ' + b"1" * 5000 + b"}",  # int literal past the 4,300-digit limit
    b'{"p": 1e400, "r": 4, "verdict": "Trivial", "witnesses": [], "g": 3, "field_cap": 8}',
    b"[]",  # JSON, but not an object
    b"[" * 10_000 + b"]" * 10_000,  # json.load raises RecursionError
], ids=["not-utf8", "long-int", "float-overflow", "array", "too-deep"])
def test_verify_malformed_document_exits_1(capsys, tmp_path, payload):
    path = tmp_path / "cert.json"
    path.write_bytes(payload)
    code, report, err = run(capsys, "verify", str(path), "--json")
    assert code == 1
    assert report["error"]["type"] == "BadInput"
    assert err.startswith("error: ")


@pytest.mark.parametrize("kind", ["no-witnesses", "short-modulus"])
def test_verify_large_p_exits_2_quickly(capsys, tmp_path, kind):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(unencodable_certificates(1_000_000_007)[kind]))
    start = time.process_time()
    code, report, err = run(capsys, "verify", str(path), "--json")
    assert time.process_time() - start < 1.0
    assert code == 2
    assert report["result"]["problems"]


def test_periods_refuses_int64_overflow_quickly(capsys):
    # F_{q^2} with 2(q-1)^2 >= 2^63: an int64 dot product of the scan could
    # wrap, so the run stops before any matmul, with a resource-limit report
    start = time.process_time()
    code, report, err = run(
        capsys, "periods", "--p", "5", "--q", "4294967389",
        "--field-cap", str(10**20), "--json",
    )
    assert time.process_time() - start < 1.0
    assert code == 2
    assert report["error"]["type"] == "FieldTooLarge"
    assert err.startswith("resource limit: ")


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_verify_wrong_types_exit_1(capsys, tmp_path, case):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(forged_golden_certificate(case)))
    code, report, err = run(capsys, "verify", str(path), "--json")
    assert code == 1
    assert report["error"]["type"] == "BadInput"
    assert err.startswith("error: malformed certificate: ")


@pytest.mark.parametrize("argv", [
    ["certify", "--p", "7", "--max-witnesses", "0"],
    ["vandiver", "--p", "7", "--max-witnesses", "-1"],
], ids=["certify-0", "vandiver-minus-1"])
def test_witness_count_below_one_exits_1(capsys, argv):
    code, report, err = run(capsys, *argv, "--json")
    assert code == 1
    assert report["error"]["type"] == "BadInput"


@pytest.mark.parametrize("argv", [
    ["vandiver", "--p", "23", "--g", "4"],
    ["vandiver", "--p", "23", "--g", "4", "--field-cap", "1"],
    ["explore", "e4", "--p", "13", "--g", "4", "--field-cap", "1"],
    ["certify", "--p", "23", "--g", "4", "--max-q", "1"],
], ids=["vandiver", "vandiver-cap-1", "explore-cap-1", "certify-max-q-1"])
def test_non_primitive_g_exits_1(capsys, argv):
    code, report, err = run(capsys, *argv, "--json")
    assert code == 1
    assert report["error"]["type"] == "BadInput"
    assert "g=4 is not a primitive root" in report["error"]["message"]


@pytest.mark.parametrize("argv, g, p", [
    (["vandiver", "--p", "23", "--field-cap", "1"], 23, 23),
    (["certify", "--p", "23"], 23, 23),
    (["explore", "e4", "--p", "13", "--field-cap", "1"], 13, 13),
    (["vandiver", "--p", "23"], 0, 23),
], ids=["vandiver-cap-1", "certify", "explore-cap-1", "vandiver-g-0"])
def test_g_divisible_by_p_exits_1(capsys, argv, g, p):
    code, report, err = run(capsys, *argv, "--g", str(g), "--json")
    assert code == 1
    assert report["error"]["type"] == "BadInput"
    assert report["error"]["message"] == f"g={g} is not a primitive root mod {p}"


@pytest.mark.parametrize("argv", [
    ["classnum", "--p", "91"],
    ["classnum", "--p", "15"],
    ["stickelberger", "--p", "15", "--q", "7"],
], ids=["classnum-91", "classnum-15", "stickelberger-15"])
def test_composite_p_exits_1(capsys, argv):
    code, report, err = run(capsys, *argv, "--json")
    assert code == 1
    assert report["error"]["type"] == "BadPrime"


@pytest.mark.parametrize("argv, message", [
    (["verify", "{tmp}/missing.json"], "cannot read"),
    (["stickelberger", "--p", "7", "--q", "9"], "q=9 must be a prime"),
    (["density", "--p", "9"], "p=9 must be an odd prime"),
], ids=["verify-missing", "stickelberger-q9", "density-p9"])
def test_handler_bad_input_exits_1(capsys, tmp_path, argv, message):
    code, report, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert report["error"]["type"] == "BadInput"
    assert message in report["error"]["message"]
    assert err.startswith("error:")


def test_failing_check_exits_2_without_a_handler_code(capsys, monkeypatch):
    # the handler returns 0; the failed sign-congruence check alone gives 2.
    # The handler imports stickelberger_sign when it runs, so patch its home.
    monkeypatch.setattr(quadforms, "stickelberger_sign", lambda *args: None)
    code, report, err = run(capsys, "stickelberger", "--p", "7", "--q", "11", "--json")
    assert code == 2
    assert report["result"]["signed_C"] is None
    assert [c["ok"] for c in report["checks"]] == [True, False]


@pytest.mark.parametrize("p, q, k", [
    (7, 2, 0), (13, 3, 1), (13, 5, 2), (7, 2, 1), (13, 3, 2), (13, 3, 3),
])
def test_indices_check_refuses_a_tampered_index_vector(capsys, monkeypatch, p, q, k):
    # c_k off by one at any coset k < e (n = 3, 3, 4, 3, 3 and 3): the
    # recomputed (1 - zeta^(g^k))^f no longer matches zeta^(c_k). For odd n
    # the cosets k >= e/2 are the paired ones, which `index_vector` derives
    # from the first e/2 rather than from a discrete log
    real = units.index_vector

    def tampered(ctx, setup):
        vector = real(ctx, setup)
        c = list(vector.c)
        c[k] = (c[k] + 1) % p
        return dataclasses.replace(vector, c=tuple(c))

    code, report, err = run(capsys, "indices", "--p", str(p), "--q", str(q), "--r", "4", "--json")
    assert code in (0, 2) and report["checks"][0]["ok"]
    monkeypatch.setattr(units, "index_vector", tampered)
    code, report, err = run(capsys, "indices", "--p", str(p), "--q", str(q), "--r", "4", "--json")
    assert code == 2
    assert report["checks"] == [{
        "name": "beta-power-in-order-p-subgroup", "ok": False,
        "detail": "discrete log of beta^f found in the order-p subgroup",
    }]


def test_every_error_class_is_exported_with_an_exit_code():
    import eigenvanish
    from eigenvanish import errors

    for name, cls in inspect.getmembers(errors, inspect.isclass):
        if issubclass(cls, errors.EigenvanishError):
            assert name in eigenvanish.__all__ and getattr(eigenvanish, name) is cls, name
            code = next(c for base, c, _ in cli._FAILURES if issubclass(cls, base))
            assert code in (1, 2, 3), name


@pytest.mark.parametrize("argv", [
    "setup --p 7 --q 1",
    "certify --p 7 --max-q 0",
    "vandiver --p 7 --field-cap -1",
    "periods --p 7 --q 2 --field-cap 0",
    "density --p 7 --bound 10",
    "cornacchia 5 0 --all",
    "explore e4 --p 29 --field-cap 1",
    "indices --p 7 --q 2 --r 3",
    # the piece (2^15569 + 1)/3 of 2^31138 - 1 has 4,687 digits, past
    # CPython's limit for str(int)
    "setup --p 31139 --q 2",
])
def test_edge_inputs_keep_the_exit_contract(capsys, monkeypatch, argv):
    # one Miller-Rabin pass on a 4,687-digit piece takes seconds; the
    # refusal calls every such piece composite without it
    prime = ffield.is_prime
    monkeypatch.setattr(ffield, "is_prime", lambda n: n < 10**80 and prime(n))
    code = main(argv.split())
    report = json.loads(capsys.readouterr().out)  # exactly one document
    assert code in (0, 1, 2, 3)
    if "error" in report:
        kind = report["error"]["type"]
        names = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.EigenvanishError)}
        assert code and kind in names | {"MemoryError"}, kind
    else:  # a run that ends exits nonzero only for a failed check
        assert code == (2 if any(not c["ok"] for c in report["checks"]) else 0), report


def test_certify_inconclusive_small_bound(capsys):
    code, report, err = run(capsys, "certify", "--p", "13")
    assert code == 1  # 13 ≡ 1 mod 4 is rejected outright


def test_vandiver_exit_code(capsys):
    code, report, err = run(capsys, "vandiver", "--p", "7")
    assert code == 2  # r=2 stays Unknown
    scans = report["result"]["scans"]
    assert {s["r"]: s["verdict"] for s in scans} == {2: "Unknown", 4: "Trivial"}


def test_vandiver_reports_admissible_orders_of_an_unknown_r(capsys):
    # one witness per r: q = 2 has order 5 mod 31 and i_4 vanishes for it,
    # while order 3, which divides both p - 1 = 30 and p - r = 27, stays untried
    code, report, err = run(capsys, "vandiver", "--p", "31", "--max-witnesses", "1", "--json")
    assert code == 2
    scan = next(s for s in report["result"]["scans"] if s["r"] == 4)
    assert scan["verdict"] == "Unknown"
    assert scan["admissible_orders"] == [3]
    assert scan["tried"] == [{"q": 2, "n": 5, "i_mod_p": 0}]
    check = next(c for c in report["checks"] if c["name"] == "eigenspace-r4")
    assert check == {
        "name": "eigenspace-r4", "ok": False,
        "detail": "no nonzero index among 1 witnesses; orders that could work: [3]",
    }


def test_classnum_golden(capsys):
    code, report, err = run(capsys, "classnum", "--p", "23")
    assert code == 0
    assert report["result"]["h"] == 3
    assert report["result"]["reduced_forms"] == 3


def test_cornacchia_cli(capsys):
    code, report, err = run(capsys, "cornacchia", "7", "11")
    assert code == 0
    assert report["result"]["solution"] == {"x": "2", "y": "1"}
    code, report, err = run(capsys, "cornacchia", "7", "5")
    assert code == 0  # "no solution" is a definite answer
    assert report["result"]["solution"] is None
    code, report, err = run(capsys, "cornacchia", "7", "8")
    assert code == 1  # composite N needs --all
    code, report, err = run(capsys, "cornacchia", "23", str(4 * 59**3), "--all")
    assert code == 0
    assert [[int(s["x"]), int(s["y"])] for s in report["result"]["solutions"]] == [
        [396, 170],
        [708, 118],
    ]


def test_cornacchia_all_lists_swapped_pairs_for_d1(capsys):
    code, report, err = run(capsys, "cornacchia", "1", "461355218", "--all")
    assert code == 0
    assert [[int(s["x"]), int(s["y"])] for s in report["result"]["solutions"]] == [
        [5347, 20803],
        [20803, 5347],
    ]


def test_stickelberger_cli(capsys):
    code, report, err = run(capsys, "stickelberger", "--p", "7", "--q", "11")
    assert code == 0
    assert int(report["result"]["signed_C"]) == -4
    assert all(c["ok"] for c in report["checks"])


def test_density_cli(capsys):
    code, report, err = run(capsys, "density", "--p", "7", "--bound", "1000")
    assert code == 0
    assert report["result"]["base"]["represented"] == 81
    assert report["result"]["base"]["primes"] == 168
    code, report, err = run(capsys, "density", "--p", "7", "--bound", "50")
    assert code == 2


def test_explore_cli(capsys):
    code, report, err = run(capsys, "explore", "e4", "--p", "13")
    assert code == 0
    assert report["result"]["witness"]["i_mod_p"] == 4


def test_byte_identical_reruns(capsys):
    outs = []
    for _ in range(2):
        main(["certify", "--p", "11", "--json"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


GOLDEN_DIR = Path(__file__).parent / "golden"

# golden file -> (argv, exit code); the files hold the exact --json stdout,
# captured from a run in the golden directory (so `verify` sees a relative path)
CLI_GOLDENS = {
    "setup_p7_q2": (["setup", "--p", "7", "--q", "2"], 0),
    "setup_p7_q29": (["setup", "--p", "7", "--q", "29"], 1),  # BadInput report
    "periods_p19_q5_full": (["periods", "--p", "19", "--q", "5", "--full"], 0),
    "indices_p7_q2_r4": (["indices", "--p", "7", "--q", "2", "--r", "4"], 0),
    "indices_p7_q2_r2": (["indices", "--p", "7", "--q", "2", "--r", "2"], 2),
    "identity_p13_q3": (["identity", "--p", "13", "--q", "3"], 0),
    "certify_p31": (["certify", "--p", "31"], 0),  # forms+index route
    "certify_p23": (["certify", "--p", "23"], 0),  # periods+forms route
    "vandiver_p23": (["vandiver", "--p", "23"], 2),
    "classnum_p23": (["classnum", "--p", "23"], 0),
    "cornacchia_7_11": (["cornacchia", "7", "11"], 0),
    "cornacchia_7_5": (["cornacchia", "7", "5"], 0),
    "cornacchia_23_821516_all": (["cornacchia", "23", "821516", "--all"], 0),
    "stickelberger_p7_q11": (["stickelberger", "--p", "7", "--q", "11"], 0),
    "density_p11_bound1000": (["density", "--p", "11", "--bound", "1000"], 0),
    "density_p7_bound50": (["density", "--p", "7", "--bound", "50"], 2),  # ResourceLimit report
    "explore_e4_p13": (["explore", "e4", "--p", "13"], 0),
    "verify_certify_p23": (["verify", "certify_p23.json"], 0),
}

# the stderr line of each golden error report; every other golden run with
# --json writes nothing to stderr
CLI_GOLDEN_STDERR = {
    "setup_p7_q29": "error: q=29 is 1 mod p=7; the order n would be 1\n",
    "density_p7_bound50": "resource limit: X=50 < 100 gives meaningless ratios\n",
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_json_matches_golden_bytes(capsys, monkeypatch, name):
    argv, want_code = CLI_GOLDENS[name]
    monkeypatch.chdir(GOLDEN_DIR)
    code = main(argv + ["--json"])
    out, err = capsys.readouterr()
    assert code == want_code
    assert out.encode() == (GOLDEN_DIR / f"{name}.json").read_bytes()
    assert err == CLI_GOLDEN_STDERR.get(name, "")


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_subcommand_has_a_golden():
    covered = {argv[0] for argv, _ in CLI_GOLDENS.values()}
    assert sorted(set(_subcommands(build_parser())) - covered) == []


def _describe(parser):
    return {
        "help": parser.format_help(),
        "options": [
            [a.option_strings or [a.dest], getattr(a.type, "__name__", a.type),
             a.default, a.required, a.choices, a.help]
            for a in parser._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
        ],
    }


def test_a_named_command_builds_its_subparser_alone():
    assert list(_subcommands(build_parser(["setup"]))) == ["setup"]
    assert len(_subcommands(build_parser())) == 12


def _outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of call(argv), which may exit."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["--json"],
    *([name, flag] for name in cli._COMMANDS for flag in ("-h", "--bogus")),
    *(argv + ["--bogus"] for argv, _ in CLI_GOLDENS.values()),
], ids=" ".join)
def test_help_and_usage_errors_match_the_full_parser(capsys, monkeypatch, argv):
    # main builds one subparser when argv names a command; what it prints and
    # its exit code must be those of the parser with all of them
    monkeypatch.setenv("COLUMNS", "80")
    want = _outcome(capsys, build_parser().parse_args, argv)
    assert want[0] in (0, 1)
    assert _outcome(capsys, main, argv) == want


def test_usage_and_options_match_pins(monkeypatch):
    """Each subcommand's help text (usage line included) and its options in
    order, with flags, type, default, required, choices and help."""
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    got = {"eigenvanish": parser.format_help()}
    got.update({name: _describe(sp) for name, sp in _subcommands(parser).items()})
    want = json.loads((GOLDEN_DIR / "cli_usage.json").read_text(encoding="utf-8"))
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


def test_internal_invariant_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalInvariant("forced")

    monkeypatch.setattr(cli, "build_field", broken)
    code, report, err = run(capsys, "setup", "--p", "7", "--q", "2", "--json")
    assert code == 3
    assert report["result"] is None
    assert report["error"] == {"type": "InternalInvariant", "message": "forced"}
    assert err == "internal invariant violated: forced\n"


@pytest.mark.parametrize("forged", ["one", "generator"])
def test_setup_checks_zeta_in_the_built_field(capsys, monkeypatch, forged):
    # at (7, 3), n = 6 and f = 104: zeta = 1 fails zeta != 1, and the
    # generator, of order 3^6 - 1 = 728, fails zeta^7 = 1
    def forging(setup, cap=None):
        ctx = build_field(setup, cap)
        zeta = (1,) + (0,) * (ctx.n - 1) if forged == "one" else ctx.alpha
        return FieldContext(ctx.q, ctx.n, ctx.modulus, ctx.alpha, zeta, ctx.kronecker, p=ctx.p)

    monkeypatch.setattr(cli, "build_field", forging)
    code, report, err = run(capsys, "setup", "--p", "7", "--q", "3", "--json")
    assert code == 2
    checks = {c["name"]: c["ok"] for c in report["checks"]}
    assert checks == {"order-bookkeeping": True, "zeta-order-p": False}


@pytest.mark.parametrize("forged, failing", [
    ({"R": 5, "V": 8}, {"sum-rule"}),  # h = V - R = 3 still, but R + V = 13
    ({"h": 4}, {"h-odd", "forms-oracle"}),  # an even h also misses the 3 forms
], ids=["sum-rule", "h-odd"])
def test_classnum_checks_read_the_class_number(capsys, monkeypatch, forged, failing):
    # at p = 23, R = 4, V = 7 and h = 3 = the 3 reduced forms
    honest = quadforms.class_number

    def forging(p):
        return dataclasses.replace(honest(p), **forged)

    monkeypatch.setattr(quadforms, "class_number", forging)
    code, report, err = run(capsys, "classnum", "--p", "23", "--json")
    assert code == 2
    checks = {c["name"]: c["ok"] for c in report["checks"]}
    assert checks == {name: name not in failing for name in ("forms-oracle", "sum-rule", "h-odd")}


PERIOD_CHECKS = ("eta-count-sums", "eta-rational", "eta-sum", "eta-mod-q", "v-range")


@pytest.mark.parametrize("broken", PERIOD_CHECKS)
def test_periods_checks_read_the_table(capsys, monkeypatch, broken):
    # at (19, 5), n = 9 and f = 102,796: each forgery of the table breaks
    # exactly one check (+1 on a whole row keeps it rational; eta_0 + q keeps
    # every eta ≡ f mod q; eta_0 + 1 with eta_1 - 1 keeps the sum)
    compute = periods.compute_period_table

    def forging(ctx, setup, backend="numpy"):
        table = compute(ctx, setup, backend)
        rows, eta = [list(r) for r in table.counts], list(table.eta_values)
        if broken == "v-range":
            return dataclasses.replace(table, v=setup.n)
        if broken == "eta-count-sums":
            rows[3] = [c + 1 for c in rows[3]]
        elif broken == "eta-rational":
            rows[3][1] += 1
            rows[3][2] -= 1
        elif broken == "eta-sum":
            eta[0] += setup.q
        else:
            eta[0] += 1
            eta[1] -= 1
        return dataclasses.replace(
            table, counts=tuple(map(tuple, rows)), eta_values=tuple(eta)
        )

    monkeypatch.setattr(periods, "compute_period_table", forging)
    code, report, err = run(capsys, "periods", "--p", "19", "--q", "5", "--json")
    assert code == 2
    checks = {c["name"]: c["ok"] for c in report["checks"]}
    assert checks == {name: name != broken for name in PERIOD_CHECKS}


@pytest.mark.parametrize("message", ["", "Unable to allocate 2.50 GiB"])
def test_out_of_memory_exits_2_with_a_report(capsys, monkeypatch, message):
    # numpy raises a MemoryError subclass with a message, a bytearray a bare one
    class ArrayMemoryError(MemoryError):
        pass

    def exhausted(*args):
        raise ArrayMemoryError(message)

    monkeypatch.setattr(quadforms, "density_estimate", exhausted)
    code, report, err = run(capsys, "density", "--p", "7", "--bound", "1000", "--json")
    assert code == 2
    assert report["result"] is None
    assert report["error"] == {"type": "MemoryError", "message": message or "MemoryError"}
    assert err == f"resource limit: {message or 'MemoryError'}\n"


def test_sieve_out_of_memory_writes_one_stderr_line():
    # a real failed allocation: density's 10^10 + 1 byte sieve in a child
    # that caps its own address space at 3 GiB. A failed bytearray repeat
    # frees an object whose export count was never set, and prints
    # "SystemError: deallocated bytearray object has exported buffers" when
    # that memory held a nonzero word, which varies with the heap's history.
    # An empty environment and fixed hash seeds make each run repeatable (at
    # the bytearray repeat, 5 of these 6 printed it); each must end with one
    # report and one stderr line
    resource = pytest.importorskip("resource")
    cap = 3 << 30
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY and hard < cap:
        pytest.skip(f"the address-space limit {hard} is below {cap}")
    code = (
        "import resource, runpy, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "sys.argv[1:] = ['density', '--p', '7', '--bound', str(10**10), '--json']\n"
        "runpy.run_module('eigenvanish.cli', run_name='__main__')\n"
    )
    # run from the directory that holds the imported package, so that the
    # child finds it with neither PYTHONPATH nor an install
    root = Path(cli.__file__).parents[1]
    for seed in range(6):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=root,
            env={"PYTHONHASHSEED": str(seed), "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert out.returncode == 2, out.stderr
        assert out.stderr == "resource limit: MemoryError\n"
        assert json.loads(out.stdout)["error"] == {"type": "MemoryError", "message": "MemoryError"}


def test_big_integers_serialized_as_strings(capsys):
    code, report, err = run(capsys, "periods", "--p", "19", "--q", "5")
    assert code == 0
    for x in report["result"]["a"]:
        assert isinstance(x, str)
        int(x)

"""The CLI contract on argv drawn from a grammar of valid and invalid values.

For every subcommand, ``lumps`` must exit 0, 1 or 2; nothing but argparse's
SystemExit(2) may escape ``cli.main``; and stdout is exactly one strict-JSON
report (no NaN or Infinity), or empty with exit 2.  Sizes stay cheap:
``--max-n`` <= 20, ``--n`` <= 30, energy windows of at most 20 cells per
side (or far beyond the cap, which is refused), a ``--form`` order of
10^6, which is zero on every pair of a catalog tau, and decimal exponents
far past 4300, which are refused before any integer is built.  The grammar
also draws removed options (``--custom-form``, ``--tol``, ``--x``,
``--jobs``), which argparse must refuse; two more tests keep it covering
every option and subcommand that ``build_parser()`` defines.
"""

import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from lumps import cli
from lumps.polyring import poly_xy, poly_zz

#: valid rationals, junk, non-finite and out-of-float-range values
RATIONALS = ["0", "1", "-2", "1/2", "-3/4", "7/3", "0.25", "1e3", "1e400",
             "1e5000", "1e10000000", "1/0", "abc", "", "nan", "inf", "-inf",
             " 2 "]
INTS = ["x", "", "2.5", "1e3"]
IDS = ["lump2", "pelin6", "yang6", "pelin12", "pelin12-corrected",
       "lump2-bnew", "pelin6-bnew", "pelin12-corrected-bnew", "nope", "",
       "a" * 300]

#: interchange files by name: valid in each basis, and malformed ones
FILES = {
    "lump2.json": poly_xy({(2, 0): 1, (0, 2): 1, (0, 0): 3}).dumps(),
    "lump2zz.json": poly_zz({(1, 1): 1, (0, 0): 3}).dumps(),
    "junk.json": "{not json",
    "list.json": "[1, 2]",
    "basis.json": '{"basis": "qq", "terms": []}',
    "terms.json": '{"basis": "xy", "terms": 5}',
    "negative.json": '{"basis": "xy", "terms": [[-1, 0, "1"]]}',
    "huge.json": '{"basis": "xy", "terms": [[1e400, 0, "1"]]}',
    "exponent.json": '{"basis": "xy", "terms": [[2, 0, "1e10000000"], [0, 2, "1"]]}',
    "nan.json": '{"basis": "xy", "terms": [[0, 0, NaN]]}',
    "fraction.json": '{"basis": "xy", "terms": [[2.5, 0, "1"], [0, 2, "1"], [0, 0, "3"]]}',
    "repeated.json": '{"basis": "xy", "terms": [[2, 0, "1"], [2, 0, "5"], [0, 2, "1"]]}',
    "boolean.json": '{"basis": "xy", "terms": [[2, 0, "1"], [0, 2, "1"], [false, 0, "3"]]}',
    "imag.json": '{"basis": "xy", "terms": [[2, 0, {"re": "1", "imag": "5"}]]}',
    "twice.json": ('{"basis": "xy", "terms": [[0, 0, "1"]], '
                   '"terms": [[2, 0, "1"], [0, 2, "1"], [0, 0, "3"]]}'),
    "twice_re.json": ('{"basis": "xy", "terms": [[2, 0, "1"], [0, 2, "1"], '
                      '[0, 0, {"re": "1", "re": "3"}]]}'),
    "zero_den.json": '{"basis": "xy", "terms": [[2, 0, "1"], [0, 2, "1"], [0, 0, "1/0"]]}',
    "zero_den_im.json": '{"basis": "xy", "terms": [[2, 0, {"re": "1", "im": "1/0"}]]}',
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """--tau values (the files, a directory, a missing file) and --out values."""
    root = tmp_path_factory.mktemp("interchange")
    for name, text in FILES.items():
        (root / name).write_text(text)
    unreadable = [str(root), str(root / "missing.json")]
    return {"tau": [str(root / name) for name in FILES] + unreadable,
            "out": [str(root / "scan.csv"), str(root), str(root / "missing" / "x.csv")]}


def option(flag, values):
    """Nothing, or ``flag=value`` for a value drawn from values."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [f"{flag}={v}"]))


def concat(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def grammar(command, paths):
    taus = IDS + paths["tau"]
    if command == "verify":
        # presets, the removed preset even-section and unknown names, then
        # JSON forms: --custom-form, however valid, is refused
        forms = ["standard", "yang", "yang-elliptic", "bnew",
                 "even-section", "nope", "",
                 '[["1",4,0],["-1",2,0],["-1",0,2]]', '[["1",4,0]]', "[]",
                 "{}", '["140"]', '[["x",4,0]]', "[[1,1,0]]", "[[1,-2,0]]",
                 "[[0,2,0]]", "[[1,2]]", "not json", '[["1/0",2,0]]',
                 "[[1,1e400,0]]", "[[NaN,2,0]]", '[["1",1000000,0]]',
                 '[["1",4.5,0]]', '[["1","4",0]]', "[[1,true,true]]",
                 '[["1e10000000",4,0]]']
        params = st.lists(st.sampled_from(
            [f"a={r}" for r in RATIONALS] + [f"b={r}" for r in RATIONALS]
            + ["c=1", "a", "=1"]), max_size=3)
        return concat(st.just(["verify"]), option("--tau", taus),
                      option("--form", forms),
                      option("--custom-form", ['[["1",4,0],["-1",2,0],["-1",0,2]]']),
                      params.map(lambda ps: [f"--param={p}" for p in ps]))
    if command == "scan-jn":
        routes = ["J,sigma", "J", "sigma", "gamma", "J,gamma", "sigma,gamma",
                  "", ",", "bogus", "J,,sigma"]
        max_n = st.integers(-2, 20).map(str) | st.sampled_from(INTS)
        return concat(st.just(["scan-jn"]), max_n.map(lambda v: [f"--max-n={v}"]),
                      option("--routes", routes), option("--out", paths["out"]),
                      option("--jobs", ["2"]),
                      option("--pair-convention", ["unordered"]))
    if command == "certify":
        n = st.integers(-3, 30).map(str) | st.sampled_from(INTS)
        return concat(st.just(["certify"]), n.map(lambda v: [f"--n={v}"]))
    if command == "cm-check":
        # the bound is cm.RESIDUAL_TOL: a --tol, however valid, is refused
        heights = st.lists(st.sampled_from(RATIONALS), max_size=3).map(",".join)
        return concat(st.just(["cm-check"]), option("--tau", IDS),
                      heights.map(lambda y: [f"--y={y}"]),
                      option("--tol", ["1e-9", "0", "1", "-1", "nan", "inf", "x"]))
    if command == "lax-table":
        return concat(st.just(["lax-table"]), option("--x", ["1"]))
    if command == "lax-probe":
        return concat(st.just(["lax-probe"]),
                      option("--point", ["k1+", "k1-", "k2+", "k2-", "k9+", ""]),
                      option("--x", ["1"]))
    if command == "energy":
        # R / h <= 20 whenever both are valid; a valid R never meets a tiny
        # h, and R = 1e9 is refused before any node is allocated
        half_widths = ["1", "2", "5", "10", "0", "-1", "nan", "inf", "x",
                       "1e-300", "1e9"]
        steps = ["0.5", "1", "2", "5", "0", "-1", "nan", "inf", "x"]
        window = (st.tuples(st.sampled_from(half_widths), st.sampled_from(steps))
                  | st.just(("1e9", "0.1")))
        return concat(st.just(["energy"]), option("--tau", taus),
                      window.map(lambda w: [f"--half-width={w[0]}", f"--step={w[1]}"]),
                      option("--ratio-to", ["lump2-bnew", "lump2", "nope"]))
    if command == "degree":
        k = st.integers(-3, 10 ** 6).map(str) | st.sampled_from(INTS)
        return concat(st.just(["degree"]), k.map(lambda v: [f"--k={v}"]))
    raise ValueError(command)


def refuse(token):
    raise ValueError(f"non-strict JSON constant {token}")


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected argv
            assert exc.code == 2, (argv, exc.code)
            code = 2
    assert code in (0, 1, 2), (argv, code)
    text = out.getvalue()
    if not text:
        assert code == 2, (argv, code, err.getvalue())
        return
    report = json.loads(text, parse_constant=refuse)  # one document, strict
    assert isinstance(report, dict) and report["command"] == argv[0], argv


COMMANDS = ["verify", "scan-jn", "certify", "cm-check", "lax-table",
            "lax-probe", "energy", "degree"]


@pytest.mark.parametrize("command", COMMANDS)
def test_contract(command, paths):
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(grammar(command, paths))
    def check(argv):
        check_contract(argv)

    check()


@pytest.mark.parametrize("argv", [[], ["nope"], ["verify"], ["lax-table", "extra"]])
def test_argparse_errors_leave_stdout_empty(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def parser_options():
    """Subcommand -> the long options build_parser() defines for it."""
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in p._actions for flag in action.option_strings
                   if flag.startswith("--") and flag != "--help"}
            for name, p in sub.choices.items()}


def test_commands_list_every_subcommand():
    assert sorted(COMMANDS) == sorted(parser_options())


@pytest.mark.parametrize("command, flag", sorted(
    (command, flag) for command, flags in parser_options().items() for flag in flags))
def test_grammar_draws_every_option(command, flag, paths):
    # NoSuchExample when no drawn argv carries the option (nothing to shrink)
    find(grammar(command, paths),
         lambda argv: any(a.startswith(flag + "=") for a in argv),
         settings=settings(database=None, phases=[Phase.generate]))

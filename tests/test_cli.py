import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from basechange import cli, laurent
from basechange.cli import COMMANDS, _render, build_parser, main
from basechange.extquot import extended_quotient
from basechange.finiteness import FinitenessCertificate, finiteness_certificate
from basechange.gl1 import MAX_CIRCLES
from basechange.ktheory import CircleSpace, KMorphism, ProperCircleMap, induced_map
from basechange.value import Records
from test_ktheory import _grids, from_grid, proper_maps

UNRAMIFIED_CUBIC = '{"q": 3, "p": 3, "e": 1, "f": 3, "galois": true, "cyclic": true, "filtration_orders": []}'
TAME_QUADRATIC = '{"q": 3, "p": 3, "e": 2, "f": 1, "galois": true, "cyclic": true, "filtration_orders": [2]}'
WILD_CUBIC = '{"q": 3, "p": 3, "e": 3, "f": 1, "galois": true, "filtration_orders": [3, 3]}'
CYCLIC_WILD_CUBIC = WILD_CUBIC.replace('"galois": true', '"galois": true, "cyclic": true')

PAIR = json.dumps(
    {
        "quad": {"q": 5, "p": 5, "e": 2, "f": 1, "galois": True, "cyclic": True,
                 "filtration_orders": [2]},
        "xi": {"conductor": 2, "index": 0, "unitary": True},
        "flags": {"not_norm_factor": True, "level_one_norm_factor": False},
    }
)

# the unramified cubic lift of PAIR's base field
PAIR_LIFT = UNRAMIFIED_CUBIC.replace('"q": 3, "p": 3', '"q": 5, "p": 5')

KMAP = '{"source": ["a"], "target": ["x"], "matches": [{"from": "a", "to": "x", "degree": 2}]}'


def pair_with(**fields) -> str:
    """PAIR with some top-level fields replaced."""
    return json.dumps({**json.loads(PAIR), **fields})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if code == 0 else None), err


def test_extquot_text(capsys):
    code, out, _ = run(capsys, "extquot", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "4: Sym^1",
        "3+1: Sym^1 x Sym^1",
        "2+2: Sym^2",
        "2+1+1: Sym^1 x Sym^2",
        "1+1+1+1: Sym^4",
    ]


def test_extquot_json(capsys):
    code, payload, _ = run_json(capsys, "extquot", "--n", "5")
    assert code == 0
    assert payload["schema_version"] == 1
    assert len(payload["components"]) == 7
    assert payload["components"][0] == {"partition": [5], "factors": [{"sym_power": 1}]}


def test_extquot_invalid_n(capsys):
    assert run(capsys, "extquot", "--n", "0")[0] == 2
    assert run(capsys, "extquot", "--n", "31")[0] == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["extquot", "--n", "4", "--bogus"])
    assert err.value.code == 2


# the flags each subcommand requires, with values argparse accepts
REQUIRED = {
    "extquot": ["--n", "3"],
    "psi": ["--x", "1"],
    "norm-level": ["--extension", "{}", "--level", "1"],
    "bc-gl1": ["--extension", "{}"],
    "bc-gl2": ["--pair", "{}", "--lift", "{}"],
    "kmap": ["--map", "{}"],
    "finiteness": ["--r", "1", "--f", "1"],
}
INT_FLAG = {"extquot": "--n", "norm-level": "--level", "bc-gl1": "--max-conductor", "finiteness": "--r"}


def _front_end_argvs():
    yield from (["-h"], [], ["bogus"], ["bogus", "--n", "3"], ["--"], ["--", "psi", "--x", "1"],
                ["--bogus"], ["--format", "json", "psi", "--x", "1"])
    # argv the plain reader leaves to argparse, which ends them
    yield from (["psi", "--x", "-1/2"], ["psi", "--x", "1", "--form", "xml"], ["extquot", "--n=x"],
                ["extquot", "--n", "3", "--n"])
    for name, required in REQUIRED.items():
        yield from ([name, "-h"], [name], [name, "bogus"], [name, "--"], [name, "--bogus"])
        yield [name] + required[:-2] + ["--format", "json"]  # last required flag missing
        yield [name] + required + ["--format", "xml"]
        yield [name] + required + ["extra"]
        if name in INT_FLAG:
            yield [name] + required + [INT_FLAG[name], "x"]


def _exit(capsys, parse, argv):
    """Exit code, stdout and stderr of parse(argv), which argparse ends by SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", list(_front_end_argvs()), ids=" ".join)
def test_front_end_matches_full_parser(capsys, argv):
    # main reads a plain argv itself and hands every other one to the
    # parser, whose help, usage lines and messages must come out unchanged
    assert _exit(capsys, main, argv) == _exit(capsys, build_parser().parse_args, argv)


def _stock_parser():
    """build_parser's full parser built the plain argparse way.

    Every formatter asks the terminal for its width, and add_subparsers
    renders a usage line for the subcommands' prog.
    """
    parser = argparse.ArgumentParser(prog="basechange", description=build_parser().description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
        p.add_argument("--output", metavar="FILE", help="write output to FILE")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


@pytest.mark.parametrize("columns", ["50", "100"])
def test_front_end_matches_a_stock_parser(capsys, monkeypatch, columns):
    # help, usage and error bytes at a narrow and a wide terminal
    monkeypatch.setenv("COLUMNS", columns)
    for argv in _front_end_argvs():
        assert _exit(capsys, main, argv) == _exit(capsys, _stock_parser().parse_args, argv), argv


# values for the flags in the reader's property test: ones int() reads
# loosely, ones starting with "-", choices and not, and a JSON object
FLAG_VALUES = ["", "3", "1_0", " 4 ", "+2", "\u0661\u0662", "-1", "-", "7/2", "xml", "json", '{"q": 3}']


@st.composite
def _flag_argvs(draw):
    """A subcommand, maybe its required flags, then its flags; one in ten has a value too many or too few."""
    name = draw(st.sampled_from(list(COMMANDS)))
    flags = dict(cli.OUTPUT_FLAGS + COMMANDS[name][1])
    argv = [name] + (REQUIRED[name] if draw(st.booleans()) else [])
    for flag in draw(st.lists(st.sampled_from(list(flags)), max_size=5)):
        argv.append(flag)
        if (flags[flag].get("action") != "store_true") == draw(st.integers(0, 9).map(bool)):
            argv.append(draw(st.sampled_from(FLAG_VALUES)))
    return argv


@settings(max_examples=300)  # about one argv in eight is plain
@given(_flag_argvs())
def test_plain_reader_returns_the_stock_namespace_or_none(argv):
    args = cli._read_plain(argv)
    assert args is None or vars(args) == vars(_stock_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    *([name] + required for name, required in REQUIRED.items()),
    ["psi", "--orders", "", "--x", "1"],
    ["psi", "--x", "1", "--x", "7/2"],
    ["extquot", "--n", "3", "--n", "5"],  # the last value wins
    ["finiteness", "--r", "1", "--f", "1", "--verify"],
    ["extquot", "--n", "3", "--format", "json", "--output", "FILE"],
], ids=" ".join)
def test_plain_reader_reads_plain_argv(argv):
    args = cli._read_plain(argv)
    assert args is not None
    assert vars(args) == vars(_stock_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["-h"], ["psi", "-h"], ["psi", "--help"],
    ["bc-gl1", "--extension", "{}", "--max", "3"],  # an abbreviation
    ["psi", "--x", "1", "--format=json"],
    ["psi", "--x", "-1"],
    ["psi", "--", "--x", "1"],
    ["psi", "--x", "1", "extra"],
    ["norm-level", "--extension", "{}"],  # --level is required
    ["extquot", "--n", "x"],
    ["psi", "--x", "1", "--format", "xml"],
], ids=" ".join)
def test_plain_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read_plain(argv) is None


def test_a_plain_argv_builds_no_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("a plain argv built the argparse parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["psi", "--x", "7/2"]) == 0


def test_full_parser_offers_every_subcommand():
    assert list(COMMANDS) == list(REQUIRED)
    for name, required in REQUIRED.items():
        assert build_parser().parse_args([name] + required).command == name
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))


def test_main_calls_the_module_binding_of_the_subcommand(monkeypatch):
    # one binding per subcommand, so a wrapper set on the module is what main runs
    calls = []
    monkeypatch.setattr(cli, "cmd_psi", lambda args: calls.append(args.x) or 0)
    assert main(["psi", "--x", "7/2"]) == 0
    assert calls == [["7/2"]]


def test_psi_examples(capsys):
    code, payload, _ = run_json(capsys, "psi", "--orders", "3", "--x", "2")
    assert code == 0
    assert payload["rows"][0] == {"x": "2/1", "psi": "6/1", "phi": "2/3"}

    code, payload, _ = run_json(capsys, "psi", "--orders", "", "--x", "7")
    assert payload["rows"][0]["psi"] == "7/1"

    code, payload, _ = run_json(capsys, "psi", "--orders", "3,3", "--x", "2")
    assert payload["rows"][0]["psi"] == "4/1"


def test_psi_text_and_json_contents_agree(capsys):
    code, text_out, _ = run(capsys, "psi", "--orders", "3,3", "--x", "7/2")
    code2, payload, _ = run_json(capsys, "psi", "--orders", "3,3", "--x", "7/2")
    assert code == code2 == 0
    from fractions import Fraction

    row = payload["rows"][0]
    cells = text_out.splitlines()[-1].split(" | ")
    assert [Fraction(c) for c in cells] == [
        Fraction(row["x"]), Fraction(row["psi"]), Fraction(row["phi"])
    ]


def test_psi_invalid_orders(capsys):
    code, _, err = run(capsys, "psi", "--orders", "2,3", "--x", "1")
    assert code == 2


@pytest.mark.parametrize("x", ["1/0", "7/0", " 5/0 "])
def test_psi_zero_denominator_exits_2(capsys, x):
    code, out, err = run(capsys, "psi", "--orders", "3", "--x", x)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: zero denominator in {x.strip()!r}"]


@pytest.mark.parametrize("x", ["1e5000", "1e999999999", "-2.5e-999999999"])
def test_psi_oversized_rational_exits_2(capsys, x):
    # refused before Fraction computes 10**exponent
    start = time.perf_counter()
    code, out, err = run(capsys, "psi", "--orders", "3", f"--x={x}")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: rational {x!r} has more than 4300 digits"]


G0 = "100000000"  # |G_0| = 10**8, 9 digits: psi's slopes reach it


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--orders", G0, "--x", "9" * 4299],
         f"rational '{'9' * 4299}' times {G0} has more than 4300 digits"),
        (["--orders", G0, "--x", "1/" + "7" * 4293],
         f"rational '1/{'7' * 4293}' times {G0} has more than 4300 digits"),
        (["--orders", G0, "--x", "1e4292"], f"rational '1e4292' times {G0} has more than 4300 digits"),
        (["--orders", "1" * 4301, "--x", "1"],
         f"ramification order '{'1' * 4301}' has more than 4300 digits"),
        (["--orders", "3,,2", "--x", "1"], "ramification orders '3,,2': '' is not an integer"),
        (["--orders", "3,x", "--x", "1"], "ramification orders '3,x': 'x' is not an integer"),
    ],
)
def test_psi_size_guard(capsys, argv, message):
    # refused before any arithmetic, where Python's int/str limit would end the request
    start = time.perf_counter()
    code, out, err = run(capsys, "psi", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_psi_largest_accepted_inputs_print(capsys):
    # |G_0| * x reaches 4,300 digits, the most Python prints
    x = "9" * 4292
    code, payload, _ = run_json(capsys, "psi", "--orders", G0, "--x", x, "--x", "1/" + "7" * 4292)
    assert code == 0
    assert len(str(int(G0) * int(x))) == 4300
    assert payload["rows"][0] == {"x": f"{x}/1", "psi": f"{int(G0) * int(x)}/1", "phi": f"{x}/{G0}"}
    assert payload["rows"][1]["phi"] == f"1/{int(G0) * int('7' * 4292)}"
    g0 = str(10**4299)  # the longest order accepted
    code, out, _ = run(capsys, "psi", "--orders", g0, "--x", "1")
    assert code == 0
    assert out.splitlines()[-1] == f"1 | {g0} | 1/{g0}"


def test_psi_long_chain_is_linear(capsys):
    # 20,000 orders 2: psi(x) = x up to 19,999, then 19,999 + 2*(x - 19,999)
    xs = ["1", "7/2", "19999", "20001/1", "1000000"]
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, "psi", "--orders", ",".join(["2"] * 20000),
                                *(arg for x in xs for arg in ("--x", x)))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert [row["psi"] for row in payload["rows"]] == ["1/1", "7/2", "19999/1", "20003/1", "1980001/1"]
    assert payload["rows"][-1]["phi"] == "1019999/2"


def test_psi_reads_exponents_and_fractions(capsys):
    code, payload, _ = run_json(capsys, "psi", "--x", "1.5e3", "--x", "7/2", "--x", "1e4299")
    assert code == 0
    assert [row["x"] for row in payload["rows"]] == ["1500/1", "7/2", f"{10**4299}/1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["norm-level", "--level", "2", "--extension",
          TAME_QUADRATIC.replace("[2]", "5")], "filtration_orders must be a list, got int"),
        (["bc-gl1", "--max-conductor", "1", "--extension",
          UNRAMIFIED_CUBIC.replace('"q": 3', '"q": [3]')], "q must be an integer, got list"),
        (["norm-level", "--level", "2", "--extension",
          TAME_QUADRATIC.replace("[2]", "[null]")], "filtration_orders must be an integer, got NoneType"),
        (["kmap", "--map", '{"source": [["a"], "b"], "target": ["x"], "matches": []}'],
         "source must be a list of string labels"),
        (["kmap", "--map", '{"source": ["a"], "target": ["x"],'
          ' "matches": [{"from": "a", "to": "x", "degree": [2]}]}'],
         "degree must be an integer, got list"),
        (["bc-gl1", "--max-conductor", "1", "--extension",
          UNRAMIFIED_CUBIC.replace('"galois": true', '"galois": "no"')],
         "galois must be true or false, got str"),
        (["kmap", "--map", '{"source": ["a"], "target": ["x"],'
          ' "matches": [{"from": "a", "to": "x", "degree": "2"}]}'],
         "degree must be an integer, got str"),
        (["norm-level", "--level", "2", "--extension",
          TAME_QUADRATIC.replace('"q": 3', '"q": 3.5')], "q must be an integer, got float"),
        (["bc-gl2", "--lift", UNRAMIFIED_CUBIC, "--pair",
          PAIR.replace('"unitary": true', '"unitary": 1')],
         "unitary must be true or false, got int"),
        (["kmap", "--map", '{"source": ["a"], "target": ["x"],'
          ' "matches": [{"from": ["a"], "to": "x", "degree": 1}]}'],
         "match labels must be strings"),
        (["bc-gl2", "--lift", UNRAMIFIED_CUBIC, "--pair", pair_with(flags=[])],
         "flags must be an object, got list"),
        (["bc-gl2", "--lift", UNRAMIFIED_CUBIC, "--pair", pair_with(xi=[2])],
         "xi must be an object, got list"),
        (["bc-gl2", "--lift", UNRAMIFIED_CUBIC, "--pair", pair_with(quad=[1])],
         "quad must be an object, got list"),
        (["kmap", "--map", '{"source": ["a"], "target": ["x"], "matches": [["a", "x", 1]]}'],
         "match must be an object, got list"),
        (["kmap", "--map", '{"source": ["a"], "target": ["x"], "matches": ["a"]}'],
         "match must be an object, got str"),
        (["kmap", "--map", '{"source": ["a"], "target": ["x"], "matches": {"from": "a"}}'],
         "matches must be a list, got dict"),
        # inline JSON that is no object, and objects that lack a required field
        (["norm-level", "--level", "2", "--extension", " []"], "input must be an object, got list"),
        (["norm-level", "--level", "2", "--extension", '{"q": 3}'], "missing field 'p'"),
        (["kmap", "--map", '{"target": ["x"]}'], "missing field 'source'"),
        (["kmap", "--map", '{"source": ["a"], "target": ["x"], "matches": [{"from": "a", "to": "x"}]}'],
         "missing field 'degree'"),
        (["bc-gl2", "--lift", UNRAMIFIED_CUBIC, "--pair", json.dumps({"quad": json.loads(PAIR)["quad"]})],
         "missing field 'xi'"),
        # null is a mistyped list, not an omitted field
        (["norm-level", "--level", "2", "--extension",
          TAME_QUADRATIC.replace("[2]", "null")], "filtration_orders must be a list, got NoneType"),
        (["bc-gl1", "--max-conductor", "1", "--extension",
          UNRAMIFIED_CUBIC.replace("[]", "null")], "filtration_orders must be a list, got NoneType"),
    ],
)
def test_mistyped_json_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


# values for the contract's property test: small numbers, so every request
# stays fast, and for each JSON flag objects that are valid, out of scope,
# mistyped or missing a field
CONTRACT_NUMBERS = ["0", "1", "2", "3", "-1", "7/0", ""]
CONTRACT_JSON = {
    "--extension": [UNRAMIFIED_CUBIC, TAME_QUADRATIC, WILD_CUBIC, UNRAMIFIED_CUBIC.replace("3,", '"3",', 1), "[]"],
    "--lift": [PAIR_LIFT, UNRAMIFIED_CUBIC, '{"q": 5}'],
    "--pair": [PAIR, pair_with(xi=[2]), pair_with(flags=[]), "{}"],
    "--map": [KMAP, KMAP.replace("2}", '"2"}'), KMAP.replace(', "degree": 2', ""), KMAP.replace('["a"]', '"a"')],
}
CONTRACT_TOKENS = CONTRACT_NUMBERS + ["json"] + [value for values in CONTRACT_JSON.values() for value in values]
_seven_in_eight = st.sampled_from([True] * 7 + [False])


@st.composite
def _contract_argvs(draw):
    """A subcommand, then its required flags (one in eight left out) and up to three more.

    Seven flags in eight get a value: two in three one of the flag's own
    kind (a choice, JSON for a JSON flag, else a number), else any token
    or flag.
    """
    name = draw(st.sampled_from(list(COMMANDS)))
    flags = dict(cli.OUTPUT_FLAGS + COMMANDS[name][1])
    required = [flag for flag, kwargs in flags.items() if kwargs.get("required") and draw(_seven_in_eight)]
    argv = [name]
    for flag in draw(st.permutations(required)) + draw(st.lists(st.sampled_from(list(flags)), max_size=3)):
        argv.append(flag)
        own = flags[flag].get("choices") or CONTRACT_JSON.get(flag, CONTRACT_NUMBERS)
        if draw(_seven_in_eight):
            anything = st.sampled_from(CONTRACT_TOKENS + list(flags))
            argv.append(draw(st.sampled_from(own) | st.sampled_from(own) | anything))
    return argv


@settings(max_examples=150, deadline=None)
@given(_contract_argvs())
@example(["finiteness", "--r", "2", "--f", "3", "--window", "1"])  # exit 4
@example(["bc-gl1", "--extension", WILD_CUBIC])  # exit 3
@example(["kmap", "--map", KMAP.replace(', "degree": 2', "")])  # a missing field
def test_every_argv_ends_in_a_documented_exit(argv):
    # main returns 0, 2, 3 or 4, and a refusal after parsing is one stderr
    # line; only argparse ends a request by SystemExit.  --output writes
    # into a fresh directory.
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()) as err:
        os.chdir(tmp)
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and err.getvalue().startswith("usage: ")
            return
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    if code:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")


def test_json_file_must_hold_an_object(capsys, tmp_path):
    path = tmp_path / "extension.json"
    path.write_text("[3, 3, 2, 1]")
    code, out, err = run(capsys, "norm-level", "--level", "2", "--extension", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: input must be an object, got list"]


def cli_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_json_path_must_be_a_regular_file(tmp_path):
    # a FIFO without a writer blocks the reader; it is refused before it is opened
    fifo = tmp_path / "extension.fifo"
    os.mkfifo(fifo)
    proc = subprocess.run(
        [sys.executable, "-m", "basechange.cli", "norm-level", "--level", "2", "--extension", str(fifo)],
        capture_output=True, text=True, env=cli_env(), timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: input path {str(fifo)!r} is not a regular file"]


# argv before the JSON value, one per flag that reads JSON
JSON_FLAGS = [
    ("norm-level", "--level", "2", "--extension"),
    ("bc-gl1", "--extension"),
    ("bc-gl2", "--lift", UNRAMIFIED_CUBIC, "--pair"),
    ("bc-gl2", "--pair", PAIR, "--lift"),
    ("kmap", "--map"),
]


@pytest.mark.parametrize("depth", [1_000, 100_000])
@pytest.mark.parametrize("from_file", [False, True])
@pytest.mark.parametrize("prefix", JSON_FLAGS)
def test_deeply_nested_json_exits_2(capsys, tmp_path, prefix, from_file, depth):
    # the decoder recurses once per nesting level; how deep it gets before
    # refusing depends on the Python version, but it never ends in a traceback
    value = '{"q": ' + "[" * depth + "]" * depth + "}"
    if from_file:
        path = tmp_path / "deep.json"
        path.write_text(value)
        value = str(path)
    code, out, err = run(capsys, *prefix, value)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if depth == 100_000:
        assert err == "error: input JSON is nested too deeply\n"


def test_norm_level(capsys):
    code, payload, _ = run_json(
        capsys, "norm-level", "--extension", TAME_QUADRATIC, "--level", "6"
    )
    assert code == 0
    assert payload["level_F"] == 3

    code, _, err = run(
        capsys, "norm-level", "--extension", TAME_QUADRATIC, "--level", "5"
    )
    assert code == 2
    assert "NotInPsiImage" in err


def test_bc_gl1_unramified(capsys):
    code, payload, _ = run_json(
        capsys, "bc-gl1", "--extension", UNRAMIFIED_CUBIC, "--max-conductor", "2"
    )
    assert code == 0
    assert payload["degree"] == 3
    assert payload["map"]["conductor_map"] == {"0": 0, "1": 1, "2": 2}
    first = payload["map"]["pairs"][0]
    assert first == {
        "from": {"conductor": 0, "index": 0},
        "to": {"conductor": 0, "index": 0},
        "degree": 3,
    }
    k1 = payload["k1"]["entries"]
    assert all(k1[i][i] == 3 for i in range(len(k1)))


# stdout sha256 of `bc-gl1 --format json`, recorded with the scan-based
# circle lookups and json.dumps(payload, indent=2)
@pytest.mark.parametrize(
    "extension, bound, digest",
    [
        ('{"q": 5, "p": 5, "e": 1, "f": 2, "galois": true, "cyclic": true,'
         ' "filtration_orders": []}', 4,
         "d27d4fd985894f768799cf22fae38e8875068600db005aa4633fe561a15c1b6d"),
        (CYCLIC_WILD_CUBIC, 5, "e0bfe1e549a2ffd5e24f0a45cf624c9e8a5af98a267b2052b4d8679a63bd6512"),
    ],
)
def test_bc_gl1_output_is_pinned(capsys, extension, bound, digest):
    code, out, _ = run(
        capsys, "bc-gl1", "--extension", extension, "--max-conductor", str(bound),
        "--format", "json",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("bound", ["4", "1000000000"])
def test_bc_gl1_circle_cap_exits_2(capsys, bound):
    # q=7 gives 6 * 7**3 = 2,058 circles at bound 4, over the 2,000 cap;
    # the huge bound must be refused without computing 7**999999999
    start = time.perf_counter()
    code, out, err = run(
        capsys, "bc-gl1", "--max-conductor", bound, "--extension",
        UNRAMIFIED_CUBIC.replace('"q": 3, "p": 3', '"q": 7, "p": 7'),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: conductor bound {bound} at q=7 gives more than 2000 circles"
    ]


def test_bc_gl1_tame(capsys):
    code, payload, _ = run_json(
        capsys, "bc-gl1", "--extension", TAME_QUADRATIC, "--max-conductor", "2"
    )
    assert code == 0
    assert payload["map"]["conductor_map"] == {"0": 0, "1": 2, "2": 4}


def test_bc_gl1_wild_exits_3(capsys):
    code, _, err = run(capsys, "bc-gl1", "--extension", WILD_CUBIC)
    assert code == 3
    assert "UnsupportedExtension" in err


WILD_CUBIC_WITHOUT_ORDERS = '{"q": 3, "p": 3, "e": 3, "f": 1, "galois": true, "cyclic": true}'


@pytest.mark.parametrize(
    "argv",
    [
        ["bc-gl1", "--max-conductor", "2", "--extension", WILD_CUBIC_WITHOUT_ORDERS],
        ["norm-level", "--level", "3", "--extension", WILD_CUBIC_WITHOUT_ORDERS],
    ],
)
def test_wild_extension_without_orders_exits_2(capsys, argv):
    # the tame chain [3] is no wild chain: it gave the map 1 -> 3, 2 -> 6,
    # where the listed chain [3, 3] gives 1 -> 1, 2 -> 4
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: a wild extension (p=3 divides e=3) must list filtration_orders"
    ]


@pytest.mark.parametrize("command", [["bc-gl1", "--max-conductor", "2"], ["norm-level", "--level", "3"]])
@pytest.mark.parametrize(
    "e, orders, message",
    [
        (3, [3], "filtration [3] has |G_0/G_1| = 3, divisible by p=3"),
        (6, [6, 2], "filtration [6, 2] has |G_1| = 2, not a power of p=3"),
    ],
)
def test_impossible_filtration_chain_exits_2(capsys, command, e, orders, message):
    # no inertia chain has these orders: bc-gl1 printed the conductor maps
    # 1 -> 3, 2 -> 6 and 1 -> 5, 2 -> 11 for them
    ext = json.dumps({"q": 3, "p": 3, "e": e, "f": 1, "galois": True, "cyclic": True,
                      "filtration_orders": orders})
    code, out, err = run(capsys, *command, "--extension", ext)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


def test_tame_extension_without_orders_runs(capsys):
    tame = TAME_QUADRATIC.replace(', "filtration_orders": [2]', "")
    code, payload, _ = run_json(capsys, "bc-gl1", "--extension", tame, "--max-conductor", "2")
    assert code == 0
    assert payload["extension"]["filtration_orders"] == [2]
    assert payload["map"]["conductor_map"] == {"0": 0, "1": 2, "2": 4}
    code, payload, _ = run_json(capsys, "norm-level", "--extension", tame, "--level", "6")
    assert (code, payload["level_F"]) == (0, 3)


def test_bc_gl1_over_a_large_residue_field_is_fast(capsys):
    # q = p^2 with p the largest prime below 2**20: the field is checked once,
    # with no trial division up to p
    p = 1048573
    ext = f'{{"q": {p**2}, "p": {p}, "e": 1, "f": 1, "galois": true, "cyclic": true}}'
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, "bc-gl1", "--max-conductor", "0", "--extension", ext)
    assert time.perf_counter() - start < 0.05
    assert code == 0
    assert payload["dual"] == {"q": p**2, "M": 0, "circles": [{"conductor": 0, "index": 0}]}


def test_bc_gl1_extension_round_trip(capsys):
    code, payload, _ = run_json(
        capsys, "bc-gl1", "--extension", UNRAMIFIED_CUBIC, "--max-conductor", "1"
    )
    sent = json.loads(UNRAMIFIED_CUBIC)
    sent.setdefault("char_zero", True)
    assert payload["extension"] == sent


def test_bc_gl2(capsys):
    lift = '{"q": 5, "p": 5, "e": 1, "f": 3, "galois": true, "cyclic": true, "filtration_orders": []}'
    code, payload, _ = run_json(capsys, "bc-gl2", "--pair", PAIR, "--lift", lift)
    assert code == 0
    assert payload["result"]["degree"] == 3
    assert payload["result"]["conductor"] == 2
    assert payload["k1"]["entries"] == [[3]]
    assert payload["k0"]["entries"] == [[1]]


def test_bc_gl2_identity(capsys):
    lift = '{"q": 5, "p": 5, "e": 1, "f": 1, "galois": true, "cyclic": true, "filtration_orders": []}'
    code, payload, _ = run_json(capsys, "bc-gl2", "--pair", PAIR, "--lift", lift)
    assert code == 0
    assert payload["k1"]["entries"] == [[1]]
    assert payload["k0"]["entries"] == [[1]]


def test_bc_gl2_even_degree_exits_3(capsys):
    lift = '{"q": 5, "p": 5, "e": 1, "f": 2, "galois": true, "cyclic": true, "filtration_orders": []}'
    code, _, err = run(capsys, "bc-gl2", "--pair", PAIR, "--lift", lift)
    assert code == 3
    assert "EvenDegree" in err


def test_bc_gl2_failed_conditions_message_is_pinned(capsys):
    # condition (1) fails, and so do two scope checks: all three in one line, in order
    function_field = {"q": 5, "p": 5, "char_zero": False}
    pair = json.loads(PAIR)
    pair["quad"].update(function_field)
    pair["xi"]["unitary"] = False
    pair["flags"]["not_norm_factor"] = False
    lift = {**function_field, "e": 1, "f": 3, "galois": True, "cyclic": True, "filtration_orders": []}
    code, out, err = run(capsys, "bc-gl2", "--pair", json.dumps(pair), "--lift", json.dumps(lift))
    assert code == 3
    assert out == ""
    assert err == (
        "error: OutOfScope: condition (1): the character factors through the norm map;"
        " scope: the character must be unitary;"
        " scope: the base field must have characteristic 0\n"
    )


def test_kmap(capsys):
    desc = json.dumps(
        {
            "source": ["a", "b"],
            "target": ["x"],
            "matches": [
                {"from": "a", "to": "x", "degree": 2},
                {"from": "b", "to": "x", "degree": 2},
            ],
        }
    )
    code, payload, _ = run_json(capsys, "kmap", "--map", desc)
    assert code == 0
    assert payload["k1"]["entries"] == [[2], [2]]
    assert payload["k0"]["entries"] == [[1], [1]]
    assert payload["k1"]["triplets"] == [[0, 0, 2], [1, 0, 2]]


def test_kmap_output_is_pinned(capsys):
    # 300 x 200: unmatched sources (all-zero rows), target t0 never hit (an
    # all-zero column), t1 hit by twelve sources; stdout sha256 recorded
    # with dense matrix storage and dense row rendering
    rng = random.Random(20061)
    source = [f"s{i}" for i in range(300)]
    target = [f"t{j}" for j in range(200)]
    matches = [{"from": s, "to": "t1", "degree": 3} for s in source[:12]]
    for s in source[12:]:
        if rng.random() < 0.7:
            matches.append(
                {"from": s, "to": rng.choice(target[2:]), "degree": rng.randint(1, 5)}
            )
    desc = json.dumps({"source": source, "target": target, "matches": matches})
    code, out, _ = run(capsys, "kmap", "--map", desc, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "70c4c706c57318efbbe29c17ff68de9a69350cf492ba46b4f9340bb9968c05ba"
    )


def test_kmap_size_cap(capsys):
    # the cap is the largest matrix bc-gl1 reaches: MAX_CIRCLES ** 2 cells
    labels = [f"c{i}" for i in range(MAX_CIRCLES + 1)]
    desc = json.dumps({"source": labels, "target": labels[:-1], "matches": []})
    start = time.perf_counter()
    code, out, err = run(capsys, "kmap", "--map", desc, "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f"error: kmap of {MAX_CIRCLES + 1} x {MAX_CIRCLES} circles has more than"
        f" {MAX_CIRCLES ** 2} matrix cells"
    ]
    desc = json.dumps({"source": labels[:MAX_CIRCLES], "target": ["x"], "matches": []})
    code, payload, _ = run_json(capsys, "kmap", "--map", desc)
    assert code == 0
    assert payload["k1"]["entries"] == [[0]] * MAX_CIRCLES


def _kmap_desc(m: ProperCircleMap) -> str:
    matches = [{"from": s, "to": t, "degree": d} for s, t, d in m.matches]
    return json.dumps({"source": [*m.source.components], "target": [*m.target.components], "matches": matches})


# besides the drawn maps, the 0 x n, n x 0 and 0 x 0 shapes
@given(proper_maps())
@example(ProperCircleMap(CircleSpace(()), CircleSpace(("t0", "t1")), ()))
@example(ProperCircleMap(CircleSpace(("s0", "s1")), CircleSpace(()), ()))
@example(ProperCircleMap(CircleSpace(()), CircleSpace(()), ()))
def test_kmap_text_rows_are_the_dense_entries(m):
    # the CLI splices each text row from the cells; the oracle joins each row of entries
    expected = "".join(
        f"{name}:\n" + "".join("  " + " ".join(map(str, row)) + "\n" for row in k.entries)
        for name, k in zip(("K0", "K1"), induced_map(m))
    )
    with redirect_stdout(io.StringIO()) as out:
        assert main(["kmap", "--map", _kmap_desc(m)]) == 0
    assert out.getvalue() == expected


def test_kmap_text_memory_stays_far_below_its_output(tmp_path):
    # a 2000 x 2000 map, at the cell cap, with one cell: its 16 MB of text
    # rows are spliced from the cells and written as they come, where
    # building them from entries held 85 MiB
    labels = [f"c{i}" for i in range(2000)]
    desc = {"source": labels, "target": labels, "matches": [{"from": "c1999", "to": "c0", "degree": 3}]}
    out = tmp_path / "kmap.txt"
    peak = _traced_peak(lambda: main(["kmap", "--map", json.dumps(desc), "--output", str(out)]))
    assert out.stat().st_size == 16_008_008
    assert peak < 0.1 * out.stat().st_size


def test_finiteness(capsys):
    code, payload, _ = run_json(
        capsys, "finiteness", "--r", "1", "--f", "2", "--window", "4", "--verify"
    )
    assert code == 0
    assert payload["summary"]["generator_count"] == 2
    assert payload["summary"]["verified"] is True
    assert payload["certificate"]["generators"] == [[0], [1]]


def test_finiteness_window_too_small_exits_4(capsys):
    code, _, err = run(capsys, "finiteness", "--r", "1", "--f", "3", "--window", "1")
    assert code == 4
    assert "window" in err
    # the suggested window r(f-1) = 6 is the smallest that builds; window + f = 5 is not
    code, out, err = run(capsys, "finiteness", "--r", "2", "--f", "4", "--window", "1")
    assert (code, out) == (4, "")
    assert err.splitlines() == [
        "error: window 1 is below r(f-1) = 6 at r=2, f=4; retry with window 6"
    ]
    assert run(capsys, "finiteness", "--r", "2", "--f", "4", "--window", "5")[0] == 4
    assert run(capsys, "finiteness", "--r", "2", "--f", "4", "--window", "6")[0] == 0


def test_finiteness_window_cap(capsys):
    # C(2w + r, r) target classes are counted before any is enumerated
    start = time.perf_counter()
    code, out, err = run(capsys, "finiteness", "--r", "3", "--f", "1", "--window", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "more than 5000" in err
    # r = 1 has 2w + 1 targets: window 2500 is the first refused
    code, _, err = run(capsys, "finiteness", "--r", "1", "--f", "1", "--window", "2500")
    assert code == 2
    assert err.splitlines() == ["error: window 2500 at r=1 has 5001 target classes, more than 5000"]


# one request of each subcommand, and the certificate workloads' shapes
@pytest.mark.parametrize("argv", [
    ["extquot", "--n", "4"],
    ["psi", "--orders", "3,3", "--x", "7/2"],
    ["norm-level", "--level", "2", "--extension", TAME_QUADRATIC],
    ["bc-gl1", "--extension", UNRAMIFIED_CUBIC],
    ["bc-gl2", "--pair", PAIR, "--lift", PAIR_LIFT],
    ["kmap", "--map", KMAP],
    ["finiteness", "--r", "3", "--f", "2", "--verify"],
    ["finiteness", "--r", "2", "--f", "4", "--window", "40", "--verify", "--format", "json"],
], ids=lambda argv: argv[0])
def test_no_request_builds_a_polynomial_object(capsys, monkeypatch, argv):
    # laurent's polynomial classes are the tests' staircase reference; the
    # engine works on plain {class: int} tables and never builds one
    def refuse(self, *args, **kwargs):
        raise AssertionError("a request built a polynomial object")

    monkeypatch.setattr(laurent._TermPoly, "__init__", refuse)
    laurent.staircase_decompose.cache_clear()  # a cached decomposition builds nothing
    assert run(capsys, *argv)[0] == 0


# stdout sha256 of bc-gl1 at bound 5 along the tame quadratic and the wild
# cyclic cubic; the JSON of the second is test_bc_gl1_output_is_pinned's
@pytest.mark.parametrize("extension, fmt, digest", [
    (TAME_QUADRATIC, "json", "95f9303909ccfc194ec41727f75913a5e98de8af1a637cfda05ee2a61078883b"),
    (TAME_QUADRATIC, "text", "fc823e2092a1c7dbc1c037346a0033a95d78451616006626020a602fe615f752"),
    (CYCLIC_WILD_CUBIC, "json", "e0bfe1e549a2ffd5e24f0a45cf624c9e8a5af98a267b2052b4d8679a63bd6512"),
    (CYCLIC_WILD_CUBIC, "text", "9f158001c2041faf52d926a56fdddfce67edc2cea762d23141f63ef3e91d55e6"),
], ids=["tame-json", "tame-text", "wild-json", "wild-text"])
def test_bc_gl1_output_digests_at_bound_5(capsys, extension, fmt, digest):
    code, out, _ = run(capsys, "bc-gl1", "--extension", extension, "--max-conductor", "5", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_output_file(tmp_path, capsys):
    out = tmp_path / "eq.json"
    code, _, _ = run(capsys, "extquot", "--n", "3", "--format", "json", "--output", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 3
    # the file holds exactly what stdout would
    for argv in (
        ["extquot", "--n", "5", "--format", "json"],
        ["psi", "--orders", "3,3", "--x", "7/2", "--x", "5"],
    ):
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--output", str(out)) == (0, "", "")
        assert out.read_bytes() == stdout.encode()


def test_an_empty_output_path_is_refused(capsys):
    # an empty --output names no file; it is not read as "write to stdout"
    assert run(capsys, "psi", "--orders", "3", "--x", "1", "--output", "") == (
        2, "", "error: [Errno 2] No such file or directory: ''\n"
    )


# the pinned wide certificate, and the pinned q=3 M=5 bc-gl1 JSON, with
# their stdout sha256 from test_finiteness and test_bc_gl1_output_is_pinned
@pytest.mark.parametrize(
    "argv, digest",
    [
        (["finiteness", "--r", "2", "--f", "2", "--window", "24", "--verify"],
         "ee93d3801a98dd7d781de8f3fb49a4fbfcba336a684c0aa50bb91f6bdd3deb3c"),
        (["bc-gl1", "--extension", CYCLIC_WILD_CUBIC, "--max-conductor", "5"],
         "e0bfe1e549a2ffd5e24f0a45cf624c9e8a5af98a267b2052b4d8679a63bd6512"),
    ],
)
def test_output_file_matches_stdout_for_large_json(tmp_path, capsys, argv, digest):
    argv = [*argv, "--format", "json"]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest
    out = tmp_path / "out.json"
    assert run(capsys, *argv, "--output", str(out)) == (0, "", "")
    assert out.read_bytes() == stdout.encode()


UNRAMIFIED_QUADRATIC = UNRAMIFIED_CUBIC.replace('"f": 3', '"f": 2')


@pytest.mark.parametrize(
    "argv",
    [
        ["extquot", "--n", "30"],
        ["bc-gl1", "--extension", UNRAMIFIED_QUADRATIC, "--max-conductor", "6", "--format", "json"],
        ["finiteness", "--r", "2", "--f", "4", "--window", "40", "--verify", "--format", "json"],
    ],
)
def test_a_reader_that_closes_the_pipe_early_ends_the_request_quietly(argv):
    # both outputs are far larger than a pipe buffer, so writes fail once
    # the reader has gone; that is the reader's choice, not an input fault
    with subprocess.Popen(
        [sys.executable, "-m", "basechange.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == 0
    assert stderr == b""


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emit_memory_stays_near_the_output_size(tmp_path, monkeypatch):
    # the text goes out in joined chunks of about 64 KiB and the K-matrix
    # rows come from their cells, so rendering holds little of what it
    # writes
    calls = []
    monkeypatch.setattr(cli, "_emit", lambda *call: calls.append(call) or 0)
    out = tmp_path / "bc.json"
    assert main(["bc-gl1", "--extension", UNRAMIFIED_QUADRATIC, "--max-conductor", "6",
                 "--format", "json", "--output", str(out)]) == 0
    monkeypatch.undo()
    (call,) = calls
    peak = _traced_peak(lambda: cli._emit(*call))
    assert len(call[1]["dual"]["circles"]) == 486
    assert peak < 0.25 * out.stat().st_size


def test_bc_gl1_memory_stays_below_its_dense_matrices(tmp_path):
    # the whole request reads about 0.3x of its output; a dense copy of
    # each 486 x 486 K-matrix in to_json would add about 0.35x apiece
    out = tmp_path / "bc.json"
    argv = ["bc-gl1", "--extension", UNRAMIFIED_QUADRATIC, "--max-conductor", "6",
            "--format", "json", "--output", str(out)]
    peak = _traced_peak(lambda: main(argv))
    assert peak < 0.5 * out.stat().st_size


P3_PAIR = PAIR.replace('"q": 5, "p": 5', '"q": 3, "p": 3')


@pytest.mark.parametrize(
    "argv, message",
    [
        (["norm-level", "--level", "1", "--extension",
          '{"q": 2305843009213693951, "p": 2305843009213693951, "e": 1, "f": 2}'],
         "residue characteristic p=2305843009213693951 is above 1048576"),
        (["norm-level", "--level", "1", "--extension",
          f'{{"q": {(2**31 - 1) ** 2}, "p": 2147483647, "e": 1, "f": 2}}'],
         "residue characteristic p=2147483647 is above 1048576"),
        (["bc-gl2", "--pair", P3_PAIR, "--lift", '{"q": 3, "p": 3, "e": 1, "f": 100001}'],
         "the top field's q^f = 3^100001 has more than 4300 digits"),
        (["bc-gl2", "--pair", P3_PAIR, "--lift", '{"q": 3, "p": 3, "e": 1, "f": 99999999}'],
         "the top field's q^f = 3^99999999 has more than 4300 digits"),
        # 3**9013 has 4,301 digits, one past the cap (9012 is even)
        (["bc-gl2", "--pair", P3_PAIR, "--lift", '{"q": 3, "p": 3, "e": 1, "f": 9013}'],
         "the top field's q^f = 3^9013 has more than 4300 digits"),
    ],
)
def test_field_size_guards_exit_2(capsys, argv, message):
    # refused before a trial division up to sqrt(p) or p, or before 3**f is formed
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_even_lift_is_refused_before_its_top_field(capsys):
    # EvenDegree is checked before the compositum forms 3**100000
    start = time.perf_counter()
    code, out, err = run(
        capsys, "bc-gl2", "--pair", P3_PAIR, "--lift", '{"q": 3, "p": 3, "e": 1, "f": 100000}'
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: EvenDegree: the lifting extension must have odd degree"]


def test_fields_within_the_guards_run(capsys):
    p = 1048573  # the largest prime below 2**20
    for q in (p, p**2):
        start = time.perf_counter()
        code, payload, _ = run_json(
            capsys, "norm-level", "--level", "3", "--extension",
            f'{{"q": {q}, "p": {p}, "e": 1, "f": 2}}',
        )
        assert time.perf_counter() - start < 1.0
        assert (code, payload["level_F"]) == (0, 3)
    code, payload, _ = run_json(
        capsys, "bc-gl2", "--pair", P3_PAIR, "--lift", '{"q": 3, "p": 3, "e": 1, "f": 101}'
    )
    assert code == 0
    assert payload["result"]["target_pair"]["quad"]["q"] == 3**101
    # 3**9011, the largest odd-degree top field at q = 3, has 4,300 digits and is written out
    code, out, _ = run(
        capsys, "bc-gl2", "--pair", P3_PAIR, "--lift", '{"q": 3, "p": 3, "e": 1, "f": 9011}', "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ded74d25e5a41c08d71cc6ddd75752b3317c1fe4232ef929e1b3672ccad463f1"
    )
    top = json.loads(out)["result"]["compositum"]["EL/L"]["q"]
    assert (len(str(top)), top) == (4300, 3**9011)


def test_norm_level_wild_exits_3(capsys):
    code, _, err = run(capsys, "norm-level", "--extension", WILD_CUBIC, "--level", "1")
    assert code == 3
    assert "UnsupportedExtension" in err


def test_json_round_trips_module_serializers(capsys):
    from basechange.gl1 import TemperedDualGL1
    from basechange.localfield import LocalFieldData

    code, payload, _ = run_json(capsys, "extquot", "--n", "6")
    eq = payload.copy()
    eq.pop("schema_version")
    # the components are a Records stand-in, a list to json.dumps(..., default=list)
    assert eq == json.loads(json.dumps(extended_quotient(6).to_json(), default=list))

    code, payload, _ = run_json(
        capsys, "bc-gl1", "--extension", UNRAMIFIED_CUBIC, "--max-conductor", "2"
    )
    # the circles are a Records stand-in, a list to json.dumps(..., default=list)
    dual = TemperedDualGL1.enumerate(LocalFieldData(3, 3), 2).to_json()
    assert payload["dual"] == json.loads(json.dumps(dual, default=list))


def test_extension_from_file(tmp_path, capsys):
    path = tmp_path / "ext.json"
    path.write_text(TAME_QUADRATIC)
    code, payload, _ = run_json(
        capsys, "norm-level", "--extension", str(path), "--level", "6"
    )
    assert code == 0
    assert payload["level_F"] == 3


_strings = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11e'), max_size=6)
_scalars = st.none() | st.booleans() | st.integers() | st.floats() | _strings
_ints = st.integers(-(2**80), 2**80)


def _after_zero_runs(values):
    """Lists of up to 78 entries, each value after a run of 0 to 12 zeros.

    They are mostly zeros, as a dense K-theory row is, and cost a dozen
    draws where drawing each entry would cost up to 80.
    """
    pairs = st.lists(st.tuples(st.integers(0, 12), values), min_size=1, max_size=6)
    return pairs.map(lambda pairs: [x for run, v in pairs for x in [0] * run + [v]])


# False, 0.0 and -0.0 equal 0 but must keep their own spelling
_int_lists = (
    st.lists(_ints | st.booleans(), max_size=4)
    | _after_zero_runs(_ints)
    | _after_zero_runs(_ints | st.sampled_from([False, 0.0, -0.0]))
)


# small containers and few leaves: larger ones made hypothesis retry a
# quarter of its draws and spent most of the test's time generating
_json = st.recursive(
    _scalars | _int_lists,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_strings, inner, max_size=4),
    max_leaves=12,
)


def _placements(x):
    """One object x at two depths, twice at one depth, and beside and inside a non-leaf."""
    return [x, [x, x], {"a": x, "b": {"c": [x], "d": x}}, {"leaf": x, "tree": {"in": x, "list": [[1]]}}]


def _streamed(obj) -> tuple[str, int]:
    """The rendered text of obj and the number of writes it took."""
    written = []
    parts = cli._Chunks(written.append)
    _render(obj, parts)
    return "".join(written + parts), len(written)


def _rendered(obj) -> str:
    return _streamed(obj)[0]


LEAF = {"exponents": [1, -2], "value": "1/2"}
INTS = [0, 0, 0, 5, 0]


@given(_json | _json.map(_placements))
@example([[], {}, [[]], {"": {}}, [True, 1, False], [1, None]])
@example(_placements(LEAF))
@example(_placements(INTS))
@example(_placements({"k": LEAF, "v": [LEAF, INTS]}))
@example([LEAF, {"terms": [{"coefficient": [LEAF, LEAF]}]}, {"inner": LEAF}, [[LEAF]]])
@example([[0] * 50, [0], [0, 0]])
@example({"first": [7] + [0] * 30, "last": [0] * 30 + [-3], "one": [5, 0]})
@example([0] * 40 + [False])
@example([0, -0.0, 0])
def test_render_matches_json_dumps(obj):
    assert _rendered(obj) == json.dumps(obj, indent=2)


def _grid_map(grid):
    cols = len(grid[0]) if grid else 0
    return from_grid(tuple(f"r{i}" for i in range(len(grid))), tuple(f"c{j}" for j in range(cols)), grid)


# several cells a row, negative values, 0 x n and n x 0 shapes
_kmorphisms = _grids.map(_grid_map) | proper_maps().flatmap(lambda m: st.sampled_from(induced_map(m)))


@given(_kmorphisms)
@example(_grid_map([[-7] + [0] * 9 + [2**70, 3], [0] * 12, [0] * 11 + [1]]))
def test_render_writes_k_matrices_from_their_cells(k):
    x = k.to_json()
    assert x["entries"] is k
    assert list(x["entries"]) == [list(row) for row in k.entries]
    assert _rendered(x) == json.dumps(x, indent=2, default=list)
    assert _rendered(_placements(x)) == json.dumps(_placements(x), indent=2, default=list)
    with patch.object(cli, "FLUSH_CHARS", 1):
        assert _rendered(_placements(x)) == json.dumps(_placements(x), indent=2, default=list)


def _emitted(capsys, payload) -> str:
    assert cli._emit(argparse.Namespace(format="json", output=None), payload, []) == 0
    return capsys.readouterr().out


def _assert_same_text(text: str, expected: str) -> None:
    """Equal texts, or a failure naming the first differing line (a diff of megabytes takes minutes)."""
    if text != expected:
        lines = zip(text.splitlines(), expected.splitlines())
        first = next(((n, a, b) for n, (a, b) in enumerate(lines, 1) if a != b), "only the lengths")
        pytest.fail(f"texts differ, first at (line, got, expected): {first}")


def _certificate_payload(r, f, window=None) -> dict:
    return {"certificate": finiteness_certificate(r, f, window).to_json()}


# every default certificate, wide and smallest windows, f = 1; when r >= 2
# the class of (w, ..., w, -w) has a key outside the window, so its template
# comes from no member; at (2, 2, 6) a hand-edited class table renders too
@pytest.mark.parametrize(
    "r, f, window",
    [(r, f, None) for r in range(1, 4) for f in range(1, 5)]
    + [(2, 2, 24), (1, 3, 200), (1, 1, 5), (2, 1, 6), (3, 3, 6), (2, 4, 6), (2, 2, 6)],
)
def test_certificate_reductions_render_as_the_stock_encoder_writes_them(capsys, r, f, window):
    payload = _certificate_payload(r, f, window)
    rows = payload["certificate"]["reductions"]
    expected = json.dumps({"schema_version": 1, **payload}, indent=2, default=list) + "\n"
    _assert_same_text(_emitted(capsys, payload), expected)
    if r >= 2:
        targets = [lam for lam, _, _ in rows.members()]
        assert any(key not in targets for _, key, _ in rows.members())
    if (r, f, window) == (2, 2, 24):
        with patch.object(cli, "FLUSH_CHARS", 1):
            _assert_same_text(_emitted(capsys, payload), expected)
    if (r, f, window) == (2, 2, 6):
        # the class of (6, 4), key (2, 0) and shift 4, gets an expression no walk
        # gives; every member renders from it, through _emit as through iteration
        fields = {name: getattr(rows, name) for name in FinitenessCertificate._fields}
        edited = FinitenessCertificate(**{**fields, "classes": {**rows.classes, (2, 0): {(1, 0): {(4, -12): 5}}}})
        assert not edited.verify() and edited.expression((6, 4)) == {(1, 0): {(8, -8): 5}}
        payload = {"certificate": edited.to_json()}
        expected = json.dumps({"schema_version": 1, **payload}, indent=2, default=list) + "\n"
        _assert_same_text(_emitted(capsys, payload), expected)


def test_certificate_renders_from_its_class_expressions(monkeypatch, capsys):
    # the CLI writes each class's template from the stored expression, not from
    # entry(), the oracle json.dumps iterates; the summary reports the builder's
    # max_coefficient_exponent
    argv = ["finiteness", "--r", "2", "--f", "2", "--window", "24", "--verify", "--format", "json"]
    calls = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", lambda *call: calls.append(call) or 0)
        assert main(argv) == 0
    payload = {"schema_version": cli.SCHEMA_VERSION, **calls[0][1]}
    expected = json.dumps(payload, indent=2, default=list) + "\n"
    cert = finiteness_certificate(2, 2, 24)
    assert payload["summary"]["max_coefficient_exponent"] == cert.max_coefficient_exponent()

    def refuse(self, target):
        raise AssertionError("the CLI built a reduction entry")

    monkeypatch.setattr(FinitenessCertificate, "entry", refuse)
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    _assert_same_text(stdout, expected)


# K-matrices with empty leading and trailing rows, 0 x n, n x 0 and 0 x 0
EDGE_MATRICES = [
    _grid_map([[0, 0, 0], [0, 0, 0], [0, 5, 0], [-1, 0, 2**70], [0, 0, 0]]),
    _grid_map([[0, 0], [0, 0]]),
    _grid_map([[], [], []]),
    _grid_map([]),
    KMorphism((), ("c0", "c1"), ()),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["finiteness", "--r", "2", "--f", "2", "--window", "8", "--verify"],
        ["bc-gl1", "--extension", UNRAMIFIED_QUADRATIC, "--max-conductor", "3"],
        ["kmap", "--map", json.dumps({"source": ["a", "b", "c", "d"], "target": ["x", "y"],
                                      "matches": [{"from": "b", "to": "y", "degree": 3}]})],
    ],
)
def test_json_streamed_a_part_at_a_time_is_unchanged(monkeypatch, tmp_path, capsys, argv):
    calls = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", lambda *call: calls.append(call) or 0)
        assert main([*argv, "--format", "json"]) == 0
    payload = {"schema_version": cli.SCHEMA_VERSION, **calls[0][1]}
    expected = json.dumps(payload, indent=2, default=list)
    monkeypatch.setattr(cli, "FLUSH_CHARS", 1)
    text, writes = _streamed(payload)
    assert text == expected and writes > 1
    for x in [payload] + [k.to_json() for k in EDGE_MATRICES]:
        assert _rendered(_placements(x)) == json.dumps(_placements(x), indent=2, default=list)
    code, stdout, _ = run(capsys, *argv, "--format", "json")
    assert (code, stdout) == (0, expected + "\n")
    out = tmp_path / "out.json"
    assert run(capsys, *argv, "--format", "json", "--output", str(out)) == (0, "", "")
    assert out.read_text() == stdout


def _captured(monkeypatch, argv) -> tuple:
    """The (args, payload, lines) main hands _emit for argv."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_emit", lambda *call: calls.append(call) or 0)
        assert main(argv) == 0
    (call,) = calls
    return call


NO_MATCHES = json.dumps({"source": ["a", "b", "c"], "target": ["x", "y"], "matches": []})


@pytest.mark.parametrize(
    "argv",
    [
        ["bc-gl1", "--extension", TAME_QUADRATIC, "--max-conductor", "5"],
        ["bc-gl1", "--extension", CYCLIC_WILD_CUBIC, "--max-conductor", "5"],
        ["bc-gl1", "--extension", UNRAMIFIED_QUADRATIC, "--max-conductor", "0"],
        ["kmap", "--map", NO_MATCHES],
    ],
)
def test_record_lists_render_as_the_stock_encoder_writes_them(monkeypatch, capsys, argv):
    # circles, pairs and triplets are written from one template each, in
    # chunks of FLUSH_CHARS, and with a budget of 1 at every checkpoint
    _, payload, _ = _captured(monkeypatch, [*argv, "--format", "json"])
    expected = json.dumps({"schema_version": 1, **payload}, indent=2, default=list) + "\n"
    _assert_same_text(_emitted(capsys, payload), expected)
    with patch.object(cli, "FLUSH_CHARS", 1):
        _assert_same_text(_emitted(capsys, payload), expected)
    if argv[0] == "kmap":
        assert payload["k1"]["triplets"].rows == () and '"triplets": []' in expected
    elif argv[-1] == "0":
        assert len(payload["dual"]["circles"]) == len(payload["map"]["pairs"]) == 1
    else:
        assert len({p["from"]["conductor"] != p["to"]["conductor"] for p in payload["map"]["pairs"]}) == 2


def _partitions(n, largest):
    """Partitions of n with parts at most largest, the largest parts first: the reverse-lexicographic order."""
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def _extquot_oracle(n, fmt) -> str:
    """extquot's output from plain dicts and collections.Counter, sharing no code with the CLI's."""
    powers = [(p, list(Counter(p).values())) for p in _partitions(n, n)]
    if fmt == "text":
        return "".join(f"{'+'.join(map(str, p))}: {' x '.join(f'Sym^{r}' for r in rs)}\n" for p, rs in powers)
    components = [{"partition": list(p), "factors": [{"sym_power": r} for r in rs]} for p, rs in powers]
    return json.dumps({"schema_version": 1, "n": n, "components": components}, indent=2) + "\n"


@pytest.mark.parametrize("n", range(1, 31))
def test_extquot_output_matches_an_independent_oracle(tmp_path, capsys, n):
    out = tmp_path / "out"
    for fmt in ("text", "json"):
        expected = _extquot_oracle(n, fmt)
        assert run(capsys, "extquot", "--n", str(n), "--format", fmt) == (0, expected, "")
        assert run(capsys, "extquot", "--n", str(n), "--format", fmt, "--output", str(out)) == (0, "", "")
        assert out.read_text() == expected


def _layered(head, body, tail) -> dict:
    return {"head": list(head), "body": {"cells": [[x] for x in body]}, "tail": list(tail)}


# rows of int tuples whose layouts interleave, with empty tuples, negative and
# big ints; a single row; no rows; rows that are empty tuples; and every
# component of the n = 30 quotient
LAYERED = [((1, 2), (3,), ()), ((), (), (4,)), ((-5,), (2**70, 0), (7, 8, 9)), ((1, 2), (3,), ()), ((), (), (4,))]


@pytest.mark.parametrize("records", [
    Records(_layered, LAYERED),
    Records(_layered, LAYERED[2:3]),
    Records(_layered, ()),
    Records(dict, [(), ()]),
    extended_quotient(30).to_json()["components"],
], ids=["interleaved", "one-row", "no-rows", "empty-rows", "extquot-30"])
def test_records_of_int_tuples_render_as_the_stock_encoder_writes_them(capsys, records):
    # one template per row layout, filled per row, written in chunks of
    # FLUSH_CHARS and with a budget of 1 after every row
    payload = {"records": records, "nested": [{"again": records}]}
    expected = json.dumps({"schema_version": 1, **payload}, indent=2, default=list) + "\n"
    _assert_same_text(_emitted(capsys, payload), expected)
    with patch.object(cli, "FLUSH_CHARS", 1):
        _assert_same_text(_emitted(capsys, payload), expected)


def test_emit_joins_no_more_than_about_its_budget(tmp_path, monkeypatch):
    # 599 all-zero rows before the one cell: they are written a budget at a
    # time, so no joined chunk holds more than about FLUSH_CHARS and one row
    labels = [f"c{i}" for i in range(600)]
    desc = {"source": labels, "target": labels, "matches": [{"from": "c599", "to": "c0", "degree": 3}]}
    out = tmp_path / "kmap.json"
    call = _captured(monkeypatch, ["kmap", "--map", json.dumps(desc), "--format", "json", "--output", str(out)])
    peak = _traced_peak(lambda: cli._emit(*call))
    assert peak < 0.1 * out.stat().st_size


@pytest.mark.parametrize(
    "argv",
    [
        ["finiteness", "--r", "2", "--f", "4", "--window", "40"],
        ["extquot", "--n", "30"],
        ["bc-gl1", "--extension", UNRAMIFIED_QUADRATIC, "--max-conductor", "6"],
    ],
    ids=["reductions", "records-of-tuples", "dense-rows-and-records-of-ints"],
)
def test_every_stand_in_writes_about_its_budget_at_a_time(monkeypatch, argv):
    # a write falls inside a stand-in's list and holds at most FLUSH_CHARS,
    # that list's longest item with its separator, and the text held when
    # the list began
    _, payload, _ = _captured(monkeypatch, [*argv, "--format", "json"])
    render_list, bounds, writes = cli._render_list, [], []

    def bounded(items, parts, indent):
        items = [*items]
        longest = max(map(len, items), default=0) + len("," + indent + "  ")
        bounds.append(cli.FLUSH_CHARS + longest + sum(map(len, parts)))
        render_list(items, parts, indent)

    monkeypatch.setattr(cli, "_render_list", bounded)
    parts = cli._Chunks(lambda text: writes.append((len(text), bounds[-1])))
    _render({"schema_version": 1, **payload}, parts)
    assert len(writes) > 10
    assert [(size, bound) for size, bound in writes if size > bound] == []


def test_certificate_generators_holding_bools_render_as_the_stock_encoder_writes_them(capsys):
    # a hand-built certificate whose generator entries 1 are True: the class
    # templates write them as json.dumps does, not with str
    cert = finiteness_certificate(1, 2, 2)

    def flagged(gamma):
        return tuple(True if type(x) is int and x == 1 else x for x in gamma)

    fields = {name: getattr(cert, name) for name in FinitenessCertificate._fields}
    classes = {key: {flagged(g): coeff for g, coeff in expr.items()} for key, expr in cert.classes.items()}
    edited = FinitenessCertificate(**{**fields, "classes": classes})
    payload = {"certificate": edited.to_json()}
    expected = json.dumps({"schema_version": 1, **payload}, indent=2, default=list) + "\n"
    assert "true" in expected  # only a generator entry can write it
    _assert_same_text(_emitted(capsys, payload), expected)

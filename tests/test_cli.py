"""File parsing, command dispatch, JSON output, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncquad import CharThreeError, HomogeneityError, ParseError, UnknownGeneratorError
from ncquad import cli, quadratic
from ncquad.cli import parse_presentation, render_presentation, run_command
from ncquad.groebner import complete
from ncquad.ncpoly import parse_poly

CORPUS = Path(__file__).resolve().parent.parent / "presentations"


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_simple_presentation():
    pres = parse_presentation(
        "field Q(w)\ngens x y z\nrel x*y + w*y*x + z*z\nrel x*x + y*z + w*z*y\nrel y*y + z*x + w*x*z\n"
    )
    assert pres.ngens == 3
    assert len(pres.relations) == 3
    assert pres.field.name() == "Q(w)"


def test_parse_potential_file():
    text = (CORPUS / "w.alg").read_text()
    pres = parse_presentation(text)
    assert len(pres.relations) == 3
    line = next(ln for ln in text.splitlines() if ln.startswith("potential "))
    assert pres.potential == parse_poly(line.split(" ", 1)[1], pres.field, pres.names)
    assert "potential" in {f.name for f in dataclasses.fields(pres)}


def test_parse_comments_and_order():
    pres = parse_presentation(
        "# a comment\nfield Q\ngens a b\norder b > a\nrel a*b + b*a\n"
    )
    assert pres.order.precedence == (1, 0)
    assert pres.names == ("a", "b")


def test_round_trip_render_parse():
    for name in ("sklyanin_1_2_1.alg", "sklyanin_1_w_2.alg", "w_dual.alg"):
        pres = parse_presentation((CORPUS / name).read_text())
        again = parse_presentation(render_presentation(pres))
        assert again.field == pres.field
        assert again.names == pres.names
        assert list(again.relations) == list(pres.relations)
    # a non-default order is written back as an order line
    text = "field Q\ngens a b c\norder c > a > b\nrel a*b - c*c\n"
    assert render_presentation(parse_presentation(text)) == "field Q\ngens a b c\norder c > a > b\nrel -c*c + a*b\n"
    assert parse_presentation(render_presentation(parse_presentation(text))) == parse_presentation(text)


REPEATED_DIRECTIVES = [
    ("field Q\ngens x y\nrel x*y - y*y\ngens y x\n", 4),
    ("field Q\ngens x y\nrel x*y - y*y\nfield GF(7)\n", 4),
    ("field Q\ngens x y\norder y > x\norder x > y\nrel x*y\n", 4),
    ("field Q\ngens x y\npotential x*x*y + x*y*x + y*x*x\npotential y*y*y\n", 4),
]
NOT_INVARIANT_POTENTIAL = "field Q\ngens x y\n# x*x*y alone is not cyclically invariant\npotential x*x*y\n"
# (file text, error type, line or None, detail as printed)
REJECTED_FILES = [
    ("gens x y\nrel x*y\n", ParseError, 2, "rel line before field/gens lines"),
    ("field Q\ngens x x\n", ParseError, 2, "generators must be distinct identifiers"),
    ("field Q\ngens\n", ParseError, 2, "generators must be distinct identifiers"),
    ("field Q\norder x > y\ngens x y\n", ParseError, 2, "order line before gens line"),
    ("field Q\ngens x y\norder x\n", ParseError, 3, "order line must mention every generator once"),
    ("field Q\npotential x*y*x\ngens x y\n", ParseError, 2, "potential line before field/gens lines"),
    ("field Q\n", ParseError, None, "file needs field and gens lines"),
    ("gens x y\n", ParseError, None, "file needs field and gens lines"),
    ("field Q\ngens x y\nrel x*q\n", UnknownGeneratorError, 3, "unknown generator in 'q'"),
    # a juxtaposed run that splits into names in two ways is refused
    ("field Q\ngens x xx\nrel xxx - xx*x\n", ParseError, 3, "ambiguous word 'xxx': reads as x*x*x and as x*xx"),
    ("field Q\ngens x y\nrel\n", ParseError, 3, "empty polynomial"),
    ("field Q\ngens x y\nrel x*y +\n", ParseError, 3, "dangling sign in 'x*y +'"),
    ("field Q\ngens x y\nrel x*y + - y*x\n", ParseError, 3, "dangling sign in 'x*y + - y*x'"),
    ("field Q\ngens x y\nrel -\n", ParseError, 3, "dangling sign in '-'"),
    ("field Q\ngens x y\nrel x**y\n", ParseError, 3, "empty factor in term 'x**y'"),
    # rel lines and a potential line conflict at whichever comes second
    ("field Q\ngens x y\nrel x*y\nrel y*x\npotential x*x*x\n", ParseError, 5,
     "a file has either rel lines or a potential line"),
    ("field Q\ngens x y\npotential x*x*x + y*y*y\nrel x*y\n", ParseError, 4,
     "a file has either rel lines or a potential line"),
    # a potential whose cyclic derivative by a generator vanishes is refused
    ("field Q\ngens x y\npotential x*x*x\n", ParseError, 3, "cyclic derivative by y vanishes"),
    ("field Q\ngens x y z\n# no relation from y\npotential x*x*x + z*z*z\n", ParseError, 4,
     "cyclic derivative by y vanishes"),
    # each relation is checked at its line, and shown in the file's names
    ("field Q\ngens x y\nrel x*y + x\n", HomogeneityError, 3, "relation x*y + x is not homogeneous"),
    ("field Q\ngens x y\nrel y*y - y*y\n", ParseError, 3, "zero relation"),
    ("field Q\ngens x y\nrel 3\n", HomogeneityError, 3, "relations must have degree >= 1"),
    ("field Q\ngens a b\nrel a*b\nrel a*a*a + b\n", HomogeneityError, 4, "relation a*a*a + b is not homogeneous"),
    ("field Q\ngens x y\npotential x*x*x + y*y*y + x*x\n", HomogeneityError, 3,
     "relation x*x + x is not homogeneous"),
    # a generator name must not read as a scalar or a unit of the field,
    # whichever of the field and gens lines comes first
    ("field Q\ngens x y 2\n", ParseError, 2, "generators must be distinct identifiers"),
    ("gens x y 2\nfield Q\n", ParseError, 1, "generators must be distinct identifiers"),
    ("field Q(w)\ngens w x\n", ParseError, 2, "generator 'w' is a unit of Q(w)"),
    ("gens w x\nfield Q(w)\n", ParseError, 2, "generator 'w' is a unit of Q(w)"),
    # GF(p) needs a prime p below 3317044064679887385961981, where the primality test
    # is exact (GF(3) is refused as CharThreeError); that bound itself
    # passes the test, and is refused by the limit
    ("field GF(4)\ngens x y\nrel x*y\n", ParseError, 1, "4 is not prime"),
    ("gens x y\nfield GF(1)\n", ParseError, 2, "1 is not prime"),
    ("field GF(3317044064679887385961981)\ngens x y\n", ParseError, 1,
     "GF(p) needs p < 3317044064679887385961981, where the primality test is exact, got 3317044064679887385961981"),
]


def test_parse_errors():
    for text, kind, line, detail in REJECTED_FILES:
        with pytest.raises(kind) as exc:
            parse_presentation(text)
        assert type(exc.value) is kind and exc.value.line == line, text
        assert str(exc.value) == (detail if line is None else f"line {line}: {detail}")
    with pytest.raises(CharThreeError):
        parse_presentation("field GF(3)\ngens x y\nrel x*y\n")
    with pytest.raises(ParseError):
        parse_presentation("field Q\ngens x y\nbogus x\n")
    # a second field, gens, order or potential line is refused, not obeyed
    for text, line in REPEATED_DIRECTIVES:
        with pytest.raises(ParseError, match="repeated") as exc:
            parse_presentation(text)
        assert exc.value.line == line
    # a potential that is not cyclically invariant is a parse error at its line
    with pytest.raises(ParseError, match="not cyclically invariant") as exc:
        parse_presentation(NOT_INVARIANT_POTENTIAL)
    assert type(exc.value) is ParseError and exc.value.line == 4


def test_gb_output_parses_back(capsys):
    for path in sorted(CORPUS.glob("*.alg")):
        pres = parse_presentation(path.read_text())
        code, out, err = run(capsys, "gb", str(path), "--deg", "6")
        assert code == 0, path
        polys = [parse_poly(g["poly"], pres.field, pres.names) for g in json.loads(out)["gb"]]
        assert polys == list(complete(pres, 6).elements), path


def test_hilbert_command(capsys):
    code, out, err = run(capsys, "hilbert", str(CORPUS / "sklyanin_1_2_1.alg"), "--deg", "5")
    assert code == 0
    assert json.loads(out) == {"hilbert": [1, 3, 6, 10, 15, 21]}
    # a bound below the relation degree: completion and oracle agree
    for cmd in ("hilbert", "oracle"):
        code, out, err = run(capsys, cmd, str(CORPUS / "w.alg"), "--deg", "1")
        assert code == 0
        assert json.loads(out) == {cmd: [1, 3]}


def test_hilbert_command_high_degree(capsys):
    code, out, err = run(capsys, "hilbert", str(CORPUS / "free.alg"), "--deg", "30")
    assert code == 0
    assert json.loads(out)["hilbert"][-1] == 3**30


def test_gb_command_schema(capsys):
    code, out, err = run(capsys, "gb", str(CORPUS / "w.alg"), "--deg", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert payload["degree_bound"] == 6
    assert [e["lead"] for e in payload["gb"]] == ["x*x", "x*y", "y*z", "x*z*x", "y*y*y", "x*z*y*x"]


def test_koszul_command(capsys):
    code, out, err = run(capsys, "koszul", str(CORPUS / "w.alg"), "--deg", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["defect"] == 4
    assert payload["dual_hypotheses"]["dual3_dim"] == 1
    code, out, err = run(capsys, "koszul", str(CORPUS / "w.alg"), "--deg", "1")
    assert code == 0
    assert json.loads(out)["defect"] is None


def test_koszul_command_completes_each_algebra_once(capsys, monkeypatch):
    # each algebra is completed once: a basis asked for at a higher bound
    # is extended, and one at a lower bound is served by the kept basis
    degrees = []

    def counted(pres, degree):
        degrees.append(degree)
        return complete(pres, degree)

    monkeypatch.setattr(quadratic, "complete", counted)
    code, out, err = run(capsys, "koszul", str(CORPUS / "w.alg"), "--deg", "6")
    assert code == 0 and degrees == [6, 6]
    del degrees[:]
    code, out, err = run(capsys, "koszul", str(CORPUS / "w.alg"), "--deg", "3")
    assert code == 0 and degrees == [3, 3]


def test_oracle_command(capsys):
    code, out, err = run(capsys, "oracle", str(CORPUS / "free.alg"), "--deg", "3")
    assert code == 0
    assert json.loads(out) == {"oracle": [1, 3, 9, 27]}


def test_oracle_negative_degree_exit_code(capsys):
    code, out, err = run(capsys, "oracle", str(CORPUS / "w.alg"), "--deg", "-1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "ValueError"


def test_gb_negative_degree_exit_code(capsys):
    code, out, err = run(capsys, "gb", str(CORPUS / "free.alg"), "--deg", "-1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "ValueError"


def test_dual_command(capsys):
    code, out, err = run(capsys, "dual", str(CORPUS / "sklyanin_0_0_1.alg"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["relations"]) == 6


def test_classify_command(capsys):
    code, out, err = run(capsys, "sklyanin", "classify", "1", "2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "GenericM1"
    assert payload["params"] == {"a": "1", "b": "2"}


def test_classify_negative_scalars(capsys):
    code, out, err = run(capsys, "sklyanin", "classify", "2", "-1", "-1")
    assert code == 0
    assert json.loads(out)["class"] == "QuantumPoly"


def test_iso_command(capsys):
    code, out, err = run(capsys, "sklyanin", "iso", "1", "2", "1", "2", "1", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert payload["witness"] is not None


def test_orbit_command(capsys):
    code, out, err = run(capsys, "sklyanin", "orbit", "2", "3")
    assert code == 0
    assert len(json.loads(out)["orbit"]) == 24


def test_chain_command(capsys):
    code, out, err = run(capsys, "sklyanin", "chain", "1", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == "-7"
    assert payload["gamma"] == "49"
    assert len(payload["subs"]) == 4


def test_recursion_command(capsys):
    code, out, err = run(capsys, "sklyanin", "recursion", "0", "1", "--field", "Q")
    assert code == 0
    payload = json.loads(out)
    assert payload["states"][-1]["outcome"] == "Sigma"


def test_classify_over_large_prime_field(capsys):
    code, out, err = run(capsys, "sklyanin", "classify", "1", "2", "1", "--field", "GF(2147483647)")
    assert code == 0
    assert json.loads(out)["class"] == "GenericM1"


def test_oversized_prime_field_exit_code(capsys):
    # --field is read like a file's field line: a bad GF(n) is a ParseError, exit 2
    code, out, err = run(capsys, "sklyanin", "classify", "1", "2", "5", "--field", f"GF({2**89 - 1})")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "ParseError"
    assert "needs p < 3317044064679887385961981" in error["detail"]
    code, out, err = run(capsys, "sklyanin", "classify", "1", "2", "5", "--field", "GF(4)")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"kind": "ParseError", "detail": "4 is not prime"}


def test_readme_commands_match_golden_output(capsys):
    # each README command-line example against its stored stdout, byte for byte
    golden = (Path(__file__).resolve().parent / "golden" / "readme_cli.txt").read_text()
    blocks = golden.split("$ ncquad ")[1:]
    assert len(blocks) == 10
    for block in blocks:
        command, expected = block.split("\n", 1)
        argv = [str(CORPUS.parent / a) if a.startswith("presentations/") else a for a in command.split()]
        code, out, err = run(capsys, *argv)
        assert code == 0, command
        assert out == expected, command


def test_main_exit_status_in_a_process():
    # `main` passes run_command's status to sys.exit; run it as the module
    repo = CORPUS.parent

    def run_process(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ncquad.cli", *argv],
            cwd=repo,
            env=dict(os.environ, PYTHONPATH=str(repo / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )

    golden = (Path(__file__).resolve().parent / "golden" / "readme_cli.txt").read_text()
    expected = golden.split("$ ncquad sklyanin classify 2 -1 -1\n", 1)[1].split("\n", 1)[0] + "\n"
    done = run_process("sklyanin", "classify", "2", "-1", "-1")
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")
    for argv, status in (
        (("sklyanin", "classify", "2", "-1", "-1", "--field", "Q"), 1),
        (("gb", "presentations/w.alg", "--deg", "x"), 2),
    ):
        done = run_process(*argv)
        assert (done.returncode, done.stdout) == (status, ""), argv
        assert "error" in json.loads(done.stderr)


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "sklyanin", "classify", "1", "1", "1", "--field", "Q")
    assert code == 1
    assert json.loads(err)["error"]["kind"] == "NoCubeRootError"


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    for text, _ in REPEATED_DIRECTIVES:
        bad.write_text(text)
        code, out, err = run(capsys, "gb", str(bad))
        assert code == 2
        assert "error" in json.loads(err)
    bad.write_text(NOT_INVARIANT_POTENTIAL)
    code, out, err = run(capsys, "gb", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == {"kind": "ParseError", "detail": "line 4: potential is not cyclically invariant"}
    for text, kind, line, detail in REJECTED_FILES:
        bad.write_text(text)
        code, out, err = run(capsys, "gb", str(bad))
        assert (code, out) == (2, ""), text
        detail = detail if line is None else f"line {line}: {detail}"
        assert json.loads(err)["error"] == {"kind": kind.__name__, "detail": detail}


# argv -> (error kind, detail); `presentations/...` stands for the corpus path
ARGUMENT_ERRORS = {
    ("gb", "presentations/w.alg", "--deg", "abc"): ("ParseError", "--deg needs an integer, got 'abc'"),
    ("oracle", "presentations/w.alg", "--deg", "2.5"): ("ParseError", "--deg needs an integer, got '2.5'"),
    ("sklyanin", "recursion", "0", "1", "--field", "Q", "--kmax", "x"): (
        "ParseError",
        "--kmax needs an integer, got 'x'",
    ),
    ("sklyanin", "classify", "1", "2", "3", "4", "5"): ("usage", "sklyanin classify needs 3 scalar arguments"),
    ("sklyanin", "iso", "1", "2", "1", "2", "1", "1", "7"): ("usage", "sklyanin iso needs 6 scalar arguments"),
    ("sklyanin", "orbit", "2", "3", "--kmax", "5"): ("usage", "sklyanin orbit needs 2 scalar arguments"),
    ("oracle", "presentations/w.alg", "--deg", "2", "extra"): (
        "ParseError",
        "expected one presentation file, got arguments ['presentations/w.alg', 'extra']",
    ),
    ("dual", "presentations/w.alg", "presentations/free.alg"): (
        "ParseError",
        "expected one presentation file, got arguments ['presentations/w.alg', 'presentations/free.alg']",
    ),
    ("gb",): ("ParseError", "expected one presentation file, got arguments []"),
    ("sklyanin", "classify", "1/0", "1", "1"): ("ParseError", "zero denominator in '1/0'"),
    ("sklyanin", "orbit", "1+1/0*w", "2"): ("ParseError", "zero denominator in '1/0'"),
    ("gb", "presentations/w.alg", "--deg"): ("ParseError", "--deg needs a value"),
    ("bogus", "presentations/w.alg"): ("usage", "unknown command 'bogus'"),
    ("sklyanin",): ("usage", "sklyanin needs a subcommand"),
    ("sklyanin", "bogus", "1", "2"): ("usage", "unknown sklyanin subcommand 'bogus'"),
    ("sklyanin", "bogus", "--field", "GF(31)"): ("usage", "unknown sklyanin subcommand 'bogus'"),
}


@pytest.mark.parametrize("argv", list(ARGUMENT_ERRORS))
def test_argument_errors_exit_2(capsys, argv):
    kind, detail = ARGUMENT_ERRORS[argv]
    argv = [str(CORPUS.parent / a) if a.startswith("presentations/") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    detail = detail.replace("'presentations/", f"'{CORPUS}/")
    assert json.loads(err)["error"] == {"kind": kind, "detail": detail}


def test_zero_denominator_in_file_names_its_line(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("field Q\ngens x y\nrel x*y - 1/0*y*x\n")
    code, out, err = run(capsys, "gb", str(bad))
    assert code == 2
    error = json.loads(err)["error"]
    assert error["kind"] == "ParseError"
    assert error["detail"].startswith("line 3: ")


def test_negative_kmax_exit_code(capsys):
    code, out, err = run(capsys, "sklyanin", "recursion", "0", "1", "--field", "Q", "--kmax", "-3")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "ValueError"


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "hilbert", "no_such_file.alg")
    assert code == 2


def test_output_deterministic(capsys):
    code1, out1, _ = run(capsys, "sklyanin", "orbit", "2", "3")
    code2, out2, _ = run(capsys, "sklyanin", "orbit", "2", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    code1, out1, _ = run(capsys, "gb", str(CORPUS / "sklyanin_1_w_2.alg"), "--deg", "5")
    code2, out2, _ = run(capsys, "gb", str(CORPUS / "sklyanin_1_w_2.alg"), "--deg", "5")
    assert out1 == out2


def test_usage(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert "usage" in out


def test_usage_and_dispatch_tables_agree(capsys):
    # every command the usage text lists dispatches, and every table row is listed
    code, usage, err = run(capsys, "--help")
    rows = [line.split() for line in usage.splitlines() if line.startswith("  ")]
    commands = {row[0] for row in rows}
    subcommands = {row[1] for row in rows if row[0] == "sklyanin"}
    assert commands == set(cli._FILE_COMMANDS) | {"sklyanin"}
    assert subcommands == set(cli._SKLYANIN_COMMANDS)
    for cmd in sorted(commands - {"sklyanin"}):
        code, out, err = run(capsys, cmd)
        assert json.loads(err)["error"]["detail"] == "expected one presentation file, got arguments []"
    for sub in sorted(subcommands):
        code, out, err = run(capsys, "sklyanin", sub)
        count = cli._SKLYANIN_COMMANDS[sub][0]
        assert json.loads(err)["error"]["detail"] == f"sklyanin {sub} needs {count} scalar arguments"

"""File parsing, command dispatch, JSON output, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncquad import CharThreeError, HomogeneityError, ParseError, UnknownGeneratorError
from ncquad.cli import parse_presentation, render_presentation, run_command
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


REPEATED_DIRECTIVES = [
    ("field Q\ngens x y\nrel x*y - y*y\ngens y x\n", 4),
    ("field Q\ngens x y\nrel x*y - y*y\nfield GF(7)\n", 4),
    ("field Q\ngens x y\norder y > x\norder x > y\nrel x*y\n", 4),
    ("field Q\ngens x y\npotential x*y*x\npotential y*y*y\n", 4),
]
NOT_INVARIANT_POTENTIAL = "field Q\ngens x y\n# x*x*y alone is not cyclically invariant\npotential x*x*y\n"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("gens x y\nrel x*y\n")  # no field
    with pytest.raises(UnknownGeneratorError):
        parse_presentation("field Q\ngens x y\nrel x*q\n")
    with pytest.raises(HomogeneityError):
        parse_presentation("field Q\ngens x y\nrel x*y + x\n")
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
    code, out, err = run(capsys, "sklyanin", "classify", "1", "2", "5", "--field", f"GF({2**89 - 1})")
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "ValueError"
    assert "10^14" in error["detail"]


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
    for text in ["field Q\ngens x y\nrel x*q\n"] + [text for text, _ in REPEATED_DIRECTIVES]:
        bad.write_text(text)
        code, out, err = run(capsys, "gb", str(bad))
        assert code == 2
        assert "error" in json.loads(err)
    bad.write_text(NOT_INVARIANT_POTENTIAL)
    code, out, err = run(capsys, "gb", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == {"kind": "ParseError", "detail": "line 4: potential is not cyclically invariant"}


@pytest.mark.parametrize(
    "argv",
    [
        ("gb", "presentations/w.alg", "--deg", "abc"),
        ("oracle", "presentations/w.alg", "--deg", "2.5"),
        ("sklyanin", "recursion", "0", "1", "--field", "Q", "--kmax", "x"),
        ("sklyanin", "classify", "1", "2", "3", "4", "5"),
        ("sklyanin", "iso", "1", "2", "1", "2", "1", "1", "7"),
        ("sklyanin", "orbit", "2", "3", "--kmax", "5"),
        ("oracle", "presentations/w.alg", "--deg", "2", "extra"),
        ("dual", "presentations/w.alg", "presentations/free.alg"),
        ("gb",),
        ("sklyanin", "classify", "1/0", "1", "1"),
        ("sklyanin", "orbit", "1+1/0*w", "2"),
    ],
)
def test_argument_errors_exit_2(capsys, argv):
    argv = [str(CORPUS.parent / a) if a.startswith("presentations/") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


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

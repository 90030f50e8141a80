import dataclasses
import hashlib
import json

import pytest

from brauercalc import algebra, cli, coeff, functors, params, rewrite, term
from brauercalc.cli import main, word_rows, word_tikz
from brauercalc.coeff import lp_int
from brauercalc.params import preset
from brauercalc.rewrite import normalize
from brauercalc.term import GenWord, Letter, cross, word

from test_params import FREE_D
from test_rewrite import _sweep_words


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_normalize_loop(capsys):
    code, out = run(capsys, "normalize", "-p", "brauer", "a(1)@2 . u(1)@0")
    assert code == 0
    assert out.strip() == "delta * B[0,0 | ]"


def test_normalize_skein_square(capsys):
    code, out = run(capsys, "normalize", "-p", "periplectic_q", "s(1)@2 . s(1)@2")
    assert code == 0
    lines = out.strip().splitlines()
    assert "1 * B[2,2 | 0-2 1-3]" in lines
    assert "(q - q^-1) * B[2,2 | 0-3 1-2]" in lines


def test_width_error_exit_code(capsys):
    code, _ = run(capsys, "normalize", "a(9)@2")
    assert code == 3


def test_a_width_mismatch_inside_one_expression_exits_3(capsys):
    # a composition or a sum of mismatched shapes is a width error, as it is
    # between two operands; inside one expression it once exited 2
    for expr, message in (
        ("a(1)@2 . a(1)@2", "composition mismatch: 2 on top of 0"),
        ("a(1)@2 + id@2", "summands have different shapes: "),
    ):
        code = main(["normalize", expr])
        out, err = capsys.readouterr()
        assert (code, out) == (3, ""), expr
        assert err.startswith("width error: " + message) and err.count("\n") == 1, err
    assert run(capsys, "compose", "a(1)@2", "a(1)@2")[0] == 3


def test_a_preset_and_a_params_file_together_are_refused(capsys, tmp_path):
    # -p was once ignored next to --params: the file's record was used
    path = tmp_path / "brauer.json"
    path.write_text(json.dumps(preset("brauer").to_json()))
    for argv in (
        ["normalize", "-p", "bwm", "--params", str(path), "s(1)@2 . s(1)@2"],
        ["verify", "confluence", "-p", "bwm", "--params", str(path)],
    ):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert err == "parse error: give --preset or --params, not both\n", argv


def test_parse_error_exit_code(capsys):
    assert run(capsys, "normalize", "a(1@2")[0] == 2
    assert run(capsys, "normalize", "-p", "nosuch", "id@2")[0] == 2


def test_coefficient_parse_error_exit_code(capsys, tmp_path):
    code = main(["map", "-p", "bwm", "--functor", "rescale", "--alpha", "x^", "s(1)@2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("parse error:")

    data = preset("bwm").to_json()
    data["lam"] = "v^"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["normalize", "--params", str(path), "s(1)@2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("parse error:")


def test_bad_inputs_exit_2_with_one_line(capsys, tmp_path):
    # each of these once escaped as a traceback
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"epsilon": 1}))
    # nesting deeper than the parsers' recursion once escaped as RecursionError
    deep_lam = tmp_path / "deep_lam.json"
    deep_lam.write_text(json.dumps({**preset("bwm").to_json(), "lam": "-" * 1200 + "v"}))
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 100000)
    for argv in (
        ["map", "-p", "bwm", "--functor", "rescale", "--alpha", "1+x", "s(1)@2"],
        ["normalize", "-p", "bwm", "2/0*s(1)@2"],
        ["normalize", "-p", "bwm", "(q+1)^-1*id@2"],
        ["normalize", "--params", str(path), "s(1)@2"],
        ["normalize", "--params", str(tmp_path), "s(1)@2"],
        ["normalize", "-p", "bwm", "(" * 250 + "id@2" + ")" * 250],
        ["map", "-p", "bwm", "--functor", "rescale", "--alpha=" + "-" * 1200 + "1", "s(1)@2"],
        ["normalize", "--params", str(deep_lam), "s(1)@2"],
        ["normalize", "--params", str(deep_json), "s(1)@2"],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("parse error:") and err.count("\n") == 1, (argv, err)
    # epsilon is the JSON integer 1 or -1; int() once read 1.5 and true as 1
    # and -1.9 as -1.  A unit is one of the texts 1, -1, i, -i; any other
    # value once exited 4 as a parameter error
    bad = [("epsilon", v) for v in (1.5, True, -1.9, 1.0, "1", 0, 2, None)]
    bad += [("e", 5), ("e", "2"), ("e_prime", None)]
    for field, value in bad:
        data = preset("bwm").to_json()
        data[field] = value
        path.write_text(json.dumps(data))
        code = main(["normalize", "--params", str(path), "s(1)@2"])
        err = capsys.readouterr().err
        assert code == 2, (field, value)
        assert err.startswith("parse error: params file:"), (field, value, err)
        assert err.count("\n") == 1, (field, value, err)


def test_negative_counts_exit_2(capsys):
    # argparse rejects them before any work starts; a negative letter count
    # once ran the confluence sweep forever, a negative n escaped as a
    # DiagramError traceback
    for argv in (
        ["table", "-p", "bwm", "--", "-1"],
        ["table", "-p", "bwm", "2", "--bound", "-1"],
        ["verify", "confluence", "-p", "bwm", "--max-letters", "-3"],
        ["verify", "confluence", "-p", "bwm", "--max-width", "-1"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        err = capsys.readouterr().err
        assert info.value.code == 2, argv
        assert "must not be negative" in err and "Traceback" not in err, (argv, err)


def test_an_expression_may_start_with_minus(capsys):
    # such a token was once taken for an unknown option: argparse exited 2
    # with a usage message
    for argv, exprs in (
        (["normalize", "-p", "bwm"], ["-q*id@2"]),
        (["compose", "-p", "bwm"], ["-q*s(1)@2", "-1*s(1)@2"]),
        (["tensor", "-p", "brauer"], ["-2*u(1)@0", "a(1)@2"]),
        (["map", "-p", "bwm", "--functor", "hflip"], ["-q*s(1)@2"]),
        # render once refused it while the other four read it
        (["render"], ["-q*id@2"]),
        (["render", "--format", "tikz"], ["-q*id@2"]),
    ):
        expected = run(capsys, *argv, "--", *exprs)
        assert expected[0] == 0 and expected[1], argv
        assert run(capsys, *argv, *exprs) == expected, argv
        # before the options as well
        assert run(capsys, argv[0], *exprs, *argv[1:]) == expected, argv


@pytest.mark.parametrize("error, code, prefix", [
    (term.ExprParseError("x"), 2, "parse error: "),
    (term.WidthError("x"), 3, "width error: "),
    (term.TermError("x"), 2, "parse error: "),
    (coeff.ParseError("x"), 2, "parse error: "),
    (coeff.InexactDivision("x"), 2, "parse error: "),
    (functors.NonUnitScale("x"), 2, "parse error: "),
    (algebra.UnknownPreset("x"), 2, "parse error: "),
    (IsADirectoryError("x"), 2, "parse error: "),
    (rewrite.WidthMismatch("x"), 3, "width error: "),
    (rewrite.InconsistentParams("x"), 4, "parameter error: "),
    (params.ParamError("x"), 4, "parameter error: "),
    (rewrite.FuelExhausted("x"), 1, "engine error: "),
    (rewrite.TooDeep(), 1, "engine error: "),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_caught_error_exits_with_its_code_and_one_line(
    capsys, monkeypatch, error, code, prefix
):
    def handler(args):
        raise error

    monkeypatch.setattr(cli, "cmd_classify", handler)
    assert main(["classify"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == prefix + str(error) + "\n"


def test_compose_and_tensor_call_the_module_binding(capsys, monkeypatch):
    # the parser reads nf_compose and nf_tensor when main builds it, so a
    # rebinding of them (as the bench tracer makes) reaches the commands
    calls = []
    for name in ("nf_compose", "nf_tensor"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda x, y, f=original, n=name: (
            calls.append(n), f(x, y))[1])
    assert run(capsys, "compose", "-p", "brauer", "a(1)@2", "u(1)@0")[0] == 0
    assert run(capsys, "tensor", "-p", "brauer", "u(1)@0", "a(1)@2")[0] == 0
    assert calls == ["nf_compose", "nf_tensor"]


def test_inconsistent_params_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for name, field, value in (
        ("bwm", "rho", "v"),  # breaks the delooping consistency equations
        # keeps sig_p = sig: of the named equations only Straight fails
        ("brauer", "epsilon", -1),
    ):
        data = preset(name).to_json()
        data[field] = value
        path.write_text(json.dumps(data))
        code, _ = run(capsys, "normalize", "--params", str(path), "s(1)@2")
        assert code == 4, (name, field)
    # passes every named equation, but d is not the derived -e*f_p = 0;
    # normalize and map refuse it alike
    path.write_text(json.dumps(dataclasses.replace(FREE_D, d=lp_int(1)).to_json()))
    for argv in (
        ["normalize"],
        ["map", "--functor", "hflip"],
        ["map", "--functor", "rescale", "--gamma", "t"],
    ):
        code = main(argv + ["--params", str(path), "s(1)@2"])
        out, err = capsys.readouterr()
        assert (code, out) == (4, ""), argv
        assert err == "parameter error: parameters violate: Derived\n", argv


@pytest.mark.parametrize("argv", [
    ["normalize", "s(1)@2"],
    ["compose", "s(1)@2", "s(1)@2"],
    ["tensor", "s(1)@2", "s(1)@2"],
    # once printed a table and exited 0
    ["table", "2"],
])
def test_an_inconsistent_record_exits_4(capsys, tmp_path, argv):
    bwm = preset("bwm")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dataclasses.replace(bwm, a=bwm.a + lp_int(1)).to_json()))
    code = main(argv + ["--params", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("parameter error: ") and err.count("\n") == 1, err


def test_params_file_round_trip(capsys, tmp_path):
    data = preset("periplectic_q").to_json()
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    code, out = run(
        capsys, "normalize", "--params", str(path), "--format", "json", "s(1)@2"
    )
    assert code == 0
    expected = normalize(word(2, [cross(1)]), preset("periplectic_q"))
    assert json.loads(out) == expected.to_json()


def test_compose_and_tensor(capsys):
    code, out = run(capsys, "compose", "-p", "brauer", "a(1)@2", "u(1)@0")
    assert code == 0 and out.strip() == "delta * B[0,0 | ]"
    code, out = run(capsys, "tensor", "-p", "brauer", "u(1)@0", "a(1)@2")
    assert code == 0
    assert out.strip() == "1 * B[2,2 | 0-1 2-3]"


def test_table_json_and_csv(capsys):
    code, out = run(capsys, "table", "-p", "brauer", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2 and len(data["basis"]) == 3
    # stable order: enumeration order of the diagram basis
    assert data["basis"] == [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]]

    code, out = run(capsys, "table", "-p", "brauer", "2", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 4  # header + 3 basis rows
    assert "(delta)*B[0-1 2-3]" in rows[1]


def test_table_bound(capsys):
    assert run(capsys, "table", "-p", "brauer", "5")[0] == 2


def test_verify_wenzl(capsys):
    code, out = run(capsys, "verify", "wenzl")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "Infeasible"
    assert data["witnesses"]


def test_verify_table1(capsys):
    code, out = run(capsys, "verify", "table1")
    assert code == 0
    data = json.loads(out)
    assert data["families"] == 13 and data["inconsistent"] == 0


def test_verify_confluence(capsys, tmp_path):
    code, out = run(
        capsys, "verify", "confluence", "-p", "bwm",
        "--max-width", "4", "--max-letters", "2",
    )
    assert code == 0
    assert json.loads(out)["counterexamples"] == 0
    # the sweep reads an inconsistent record instead of refusing it
    bwm = preset("bwm")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dataclasses.replace(bwm, a=bwm.a + lp_int(1)).to_json()))
    code, out = run(
        capsys, "verify", "confluence", "--params", str(path),
        "--max-width", "4", "--max-letters", "4",
    )
    assert code == 1
    assert json.loads(out)["counterexamples"] == 243


def test_verify_presentation(capsys):
    code, out = run(capsys, "verify", "presentation", "-p", "periplectic_q")
    assert code == 0
    for row in json.loads(out)["results"]:
        assert row["failed"] == []


def test_verify_rejects_a_record_it_would_ignore(capsys, tmp_path):
    # only confluence reads a record; the others once checked the presets
    # whatever --params or -p named
    path = tmp_path / "p.json"
    path.write_text(json.dumps(preset("bwm").to_json()))
    for argv in (
        ["verify", "table1", "--params", str(path)],
        ["verify", "wenzl", "--params", str(path)],
        ["verify", "presentation", "--params", str(path)],
        ["verify", "presentation", "-p", "bwm", "--params", str(path)],
        ["verify", "table1", "-p", "bwm"],
        ["verify", "wenzl", "-p", "bwm"],
    ):
        code = main(argv)
        out, err = capsys.readouterr()
        flag = "--params" if "--params" in argv else "--preset"
        assert code == 2, argv
        assert out == ""
        assert err == "parse error: verify %s takes no %s\n" % (argv[1], flag)


def test_classify(capsys):
    code, out = run(capsys, "classify", "-p", "periplectic_q")
    assert code == 0
    data = json.loads(out)
    assert data["families"] == ["Cb0_bl_s"] and data["consistent"]


def test_map_vflip(capsys):
    code, out = run(
        capsys, "map", "-p", "periplectic_q", "--functor", "vflip", "a(1)@2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["normal_form"]["m"] == 0 and data["normal_form"]["n"] == 2
    assert "lam" in data["params"]


def test_map_rescale(capsys):
    code, out = run(
        capsys, "map", "-p", "bwm", "--functor", "rescale",
        "--gamma", "t", "s(1)@2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["normal_form"]["terms"][0]["coeff"] == "t"
    assert data["params"]["lam"] == "t^-1*v"


def test_render_ascii(capsys):
    code, out = run(capsys, "render", "id@3")
    assert code == 0 and out.strip() == "| | |"
    code, out = run(capsys, "render", "a(1)@2")
    assert code == 0 and out.strip() == "/\\"
    code, out = run(capsys, "render", "a(1)@2 . s(1)@2 . u(1)@0")
    assert code == 0
    assert out.strip().splitlines() == ["/\\", "X", "\\/"]


def test_render_tikz_and_json(capsys):
    code, out = run(capsys, "render", "--format", "tikz", "s(1)@2")
    assert code == 0
    assert out.startswith("\\documentclass[tikz]{standalone}")
    assert "\\end{document}" in out

    code, out = run(capsys, "render", "--format", "json", "u(2)@1")
    assert code == 0
    data = json.loads(out)
    assert data == [
        {"coeff": "1", "domain": 1, "letters": [{"kind": "cup", "pos": 2}]}
    ]


def test_normalize_tikz(capsys):
    code, out = run(capsys, "normalize", "-p", "bwm", "--format", "tikz", "s(1)@2")
    assert code == 0
    assert "\\begin{tikzpicture}" in out and "\\end{document}" in out


def test_fuel_exhaustion_exits_1_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(rewrite, "_ENGINES", {})  # a cold memo spends steps
    monkeypatch.setattr(rewrite, "DEFAULT_FUEL", 3)
    code = main(["normalize", "-p", "bwm", "s(1)@2 . s(1)@2 . s(1)@2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("engine error: step budget of 3 exhausted"), err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_word_too_deep_for_the_engine_exits_1_with_one_line(capsys):
    # 400 cups, each added at the right end, with a crossing at column 1 on
    # top: pushing it recurses once per cup, past Python's recursion limit,
    # long before the step budget runs out
    cups = ["u(%d)@%d" % (k, k - 1) for k in range(799, 0, -2)]
    code = main(["normalize", "-p", "bwm", " . ".join(["s(1)@800"] + cups)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("engine error: recursion depth"), err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_word_view_is_pinned():
    # sha256 over the ascii rows and the tikz picture of every word the 4/4
    # confluence sweep visits, taken before word_tikz became one walk
    h = hashlib.sha256()
    count = 0
    for domain, letters in _sweep_words(4, 4):
        w = GenWord(domain, tuple(Letter(k, pos) for k, pos in letters))
        count += 1
        h.update(("\n".join(word_rows(w)) + "\n\n" + word_tikz(w) + "\n\n").encode())
    assert count == 2390
    assert h.hexdigest() == (
        "0ef312050a77947b297b5bdeb7137543592802adbb55da5c3c8d36ab12a082af"
    )


_TIKZ_HEAD = (
    "\\documentclass[tikz]{standalone}\n"
    "\\begin{document}\n"
    "\\begin{tikzpicture}[line cap=round]\n"
)
_TIKZ_TAIL = "\\end{tikzpicture}\n\\end{document}\n"

GOLDEN = [
    (
        ["render", "--format", "tikz", "a(1)@2 . s(1)@2 . u(1)@0"],
        _TIKZ_HEAD
        + "  \\draw (0,0.2) .. controls (0,1.4) and (1,1.4) .. (1,0.2);\n"
        "  \\draw (0,0.2) -- (0,1);\n"
        "  \\draw (1,0.2) -- (1,1);\n"
        "  \\draw (0,1) -- (1,2);\n"
        "  \\draw (1,1) -- (0,2);\n"
        "  \\draw (0,2) .. controls (0,2.8) and (1,2.8) .. (1,2);\n"
        + _TIKZ_TAIL,
    ),
    (
        ["render", "--format", "tikz", "q * s(1)@2 + id@2"],
        "% coefficient: q\n"
        + _TIKZ_HEAD
        + "  \\draw (0,0) -- (1,1);\n"
        "  \\draw (1,0) -- (0,1);\n"
        + _TIKZ_TAIL
        + "\n% coefficient: 1\n"
        + _TIKZ_HEAD
        + "  \\draw (0,0) -- (0,1);\n"
        "  \\draw (1,0) -- (1,1);\n"
        + _TIKZ_TAIL,
    ),
    (
        ["normalize", "-p", "brauer", "--format", "tikz", "u(1)@0 . a(1)@2"],
        _TIKZ_HEAD
        + "  \\fill (0,0) circle (2pt);\n"
        "  \\fill (1,0) circle (2pt);\n"
        "  \\fill (0,2) circle (2pt);\n"
        "  \\fill (1,2) circle (2pt);\n"
        "  \\draw (0,0) .. controls (0,1) and (1,1) .. (1,0);\n"
        "  \\draw (0,2) .. controls (0,1) and (1,1) .. (1,2);\n"
        "  \\node[anchor=west] at (2.5,1) {$1$};\n"
        + _TIKZ_TAIL,
    ),
    (
        ["normalize", "-p", "periplectic_q", "--format", "tikz", "s(1)@2 . s(1)@2"],
        _TIKZ_HEAD
        + "  \\fill (0,0) circle (2pt);\n"
        "  \\fill (1,0) circle (2pt);\n"
        "  \\fill (0,2) circle (2pt);\n"
        "  \\fill (1,2) circle (2pt);\n"
        "  \\draw (0,0) -- (0,2);\n"
        "  \\draw (1,0) -- (1,2);\n"
        "  \\node[anchor=west] at (2.5,1) {$1$};\n"
        "\\end{tikzpicture}\n"
        "\\begin{tikzpicture}[line cap=round]\n"
        "  \\fill (0,0) circle (2pt);\n"
        "  \\fill (1,0) circle (2pt);\n"
        "  \\fill (0,2) circle (2pt);\n"
        "  \\fill (1,2) circle (2pt);\n"
        "  \\draw (0,0) -- (1,2);\n"
        "  \\draw (1,0) -- (0,2);\n"
        "  \\node[anchor=west] at (2.5,1) {$q - q^{-1}$};\n"
        + _TIKZ_TAIL,
    ),
    (["normalize", "-p", "bwm", "s(1)@2 - s(1)@2"], "0 : Hom(2, 2)\n"),
    (
        ["map", "-p", "periplectic_q", "--functor", "hflip", "s(1)@2 . u(1)@0"],
        json.dumps(
            {
                "normal_form": {
                    "m": 0,
                    "n": 2,
                    "terms": [{"pairs": [[0, 1]], "coeff": "q"}],
                },
                "params": {
                    "epsilon": -1, "e": "1", "e_prime": "1",
                    "lam": "q", "lam_p": "-q^-1", "sig": "-1", "sig_p": "1",
                    "delta": "0", "rho": "q^-1", "a": "1", "b": "q - q^-1",
                    "c": "0", "d": "-q + q^-1", "d_p": "0", "f": "0",
                    "f_p": "q - q^-1", "D": "1 - q^-2", "D_p": "0",
                    "E": "q - q^-1", "E_p": "0", "F": "1", "F_p": "1",
                },
            },
            indent=2,
        )
        + "\n",
    ),
    (
        ["map", "-p", "periplectic_q", "--functor", "vflip", "s(1)@2 . u(1)@0"],
        json.dumps(
            {
                "normal_form": {
                    "m": 2,
                    "n": 0,
                    "terms": [{"pairs": [[0, 1]], "coeff": "q"}],
                },
                "params": {
                    "epsilon": -1, "e": "1", "e_prime": "1",
                    "lam": "-q^-1", "lam_p": "q", "sig": "-1", "sig_p": "1",
                    "delta": "0", "rho": "-q", "a": "1", "b": "q - q^-1",
                    "c": "0", "d": "-q + q^-1", "d_p": "0", "f": "0",
                    "f_p": "q - q^-1", "D": "1 - q^2", "D_p": "0",
                    "E": "q - q^-1", "E_p": "0", "F": "1", "F_p": "1",
                },
            },
            indent=2,
        )
        + "\n",
    ),
    (
        ["map", "-p", "bwm", "--functor", "rescale", "--alpha", "v", "--gamma", "t",
         "s(1)@2 . s(1)@2"],
        json.dumps(
            {
                "normal_form": {
                    "m": 2,
                    "n": 2,
                    "terms": [
                        {"pairs": [[0, 1], [2, 3]], "coeff": "-v^2*z"},
                        {"pairs": [[0, 2], [1, 3]], "coeff": "1"},
                        {"pairs": [[0, 3], [1, 2]], "coeff": "t*z"},
                    ],
                },
                "params": {
                    "epsilon": 1, "e": "1", "e_prime": "1",
                    "lam": "t^-1*v", "lam_p": "t^-1*v", "sig": "v^-1",
                    "sig_p": "v^-1", "delta": "v^-1 + v^-2*z^-1 - z^-1",
                    "rho": "t^-1*v^-2", "a": "t^-2", "b": "t^-1*z",
                    "c": "-t^-2*v^2*z", "d": "-t^-1*z", "d_p": "-t^-1*z",
                    "f": "t^-1*z", "f_p": "t^-1*z", "D": "0", "D_p": "0",
                    "E": "0", "E_p": "0", "F": "t^-2", "F_p": "t^-2",
                },
            },
            indent=2,
        )
        + "\n",
    ),
    # an expression that starts with "-" is read as if "--" preceded it,
    # also where its first letter names an option
    (["normalize", "-p", "bwm", "-q*id@2"], "-q * B[2,2 | 0-2 1-3]\n"),
    (["normalize", "-p", "bwm", "-p*id@2"], "-p * B[2,2 | 0-2 1-3]\n"),
    (["normalize", "-p", "bwm", "-h*id@2"], "-h * B[2,2 | 0-2 1-3]\n"),
]


@pytest.mark.parametrize(
    "argv, expected",
    GOLDEN,
    ids=["tikz-word", "tikz-sum", "tikz-arcs", "tikz-exponent", "zero", "map-hflip",
         "map-vflip", "map-rescale", "leading-minus", "leading-minus-p",
         "leading-minus-h"],
)
def test_golden_output(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected)

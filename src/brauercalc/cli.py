"""
Command-line surface for the diagram calculator.

Subcommands: normalize, compose, tensor, table, verify, classify, map,
render.  In every subcommand a token that starts with a single `-` and
contains `@` is an expression (`-q*id@2`), read as if `--` preceded it.
Parameters come from `--preset NAME` or `--params FILE.json`, not both
(never from the environment).  Exit codes: 0 success / all checks pass,
1 a verification found counterexamples or the engine ran out of its step
budget or of Python's recursion depth (one `engine error:` line on stderr),
2 expression or input parse error, 3 width error, 4 inconsistent parameters.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from .algebra import AlgebraError, check_presentation, mult_table
from .coeff import CoeffError, lp_int, lp_parse, lp_str
from .functors import NonUnitScale, RescaleSpec, hflip, rescale, vflip
from .params import (
    FAMILIES,
    ParamError,
    check_consistency,
    classify,
    family_instantiate,
    legal_unit_choices,
    params_from_json,
    preset,
    wenzl_feasibility,
)
from .rewrite import (
    FuelExhausted,
    InconsistentParams,
    NormalForm,
    TooDeep,
    WidthMismatch,
    check_local_confluence,
    nf_compose,
    nf_tensor,
    normalize,
)
from .term import (
    CAP,
    CROSS,
    CUP,
    ExprParseError,
    TermError,
    WidthError,
    parse_expr,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_WIDTH = 3
EXIT_PARAMS = 4


def count(text):
    """argparse type of a size or count: an integer that is not negative."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("must not be negative: %d" % n)
    return n


def load_params(args):
    if args.params and args.preset:
        raise ExprParseError("give --preset or --params, not both")
    if args.params:
        with open(args.params) as fh:
            try:
                return params_from_json(json.load(fh))
            except KeyError as ex:
                raise ExprParseError("params file: missing field %s" % ex)
            except (TypeError, ValueError, RecursionError) as ex:  # includes bad JSON
                raise ExprParseError("params file: %s" % ex)
    name = args.preset or "brauer"
    try:
        return preset(name)
    except ParamError:
        raise ExprParseError("unknown preset %r" % name)


def eval_expr(text, p):
    """Parse a DSL expression and return its normal form."""
    total = None
    for coeff, w in parse_expr(text):
        nf = normalize(w, p).scale(coeff)
        total = nf if total is None else total + nf
    return total


# ---------------------------------------------------------------------------
# Output formats


def diagram_label(pairs):
    return " ".join("%d-%d" % (i, j) for i, j in pairs)


def nf_ascii(nf: NormalForm) -> str:
    data = nf.to_json()
    if not data["terms"]:
        return "0 : Hom(%d, %d)" % (nf.m, nf.n)
    lines = []
    for term in data["terms"]:
        coeff = term["coeff"]
        if " " in coeff:
            coeff = "(%s)" % coeff
        lines.append(
            "%s * B[%d,%d | %s]"
            % (coeff, nf.m, nf.n, diagram_label(term["pairs"]))
        )
    return "\n".join(lines)


def _tikz_diagram(m, n, pairs, coeff):
    """One tikzpicture: bottom dots 0..m-1 at y=0, top dots at y=2."""
    out = ["\\begin{tikzpicture}[line cap=round]"]
    out += ["  \\fill (%d,0) circle (2pt);" % i for i in range(m)]
    out += ["  \\fill (%d,2) circle (2pt);" % j for j in range(n)]
    for i, j in pairs:
        if i < m and j < m:  # cap: both on the bottom
            out.append("  \\draw (%d,0) .. controls (%d,1) and (%d,1) .. (%d,0);"
                       % (i, i, j, j))
        elif i >= m and j >= m:  # cup: both on the top
            out.append("  \\draw (%d,2) .. controls (%d,1) and (%d,1) .. (%d,2);"
                       % (i - m, i - m, j - m, j - m))
        else:
            out.append("  \\draw (%d,0) -- (%d,2);" % (i, j - m))
    out.append("  \\node[anchor=west] at (%d.5,1) {$%s$};" % (max(m, n, 1), coeff))
    out.append("\\end{tikzpicture}")
    return "\n".join(out)


def nf_tikz(nf: NormalForm) -> str:
    data = nf.to_json()
    body = [
        # LaTeX raises one character unless the exponent is braced
        _tikz_diagram(nf.m, nf.n, term["pairs"],
                      coeff=re.sub(r"\^(-?\d+)", r"^{\1}", term["coeff"]))
        for term in data["terms"]
    ] or [_tikz_diagram(nf.m, nf.n, [], coeff="0")]
    return "\n".join(
        ["\\documentclass[tikz]{standalone}", "\\begin{document}"]
        + body
        + ["\\end{document}"]
    )


def format_nf(nf, fmt):
    if fmt == "json":
        return json.dumps(nf.to_json(), indent=2)
    if fmt == "tikz":
        return nf_tikz(nf)
    return nf_ascii(nf)


# ---------------------------------------------------------------------------
# Word rendering (one generator per text row)


_GLYPHS = {CROSS: "X", CAP: "/\\", CUP: "\\/"}


def word_rows(w):
    """Ascii rows, topmost letter first; glyphs |, /\\, \\/, X."""
    rows = []
    widths = w.widths()
    for level, letter in enumerate(w.letters):
        # one cell per strand of the wider side, the letter's two in one glyph
        cells = ["|"] * max(widths[level], widths[level + 1])
        cells[letter.pos - 1 : letter.pos + 1] = [_GLYPHS[letter.kind]]
        rows.append(" ".join(cells))
    if not w.letters:
        rows.append(" ".join(["|"] * w.domain))
    return list(reversed(rows))


def word_tikz(w):
    """Standalone picture of the word view, one letter per unit of height.

    Each level is drawn by one walk over its wider side: a crossing swaps
    its two strands, a cap joins two bottom strands and moves the strands
    to its right 2 to the left, a cup joins two top strands and moves the
    strands to its right 2 to the right."""
    lines = ["\\documentclass[tikz]{standalone}", "\\begin{document}",
             "\\begin{tikzpicture}[line cap=round]"]
    strand = "  \\draw (%d,%d) -- (%d,%d);"
    widths = w.widths()
    if not w.letters:
        lines += [strand % (x, 0, x, 1) for x in range(w.domain)]
    for y, letter in enumerate(w.letters):
        x0 = letter.pos - 1
        for x in range(max(widths[y], widths[y + 1])):
            if letter.kind == CROSS:
                top = 2 * x0 + 1 - x if x in (x0, x0 + 1) else x
                lines.append(strand % (x, y, top, y + 1))
            elif x == x0 and letter.kind == CAP:
                lines.append("  \\draw (%d,%d) .. controls (%d,%d.8) and (%d,%d.8) .. (%d,%d);"
                             % (x, y, x, y, x + 1, y, x + 1, y))
            elif x == x0:  # cup
                lines += [
                    "  \\draw (%d,%d.2) .. controls (%d,%d.4) and (%d,%d.4) .. (%d,%d.2);"
                    % (x, y, x, y + 1, x + 1, y + 1, x + 1, y),
                    "  \\draw (%d,%d.2) -- (%d,%d);" % (x, y, x, y + 1),
                    "  \\draw (%d,%d.2) -- (%d,%d);" % (x + 1, y, x + 1, y + 1),
                ]
            elif x != x0 + 1:
                near = x if x < x0 else x - 2
                lines.append(strand % ((x, y, near, y + 1) if letter.kind == CAP
                                       else (near, y, x, y + 1)))
    lines += ["\\end{tikzpicture}", "\\end{document}"]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_nf(args):
    """normalize, compose, tensor: `args.op` of the operands' normal forms."""
    p = load_params(args)
    nf = args.op(*(eval_expr(getattr(args, name), p) for name in args.operands))
    print(format_nf(nf, args.format))
    return EXIT_OK


def cmd_table(args):
    p = load_params(args)
    table = mult_table(args.n, p, bound=args.bound)
    if args.format == "csv":
        labels = ["B[%s]" % diagram_label(d.pairs()) for d in table.basis]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["*"] + labels)
        for label, row in zip(labels, table.products):
            cells = []
            for nf in row:
                data = nf.to_json()
                cells.append(
                    " + ".join(
                        "(%s)*B[%s]" % (t["coeff"], diagram_label(t["pairs"]))
                        for t in data["terms"]
                    )
                    or "0"
                )
            writer.writerow([label] + cells)
        sys.stdout.write(buf.getvalue())
    else:
        print(json.dumps(table.to_json(), indent=2))
    return EXIT_OK


def cmd_verify(args):
    # only confluence reads a parameter record; presentation takes a preset name
    if args.params and args.what != "confluence":
        raise ExprParseError("verify %s takes no --params" % args.what)
    if args.preset and args.what in ("table1", "wenzl"):
        raise ExprParseError("verify %s takes no --preset" % args.what)

    if args.what == "confluence":
        p = load_params(args)
        fails = check_local_confluence(
            p, max_width=args.max_width, max_letters=args.max_letters
        )
        report = {
            "check": "confluence",
            "max_width": args.max_width,
            "max_letters": args.max_letters,
            "counterexamples": len(fails),
        }
        print(json.dumps(report, indent=2))
        return EXIT_OK if not fails else EXIT_FAIL

    if args.what == "table1":
        rows = []
        bad = 0
        for family in FAMILIES:
            for eps in (1, -1):
                for e, ep in legal_unit_choices(family, eps):
                    p = family_instantiate(family, eps, e, {}, e_prime=ep)
                    violated = check_consistency(p)
                    bad += bool(violated)
                    rows.append(
                        {
                            "family": family,
                            "epsilon": eps,
                            "e": str(e),
                            "e_prime": str(ep),
                            "violations": violated,
                        }
                    )
        report = {
            "check": "table1",
            "families": len(FAMILIES),
            "instantiations": len(rows),
            "inconsistent": bad,
            "rows": rows,
        }
        print(json.dumps(report, indent=2))
        return EXIT_OK if bad == 0 and len(FAMILIES) == 13 else EXIT_FAIL

    if args.what == "presentation":
        names = [args.preset] if args.preset else ["bwm", "periplectic_q"]
        report = {"check": "presentation", "results": []}
        ok = True
        for name in names:
            for n in (3, 4):
                failed = check_presentation(name, n)
                ok = ok and not failed
                report["results"].append({"preset": name, "n": n, "failed": failed})
        print(json.dumps(report, indent=2))
        return EXIT_OK if ok else EXIT_FAIL

    # wenzl
    rep = wenzl_feasibility()
    report = {
        "check": "wenzl",
        "status": rep.status,
        "detail": rep.detail,
        "witnesses": [list(wit) for wit in rep.witnesses],
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK if rep.status == "Infeasible" else EXIT_FAIL


def cmd_classify(args):
    p = load_params(args)
    print(json.dumps({"families": classify(p), "consistent": not check_consistency(p)}))
    return EXIT_OK


def cmd_map(args):
    p = load_params(args)
    nf = eval_expr(args.expr, p)
    if args.functor == "rescale":
        spec = RescaleSpec(
            lp_parse(args.alpha), lp_parse(args.beta), lp_parse(args.gamma)
        )
        out = rescale(nf, spec)
    elif args.functor == "vflip":
        out = vflip(nf)
    else:
        out = hflip(nf)
    print(
        json.dumps(
            {"normal_form": out.to_json(), "params": out.params.to_json()}, indent=2
        )
    )
    return EXIT_OK


def cmd_render(args):
    terms = parse_expr(args.expr)
    if args.format == "json":
        data = [
            {
                "coeff": lp_str(c),
                "domain": w.domain,
                "letters": [{"kind": l.kind, "pos": l.pos} for l in w.letters],
            }
            for c, w in terms
        ]
        print(json.dumps(data, indent=2))
        return EXIT_OK
    tikz = args.format == "tikz"
    chunks = []
    for c, w in terms:
        body = word_tikz(w) if tikz else "\n".join(word_rows(w))
        if len(terms) > 1 or c != lp_int(1):
            body = "%scoefficient: %s\n%s" % ("% " if tikz else "", lp_str(c), body)
        chunks.append(body)
    print("\n\n".join(chunks))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """A subcommand parser that reads a token that starts with a single `-`
    and contains `@` as an expression such as `-q*id@2` or `-p*id@2`, as if
    `--` preceded it: every generator of the DSL carries `@`, and no option,
    preset or format name does."""

    def _parse_optional(self, arg_string):
        if not arg_string.startswith("--") and "@" in arg_string:
            return None
        return super()._parse_optional(arg_string)


def _add_params_flags(sp):
    sp.add_argument("-p", "--preset", help="named parameter record")
    sp.add_argument("--params", help="JSON file with a parameter record")


def _add_format_flag(sp):
    sp.add_argument("--format", choices=("ascii", "tikz", "json"), default="ascii")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="brauercalc",
        description="Exact calculator for cup/cap/crossing diagram categories.",
    )
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # nf_compose and nf_tensor are looked up when the parser is built, not at
    # import, so that a rebinding of them (bench/tracer.py's) reaches cmd_nf
    for name, summary, op, operands in (
        ("normalize", "normal form of an expression", lambda nf: nf, ("expr",)),
        ("compose", "stack the first expression on the second", nf_compose,
         ("top", "bottom")),
        ("tensor", "place the first expression left of the second", nf_tensor,
         ("left", "right")),
    ):
        sp = sub.add_parser(name, help=summary)
        _add_params_flags(sp)
        _add_format_flag(sp)
        for operand in operands:
            sp.add_argument(operand)
        sp.set_defaults(func=cmd_nf, op=op, operands=operands)

    sp = sub.add_parser("table", help="multiplication table of End(n)")
    _add_params_flags(sp)
    sp.add_argument("n", type=count)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--bound", type=count, default=4)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("what", choices=("confluence", "table1", "presentation", "wenzl"))
    _add_params_flags(sp)
    sp.add_argument("--max-width", type=count, default=4)
    sp.add_argument("--max-letters", type=count, default=3)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("classify", help="family tags matching a parameter record")
    _add_params_flags(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("map", help="apply a structural functor to an expression")
    _add_params_flags(sp)
    sp.add_argument("--functor", choices=("rescale", "vflip", "hflip"), required=True)
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--beta", default="1")
    sp.add_argument("--gamma", default="1")
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_map)

    sp = sub.add_parser("render", help="draw the word view of an expression")
    _add_format_flag(sp)
    sp.add_argument("expr")
    sp.set_defaults(func=cmd_render)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (WidthError, WidthMismatch) as ex:  # a WidthError is a TermError
        print("width error: %s" % ex, file=sys.stderr)
        return EXIT_WIDTH
    except (TermError, CoeffError, NonUnitScale, AlgebraError, OSError) as ex:
        print("parse error: %s" % ex, file=sys.stderr)
        return EXIT_PARSE
    except (InconsistentParams, ParamError) as ex:
        print("parameter error: %s" % ex, file=sys.stderr)
        return EXIT_PARAMS
    except (FuelExhausted, TooDeep) as ex:
        print("engine error: %s" % ex, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

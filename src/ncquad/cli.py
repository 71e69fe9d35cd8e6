"""Presentation-file parser, command dispatch, machine-readable output.

File grammar, line oriented, `#` starts a comment:

    field Q | Q(w) | GF(<p>)
    gens <id> <id> ...
    order <id> > <id> > ...        (optional; default: declaration order)
    rel <polynomial>               (zero or more)
    potential <polynomial>         (alternative to rel lines)

Each directive but `rel` appears at most once.

Commands print a single JSON object on stdout and exit 0; domain errors
exit 1 and file/syntax errors exit 2, with `{"error": ...}` on stderr.
"""

from __future__ import annotations

import json
import sys

from .errors import AlgebraError, ParseError, UnknownGeneratorError
# graded_dim_oracle is unused here but stays a module attribute: the traced
# benchmark run (perfbench/tracing.py) wraps it at this import site
from .groebner import (  # noqa: F401
    Presentation,
    _graded_dims,
    complete,
    graded_dim_oracle,
    hilbert_coeffs,
)
from .ncpoly import parse_poly, render_poly, render_word, MonomialOrder
from .potential import relations_from_potential
from .quadratic import QuadraticAlgebra, dual_hypotheses, dual_algebra, koszul_defect, right_annihilator_dim
from .scalars import parse_field
from .sklyanin import (
    ParamTriple,
    are_isomorphic,
    classify,
    iso_group_orbit,
    coefficient_recursion,
    substitution_chain,
)

DEFAULT_DEGREE = 8


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation file; `potential` lines yield derived relations
    and the potential is kept on the returned presentation."""
    field = None
    names = None
    order = None
    relations = []
    potential_poly = potential_line = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            # a second line would silently rename or re-field what came before
            if head in ("field", "gens", "order", "potential"):
                if head in seen:
                    raise ParseError(f"repeated {head} line")
                seen.add(head)
            if head == "field":
                field = parse_field(rest)
            elif head == "gens":
                names = tuple(rest.split())
                if len(set(names)) != len(names) or not names:
                    raise ParseError("generators must be distinct identifiers")
            elif head == "order":
                if names is None:
                    raise ParseError("order line before gens line")
                listed = tuple(s.strip() for s in rest.split(">"))
                if sorted(listed) != sorted(names):
                    raise ParseError("order line must mention every generator once")
                prec = [0] * len(names)
                for rank, nm in enumerate(listed):
                    prec[names.index(nm)] = rank
                order = MonomialOrder(tuple(prec))
            elif head == "rel":
                if field is None or names is None:
                    raise ParseError("rel line before field/gens lines")
                relations.append(parse_poly(rest, field, names))
            elif head == "potential":
                if field is None or names is None:
                    raise ParseError("potential line before field/gens lines")
                potential_poly = parse_poly(rest, field, names)
                potential_line = lineno
            else:
                raise ParseError(f"unknown directive {head!r}")
        except UnknownGeneratorError as exc:
            raise UnknownGeneratorError(str(exc), line=lineno) from None
        except ParseError as exc:
            if exc.line is None:
                raise type(exc)(str(exc), line=lineno) from None
            raise
    if field is None or names is None:
        raise ParseError("file needs field and gens lines")
    if potential_poly is not None:
        if relations:
            raise ParseError("a file has either rel lines or a potential line")
        try:
            relations = relations_from_potential(potential_poly)
        except ValueError as exc:
            raise ParseError(str(exc), line=potential_line) from None
    return Presentation(field, len(names), tuple(relations), order, names, potential_poly)


def render_presentation(pres: Presentation) -> str:
    lines = [f"field {pres.field.name()}", "gens " + " ".join(pres.names)]
    default_prec = tuple(range(pres.ngens))
    if pres.order.precedence != default_prec:
        by_rank = sorted(range(pres.ngens), key=lambda g: pres.order.precedence[g])
        lines.append("order " + " > ".join(pres.names[g] for g in by_rank))
    for rel in pres.relations:
        lines.append("rel " + render_poly(rel, pres.names, pres.order))
    return "\n".join(lines) + "\n"


def _emit(obj) -> int:
    sys.stdout.write(json.dumps(obj, separators=(", ", ": ")) + "\n")
    return 0


def _fail(kind: str, detail: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "detail": detail}}) + "\n")
    return code


def _load(args) -> Presentation:
    """Parse the presentation file named by `args`, which holds exactly its path."""
    if len(args) != 1:
        raise ParseError(f"expected one presentation file, got arguments {args!r}")
    with open(args[0], "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _take_flag(args, name, default=None):
    if name in args:
        i = args.index(name)
        if i + 1 >= len(args):
            raise ParseError(f"{name} needs a value")
        value = args[i + 1]
        del args[i : i + 2]
        return value
    return default


def _int_flag(args, name, default):
    value = _take_flag(args, name, default)
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{name} needs an integer, got {value!r}") from None


def _scalar_matrix(sub, field):
    return [[field.render(v) for v in row] for row in sub.matrix]


def _class_payload(cls, field):
    params = {}
    if cls.alpha is not None:
        params["alpha"] = field.render(cls.alpha)
    if cls.pair is not None:
        params["a"] = field.render(cls.pair[0])
        params["b"] = field.render(cls.pair[1])
    return {
        "class": cls.kind.value,
        "params": params,
        "witness": _scalar_matrix(cls.witness, field),
    }


def run_command(argv) -> int:
    """Dispatch one subcommand; returns the process exit status."""
    args = list(argv)
    if not args or args[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    cmd = args.pop(0)
    try:
        if cmd == "gb":
            degree = _int_flag(args, "--deg", DEFAULT_DEGREE)
            pres = _load(args)
            basis = complete(pres, degree)
            return _emit(
                {
                    "gb": [
                        {
                            "lead": render_word(g.leading_word(basis.order), pres.names),
                            "poly": render_poly(g, pres.names, basis.order),
                        }
                        for g in basis.elements
                    ],
                    "complete": True,
                    "degree_bound": basis.degree_bound,
                }
            )
        if cmd == "hilbert":
            degree = _int_flag(args, "--deg", DEFAULT_DEGREE)
            pres = _load(args)
            basis = complete(pres, degree)
            return _emit({"hilbert": hilbert_coeffs(basis, degree)})
        if cmd == "oracle":
            degree = _int_flag(args, "--deg", 4)
            pres = _load(args)
            return _emit({"oracle": _graded_dims(pres, degree)})
        if cmd == "dual":
            pres = _load(args)
            dual = dual_algebra(QuadraticAlgebra(pres))
            dp = dual.presentation
            return _emit(
                {
                    "gens": list(dp.names),
                    "relations": [render_poly(r, dp.names, dp.order) for r in dp.relations],
                }
            )
        if cmd == "koszul":
            degree = _int_flag(args, "--deg", DEFAULT_DEGREE)
            pres = _load(args)
            alg = QuadraticAlgebra(pres)
            report = dual_hypotheses(alg)
            return _emit(
                {
                    "defect": koszul_defect(alg, degree),
                    "dual_hypotheses": {
                        "dual4_zero": report.dual4_zero,
                        "dual3_dim": report.dual3_dim,
                        "no_dual_degree1_left_annihilator": report.no_dual_degree1_left_annihilator,
                        "no_dual_degree1_right_annihilator": report.no_dual_degree1_right_annihilator,
                    },
                    "right_annihilator_dims": [
                        right_annihilator_dim(alg, d) for d in range(1, degree)
                    ],
                }
            )
        if cmd == "sklyanin":
            return _run_sklyanin(args)
        return _fail("usage", f"unknown command {cmd!r}", 2)
    except (ParseError, OSError) as exc:
        return _fail(type(exc).__name__, str(exc), 2)
    except (AlgebraError, ValueError, ZeroDivisionError) as exc:
        return _fail(type(exc).__name__, str(exc), 1)


def _run_sklyanin(args) -> int:
    if not args:
        return _fail("usage", "sklyanin needs a subcommand", 2)
    sub = args.pop(0)
    field = parse_field(_take_flag(args, "--field", "Q(w)"))
    # only recursion takes --kmax; on another subcommand it is an extra argument
    kmax = _int_flag(args, "--kmax", 8) if sub == "recursion" else None
    needed = {"classify": 3, "iso": 6, "orbit": 2, "chain": 2, "recursion": 2}
    if sub in needed and len(args) != needed[sub]:
        return _fail("usage", f"sklyanin {sub} needs {needed[sub]} scalar arguments", 2)

    def triple(three):
        p, q, r = (field.parse(s) for s in three)
        return ParamTriple(field, p, q, r)

    if sub == "classify":
        cls = classify(triple(args[:3]))
        return _emit(_class_payload(cls, field))
    if sub == "iso":
        decision = are_isomorphic(triple(args[:3]), triple(args[3:6]))
        payload = {"isomorphic": decision.isomorphic, "reason": decision.reason}
        payload["witness"] = (
            _scalar_matrix(decision.witness, field) if decision.witness else None
        )
        return _emit(payload)
    if sub == "orbit":
        a, b = (field.parse(s) for s in args[:2])
        orbit = iso_group_orbit(field, a, b)
        return _emit({"orbit": [[field.render(u), field.render(v)] for u, v in orbit]})
    if sub == "chain":
        a, b = (field.parse(s) for s in args[:2])
        res = substitution_chain(field, a, b)
        return _emit(
            {
                "subs": [_scalar_matrix(s, field) for s in res.steps],
                "ab_coeffs": [field.render(res.ab_coeffs[0]), field.render(res.ab_coeffs[1])],
                "alpha": field.render(res.alpha),
                "gamma": field.render(res.gamma),
            }
        )
    if sub == "recursion":
        alpha, gamma = (field.parse(s) for s in args[:2])
        states = coefficient_recursion(field, alpha, gamma, kmax)
        return _emit(
            {
                "states": [
                    {
                        "k": s.k,
                        "a": field.render(s.a),
                        "b": field.render(s.b),
                        "outcome": s.outcome.value,
                    }
                    for s in states
                ]
            }
        )
    return _fail("usage", f"unknown sklyanin subcommand {sub!r}", 2)


_USAGE = """\
usage: ncquad <command> [options]

  gb <file> [--deg D]        reduced Groebner basis, certified to degree D
  hilbert <file> [--deg D]   Hilbert series coefficients 0..D
  oracle <file> [--deg D]    graded dimensions by exact row reduction
  dual <file>                quadratic dual presentation
  koszul <file> [--deg D]    series-identity defect and dual hypotheses
  sklyanin classify p q r [--field F]
  sklyanin iso p q r p' q' r' [--field F]
  sklyanin orbit a b [--field F]
  sklyanin chain a b [--field F]
  sklyanin recursion alpha gamma [--field F] [--kmax K]

Fields: Q, Q(w), GF(p). Scalars: 2, -1/3, 1+2*w. Default field Q(w).
"""


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

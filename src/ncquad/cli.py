"""Presentation-file parser, command dispatch, machine-readable output.

File grammar, line oriented, `#` starts a comment:

    field Q | Q(w) | GF(<p>)
    gens <id> <id> ...
    order <id> > <id> > ...        (optional; default: declaration order)
    rel <polynomial>               (zero or more)
    potential <polynomial>         (alternative to rel lines)

Each directive but `rel` appears at most once, and a file has either `rel`
lines or a `potential` line, whose cyclic derivative by every generator
must be nonzero.  Polynomials are read by `ncpoly.parse_poly`.

Commands print a single JSON object on stdout and exit 0; domain errors
exit 1 and file/syntax errors exit 2, with `{"error": ...}` on stderr.
Two tables dispatch them: `_FILE_COMMANDS` for the commands on a file and
`_SKLYANIN_COMMANDS` for the `sklyanin` subcommands.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from .errors import AlgebraError, ParseError
# graded_dim_oracle is unused here but stays a module attribute: the traced
# benchmark run (perfbench/tracing.py) wraps it at this import site
from .groebner import (  # noqa: F401
    Presentation,
    _graded_dims,
    check_relation,
    complete,
    graded_dim_oracle,
    hilbert_coeffs,
)
from .ncpoly import cyclic_derivative, parse_poly, render_poly, render_word, MonomialOrder
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
    potential_poly = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            # a second line would silently rename or re-field what came before
            if head in ("field", "gens", "order", "potential") and head in seen:
                raise ParseError(f"repeated {head} line")
            seen.add(head)
            if head == "field":
                field = parse_field(rest)
            elif head == "gens":
                names = tuple(rest.split())
                if not names or len(set(names)) != len(names) or not all(n.isidentifier() for n in names):
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
            elif head in ("rel", "potential"):
                if field is None or names is None:
                    raise ParseError(f"{head} line before field/gens lines")
                if {"rel", "potential"} <= seen:
                    raise ParseError("a file has either rel lines or a potential line")
                poly = parse_poly(rest, field, names)
                try:
                    new = [poly] if head == "rel" else relations_from_potential(poly)
                    if head == "potential" and len(new) < len(names):
                        g = next(g for g in range(len(names)) if not cyclic_derivative(poly, g))
                        raise ParseError(f"cyclic derivative by {names[g]} vanishes")
                    for r in new:
                        check_relation(r, field, len(names), names)
                except ValueError as exc:
                    raise ParseError(str(exc)) from None
                relations += new
                if head == "potential":
                    potential_poly = poly
            else:
                raise ParseError(f"unknown directive {head!r}")
            # a generator named like a unit of the field would read back as the unit
            clash = head in ("field", "gens") and field is not None and names and set(names) & field.units.keys()
            if clash:
                raise ParseError(f"generator {min(clash)!r} is a unit of {field.name()}")
        except ParseError as exc:
            if exc.line is None:
                raise type(exc)(str(exc), line=lineno) from None
            raise
    if field is None or names is None:
        raise ParseError("file needs field and gens lines")
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


def _gb(pres, degree):
    basis = complete(pres, degree)
    return {
        "gb": [
            {"lead": render_word(lead, pres.names), "poly": render_poly(g, pres.names, basis.order)}
            for lead, g in zip(basis.lead_words(), basis.elements)
        ],
        "complete": True,
        "degree_bound": basis.degree_bound,
    }


def _dual(pres, degree):
    dp = dual_algebra(QuadraticAlgebra(pres)).presentation
    return {"gens": list(dp.names), "relations": [render_poly(r, dp.names, dp.order) for r in dp.relations]}


def _koszul(pres, degree):
    alg = QuadraticAlgebra(pres)
    # the calls run in the order of the keys, which is the JSON output's order
    return {
        "defect": koszul_defect(alg, degree),
        "dual_hypotheses": dataclasses.asdict(dual_hypotheses(alg)),
        "right_annihilator_dims": [right_annihilator_dim(alg, d) for d in range(1, degree)],
    }


# The payloads here and in _SKLYANIN_COMMANDS look library functions up as
# this module's attributes when they run, so that a wrapper installed there
# (perfbench/tracing.py) sees every call.
# command -> (default --deg, None for no --deg; payload of (presentation, degree))
_FILE_COMMANDS = {
    "gb": (DEFAULT_DEGREE, _gb),
    "hilbert": (DEFAULT_DEGREE, lambda pres, d: {"hilbert": hilbert_coeffs(complete(pres, d), d)}),
    "oracle": (4, lambda pres, d: {"oracle": _graded_dims(pres, d)}),
    "dual": (None, _dual),
    "koszul": (DEFAULT_DEGREE, _koszul),
}


def run_command(argv) -> int:
    """Dispatch one subcommand; returns the process exit status."""
    args = list(argv)
    if not args or args[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0
    cmd = args.pop(0)
    try:
        if cmd == "sklyanin":
            return _run_sklyanin(args)
        if cmd not in _FILE_COMMANDS:
            return _fail("usage", f"unknown command {cmd!r}", 2)
        default_degree, payload = _FILE_COMMANDS[cmd]
        degree = None if default_degree is None else _int_flag(args, "--deg", default_degree)
        return _emit(payload(_load(args), degree))
    except (ParseError, OSError) as exc:
        return _fail(type(exc).__name__, str(exc), 2)
    except (AlgebraError, ValueError, ZeroDivisionError) as exc:
        return _fail(type(exc).__name__, str(exc), 1)


def _classify(field, xs, kmax):
    cls = classify(ParamTriple(field, *xs))
    params = {}
    if cls.alpha is not None:
        params["alpha"] = field.render(cls.alpha)
    if cls.pair is not None:
        params["a"] = field.render(cls.pair[0])
        params["b"] = field.render(cls.pair[1])
    return {"class": cls.kind.value, "params": params, "witness": _scalar_matrix(cls.witness, field)}


def _iso(field, xs, kmax):
    decision = are_isomorphic(ParamTriple(field, *xs[:3]), ParamTriple(field, *xs[3:]))
    witness = _scalar_matrix(decision.witness, field) if decision.witness else None
    return {"isomorphic": decision.isomorphic, "reason": decision.reason, "witness": witness}


def _orbit(field, xs, kmax):
    return {"orbit": [[field.render(u), field.render(v)] for u, v in iso_group_orbit(field, *xs)]}


def _chain(field, xs, kmax):
    res = substitution_chain(field, *xs)
    return {
        "subs": [_scalar_matrix(s, field) for s in res.steps],
        "ab_coeffs": [field.render(res.ab_coeffs[0]), field.render(res.ab_coeffs[1])],
        "alpha": field.render(res.alpha),
        "gamma": field.render(res.gamma),
    }


def _recursion(field, xs, kmax):
    states = coefficient_recursion(field, *xs, kmax)
    return {
        "states": [
            {"k": s.k, "a": field.render(s.a), "b": field.render(s.b), "outcome": s.outcome.value}
            for s in states
        ]
    }


# subcommand -> (number of scalar arguments, payload of (field, scalars, kmax))
_SKLYANIN_COMMANDS = {
    "classify": (3, _classify),
    "iso": (6, _iso),
    "orbit": (2, _orbit),
    "chain": (2, _chain),
    "recursion": (2, _recursion),
}


def _run_sklyanin(args) -> int:
    if not args:
        return _fail("usage", "sklyanin needs a subcommand", 2)
    sub = args.pop(0)
    field = parse_field(_take_flag(args, "--field", "Q(w)"))
    if sub not in _SKLYANIN_COMMANDS:
        return _fail("usage", f"unknown sklyanin subcommand {sub!r}", 2)
    count, payload = _SKLYANIN_COMMANDS[sub]
    # only recursion takes --kmax; on another subcommand it is an extra argument
    kmax = _int_flag(args, "--kmax", 8) if sub == "recursion" else None
    if len(args) != count:
        return _fail("usage", f"sklyanin {sub} needs {count} scalar arguments", 2)
    return _emit(payload(field, [field.parse(s) for s in args], kmax))


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

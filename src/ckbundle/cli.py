"""Command-line surface: matrix ingestion, invariant reports, comparison
verdicts and machine-readable output."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from . import bundle, ck, sft
from .abelian import FgAbelianGroup
from .intmat import IntMatrix, IntPolynomial, det, smith_normal_form, trace

__all__ = ["ParseError", "InvariantReport", "parse_matrix", "build_report", "main"]

SIZE_WARNING_THRESHOLD = 12


class ParseError(ValueError):
    """Raised for malformed matrix input."""


def _integer(token: str, where: str) -> int:
    """The integer of an ASCII token [+-]?[0-9]+, or a ParseError that starts
    with where and measures the token instead of echoing it."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{where}: token of {len(token)} characters is not an integer")
    try:
        return int(token)
    except ValueError:  # only past the interpreter's decimal-conversion limit
        limit = sys.get_int_max_str_digits()
        message = f"integer of {len(digits)} digits exceeds the limit of {limit} digits"
        raise ParseError(f"{where}: {message}") from None


class _IntLiteral(str):
    """A JSON integer literal, kept as its text until _integer converts it."""


def parse_matrix(text: str) -> IntMatrix:
    """Parse a matrix from either plain text (one whitespace-separated row
    per line) or a JSON object with a "rows" key."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty input")
    if stripped.startswith("{"):
        return _parse_json_matrix(stripped)
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        row = [_integer(token, where) for token in line.split()]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{where}: expected {width} entries, got {len(row)}")
        rows.append(row)
    return IntMatrix(rows)


def _parse_json_matrix(text: str) -> IntMatrix:
    try:
        obj = json.loads(text, parse_int=_IntLiteral)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ParseError('JSON input must be an object with a "rows" key')
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows:
        raise ParseError('"rows" must be a nonempty list of rows')
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, list):
            raise ParseError(f"row {i} is not a list")
        if len(row) != len(rows[0]):
            raise ParseError(f"row {i}: expected {len(rows[0])} entries, got {len(row)}")
        for j, x in enumerate(row):
            if not isinstance(x, _IntLiteral):
                raise ParseError(f"row {i}: {type(x).__name__} entry is not an integer")
            row[j] = _integer(x, f"row {i}")
    return IntMatrix(rows)


@dataclass(frozen=True)
class InvariantReport:
    """Everything the `invariants` subcommand reports for one matrix.

    Bundle fields (normalized, h1, alexander, theorem1_check) are None when
    the matrix is not unimodular; irreducible/primitive are None when the
    matrix has a negative entry. h1 is read off K0's Smith diagonal, so
    theorem1_check holds by construction; `bundle.theorem1_check` is the
    check from two independent Smith forms.
    """

    matrix: IntMatrix
    det: int
    trace: int
    normalized: bool | None
    k0: FgAbelianGroup
    k1: FgAbelianGroup
    bowen_franks: FgAbelianGroup
    h1: FgAbelianGroup | None
    alexander: IntPolynomial | None
    irreducible: bool | None
    primitive: bool | None
    theorem1_check: bool | None

    def to_dict(self) -> dict:
        return {name: _to_json(getattr(self, name)) for name in _REPORT_FIELDS}

    @classmethod
    def from_dict(cls, d: dict) -> "InvariantReport":
        return cls(**{name: _from_json(d[name]) for name in _REPORT_FIELDS})


_REPORT_FIELDS = tuple(f.name for f in fields(InvariantReport))  # in declaration order


def _to_json(value):
    """JSON form of a value: a matrix as {"rows": ...}, a group as its free
    rank and invariant factors, a polynomial as its ascending coefficients;
    anything else (int, bool, None) as itself."""
    if isinstance(value, IntMatrix):
        return {"rows": value.to_lists()}
    if isinstance(value, FgAbelianGroup):
        return {"free_rank": value.free_rank, "invariant_factors": list(value.invariant_factors)}
    if isinstance(value, IntPolynomial):
        return list(value.coefficients)
    return value


def _from_json(value):
    """Inverse of _to_json, read off the JSON shape."""
    if isinstance(value, dict):
        if "rows" in value:
            return IntMatrix(value["rows"])
        return FgAbelianGroup(value["free_rank"], tuple(value["invariant_factors"]))
    if isinstance(value, list):
        return IntPolynomial(tuple(value))
    return value


def build_report(m: IntMatrix) -> tuple[InvariantReport, list[str]]:
    """Compute the full invariant report plus any warnings."""
    if not m.is_square:
        raise ValueError(f"invariants require a square matrix, got {m.shape}")
    warnings = []
    d = det(m)
    k0 = ck.k0(m)
    try:
        p = ck.period(m)
        irreducible, primitive = p is not None, p == 1
    except ck.NotNonnegative:
        irreducible = primitive = None
    t = trace(m)
    normalized = h_1 = alexander = thm1 = None
    if d in (1, -1):
        normalized = bundle._flips(t)
        # H1 = Z + coker(A - I), and A - I has K0's Smith diagonal (that of
        # I - A^t, up to transpose and sign), so Theorem 1 holds by construction
        h_1, thm1 = bundle._z_plus(k0), True
        alexander = bundle.alexander_polynomial(m)
    else:
        warnings.append(
            f"determinant {d} is not +/-1: bundle fields (h1, alexander, "
            "theorem1_check) are omitted"
        )
    if irreducible is None:
        warnings.append("matrix has negative entries: irreducible/primitive are omitted")
    return (
        InvariantReport(
            matrix=m,
            det=d,
            trace=t,
            normalized=normalized,
            k0=k0,
            k1=ck._k1_of(k0),
            # coker(I - A) and coker(I - A^t) share one Smith diagonal
            bowen_franks=k0,
            h1=h_1,
            alexander=alexander,
            irreducible=irreducible,
            primitive=primitive,
            theorem1_check=thm1,
        ),
        warnings,
    )


def _render_report_text(r: InvariantReport) -> str:
    lines = []
    for name in _REPORT_FIELDS:
        value = getattr(r, name)
        if value is None:
            value = "-"
        elif isinstance(value, IntMatrix):
            value = value.to_lists()
        lines.append(f"{name + ':':<16}{value}")
    return "\n".join(lines)


def _matrix_text(m: IntMatrix) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in m)


def _read_matrix(path: str) -> IntMatrix:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    m = parse_matrix(text)
    if m.rows > SIZE_WARNING_THRESHOLD:
        print(
            f"warning: {m.rows}x{m.cols} matrix; search subcommands may be slow",
            file=sys.stderr,
        )
    return m


def _read_pair(args) -> tuple[IntMatrix, IntMatrix]:
    """matrix_a and matrix_b; stdin holds one matrix, so at most one is -."""
    if args.matrix_a == args.matrix_b == "-":
        raise ValueError("only one of the two matrices can be read from stdin (-)")
    return _read_matrix(args.matrix_a), _read_matrix(args.matrix_b)


def _cmd_invariants(args) -> tuple[dict, str, int]:
    report, warnings = build_report(_read_matrix(args.input))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return report.to_dict(), _render_report_text(report), 0


def _cmd_compare(args) -> tuple[dict, str, int]:
    verdict = bundle.compare_bundles(*_read_pair(args), search_depth=args.depth)
    obj = {
        "verdict": verdict.outcome.value,
        "witness": verdict.witness,
        "certificate": _to_json(verdict.certificate),
    }
    text = f"verdict: {verdict.outcome.value}\nwitness: {verdict.witness}"
    return obj, text, {
        bundle.Outcome.HOMEOMORPHIC: 0,
        bundle.Outcome.DISTINCT: 1,
        bundle.Outcome.INCONCLUSIVE: 2,
    }[verdict.outcome]


def _cmd_snf(args) -> tuple[dict, str, int]:
    dec = smith_normal_form(_read_matrix(args.input))
    obj = {
        "u": dec.u.to_lists(),
        "d": dec.d.to_lists(),
        "v": dec.v.to_lists(),
        "diagonal": list(dec.diagonal()),
    }
    text = "\n".join(
        [
            f"diagonal: {list(dec.diagonal())}",
            "u:",
            _matrix_text(dec.u),
            "d:",
            _matrix_text(dec.d),
            "v:",
            _matrix_text(dec.v),
        ]
    )
    return obj, text, 0


def _cmd_dilate(args) -> tuple[dict, str, int]:
    dilated = ck.edge_dilation(_read_matrix(args.input))
    return _to_json(dilated), _matrix_text(dilated), 0


def _cmd_se_search(args) -> tuple[dict, str, int]:
    a, b = _read_pair(args)
    sft._check_se_search(a, b, args.max_lag, args.entry_bound)
    # a verified witness rules out an obstruction, so search only without one
    obstruction = sft.se_obstruction(a, b)
    witness = None
    if obstruction is None:
        witness = sft.search_se_witness(a, b, max_lag=args.max_lag, entry_bound=args.entry_bound)
    obj = {
        "witness": None
        if witness is None
        else {"r": witness.r.to_lists(), "s": witness.s.to_lists(), "lag": witness.lag},
        "obstruction": obstruction,
        "definitive": obstruction is not None,
    }
    if witness is not None:
        text = (
            f"witness found (lag {witness.lag})\nr:\n{_matrix_text(witness.r)}"
            f"\ns:\n{_matrix_text(witness.s)}"
        )
    elif obstruction is not None:
        text = f"not shift equivalent (definitive): {obstruction}"
    else:
        text = "no witness within bounds (not a proof of non-equivalence)"
    return obj, text, 0


def _cmd_conj_search(args) -> tuple[dict, str, int]:
    result = sft.conjugacy_search(*_read_pair(args), search_depth=args.depth)
    obj = {
        "status": result.status.value,
        "conjugator": _to_json(result.conjugator),
        "obstruction": result.obstruction,
    }
    if result.status is sft.ConjugacyStatus.CONJUGATE:
        text = f"conjugate via:\n{_matrix_text(result.conjugator)}"
    elif result.status is sft.ConjugacyStatus.NOT_CONJUGATE:
        text = f"not conjugate (definitive): {result.obstruction}"
    else:
        text = f"unknown at depth {args.depth}"
    return obj, text, 0


# Each subcommand: name, help, handler, and its arguments as (flag, type,
# default, help). Every subcommand also takes --format, added last.
_SUBCOMMANDS = (
    ("invariants", "full invariant report for one matrix", _cmd_invariants, (
        ("--input", None, "-", "matrix file, or - for stdin (default)"),
    )),
    ("compare", "compare two monodromy matrices", _cmd_compare, (
        ("matrix_a", None, None, "first matrix file, or -"),
        ("matrix_b", None, None, "second matrix file, or -"),
        ("--depth", int, 4, "conjugacy search depth (default 4)"),
    )),
    ("snf", "Smith normal form", _cmd_snf, (("--input", None, "-", None),)),
    ("dilate", "0/1 edge dilation of a nonnegative matrix", _cmd_dilate, (
        ("--input", None, "-", None),
    )),
    ("se-search", "bounded shift-equivalence witness search", _cmd_se_search, (
        ("matrix_a", None, None, None),
        ("matrix_b", None, None, None),
        ("--max-lag", int, 3, "largest lag to try (default 3)"),
        ("--entry-bound", int, 6, "entry bound (default 6)"),
    )),
    ("conj-search", "bounded GL_n(Z) conjugacy search", _cmd_conj_search, (
        ("matrix_a", None, None, None),
        ("matrix_b", None, None, None),
        ("--depth", int, 4, "word length bound (default 4)"),
    )),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckbundle",
        description="Exact invariants of integer matrices and torus-bundle monodromies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, type_, default, arg_help in arguments:
            p.add_argument(flag, type=type_, default=default, help=arg_help)
        p.add_argument(
            "--format",
            choices=["text", "json", "json-like"],
            default="text",
            help="output format (json-like is an alias for json)",
        )
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        obj, text, status = args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        print(text if args.format == "text" else json.dumps(obj, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (say, `| head -1`), which is no fault of the
        # input; stdout goes to devnull so the flush at exit cannot warn
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())

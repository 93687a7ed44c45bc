"""Command-line surface: matrix ingestion, invariant reports, comparison
verdicts and machine-readable output."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

from . import bundle, ck, sft
from .abelian import FgAbelianGroup
from .intmat import IntMatrix, IntPolynomial, det, smith_normal_form, trace

__all__ = ["ParseError", "InvariantReport", "parse_matrix", "build_report", "main"]

SIZE_WARNING_THRESHOLD = 12


class ParseError(ValueError):
    """Raised for malformed matrix input."""


def _digit_limit() -> int:
    """Longest decimal string int() converts (0: no limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_long(where: str, digits: int) -> ParseError:
    return ParseError(
        f"{where}: integer of {digits} digits exceeds the limit of {_digit_limit()} digits"
    )


class _LongInt:
    """A JSON integer too long to convert, kept as its digit count."""

    def __init__(self, digits: int):
        self.digits = digits


def _json_int(token: str) -> int | _LongInt:
    try:
        return int(token)
    except ValueError:
        return _LongInt(len(token.lstrip("-")))


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
        row = []
        for token in line.split():
            try:
                row.append(int(token, 10))
            except ValueError:
                digits = token.lstrip("+-").replace("_", "")
                if digits.isdecimal() and 0 < _digit_limit() < len(digits):
                    raise _too_long(f"line {lineno}", len(digits)) from None
                raise ParseError(
                    f"line {lineno}: token of {len(token)} characters is not an integer"
                ) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"line {lineno}: expected {width} entries, got {len(row)}")
        rows.append(row)
    if not rows:
        raise ParseError("empty input")
    return IntMatrix(rows)


def _parse_json_matrix(text: str) -> IntMatrix:
    try:
        obj = json.loads(text, parse_int=_json_int)
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
        for x in row:
            if isinstance(x, _LongInt):
                raise _too_long(f"row {i}", x.digits)
            if isinstance(x, bool) or not isinstance(x, int):
                raise ParseError(f"row {i}: {type(x).__name__} entry is not an integer")
    return IntMatrix(rows)


@dataclass(frozen=True)
class InvariantReport:
    """Everything the `invariants` subcommand reports for one matrix.

    Bundle fields (normalized, h1, alexander, theorem1_check) are None when
    the matrix is not unimodular; irreducible/primitive are None when the
    matrix has a negative entry.
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
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "InvariantReport":
        return cls(**{f.name: _from_json(d[f.name]) for f in fields(cls)})


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
    nonneg = m.is_nonnegative
    k0 = ck.k0(m)
    normalized = h_1 = alexander = thm1 = None
    if d in (1, -1):
        b = bundle.TorusBundle(monodromy=m, dimension=m.rows)
        normalized = bundle.normalize_monodromy(b).flipped
        h_1 = bundle.h1(b)
        alexander = bundle.alexander_polynomial(b)
        thm1 = bundle._theorem1_holds(h_1, k0)
    else:
        warnings.append(
            f"determinant {d} is not +/-1: bundle fields (h1, alexander, "
            "theorem1_check) are omitted"
        )
    if not nonneg:
        warnings.append("matrix has negative entries: irreducible/primitive are omitted")
    return (
        InvariantReport(
            matrix=m,
            det=d,
            trace=trace(m),
            normalized=normalized,
            k0=k0,
            k1=FgAbelianGroup.free(k0.free_rank),
            # coker(I - A) and coker(I - A^t) share one Smith diagonal
            bowen_franks=k0,
            h1=h_1,
            alexander=alexander,
            irreducible=ck.is_irreducible(m) if nonneg else None,
            primitive=ck.is_primitive(m) if nonneg else None,
            theorem1_check=thm1,
        ),
        warnings,
    )


def _render_report_text(r: InvariantReport) -> str:
    lines = []
    for f in fields(r):
        value = getattr(r, f.name)
        if value is None:
            value = "-"
        elif isinstance(value, IntMatrix):
            value = value.to_lists()
        lines.append(f"{f.name + ':':<16}{value}")
    return "\n".join(lines)


def _matrix_text(m: IntMatrix) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in m)


def _emit(obj: dict, text: str, fmt: str) -> None:
    if fmt == "text":
        print(text)
    else:
        print(json.dumps(obj, indent=2))


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


def _cmd_invariants(args) -> int:
    report, warnings = build_report(_read_matrix(args.input))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit(report.to_dict(), _render_report_text(report), args.format)
    return 0


def _cmd_compare(args) -> int:
    a = _read_matrix(args.matrix_a)
    b = _read_matrix(args.matrix_b)
    verdict = bundle.compare_bundles(
        bundle.make_bundle(a), bundle.make_bundle(b), search_depth=args.depth
    )
    obj = {
        "verdict": verdict.outcome.value,
        "witness": verdict.witness,
        "certificate": _to_json(verdict.certificate),
    }
    text = f"verdict: {verdict.outcome.value}\nwitness: {verdict.witness}"
    _emit(obj, text, args.format)
    return {
        bundle.Outcome.HOMEOMORPHIC: 0,
        bundle.Outcome.DISTINCT: 1,
        bundle.Outcome.INCONCLUSIVE: 2,
    }[verdict.outcome]


def _cmd_snf(args) -> int:
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
    _emit(obj, text, args.format)
    return 0


def _cmd_dilate(args) -> int:
    dilated = ck.edge_dilation(_read_matrix(args.input))
    _emit(_to_json(dilated), _matrix_text(dilated), args.format)
    return 0


def _cmd_se_search(args) -> int:
    a = _read_matrix(args.matrix_a)
    b = _read_matrix(args.matrix_b)
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
    _emit(obj, text, args.format)
    return 0


def _cmd_conj_search(args) -> int:
    a = _read_matrix(args.matrix_a)
    b = _read_matrix(args.matrix_b)
    result = sft.conjugacy_search(a, b, search_depth=args.depth)
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
    _emit(obj, text, args.format)
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["text", "json", "json-like"],
        default="text",
        help="output format (json-like is an alias for json)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckbundle",
        description="Exact invariants of integer matrices and torus-bundle monodromies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="full invariant report for one matrix")
    p.add_argument("--input", default="-", help="matrix file, or - for stdin (default)")
    _add_format(p)
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("compare", help="compare two monodromy matrices")
    p.add_argument("matrix_a", help="first matrix file, or -")
    p.add_argument("matrix_b", help="second matrix file, or -")
    p.add_argument("--depth", type=int, default=4, help="conjugacy search depth (default 4)")
    _add_format(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("snf", help="Smith normal form")
    p.add_argument("--input", default="-")
    _add_format(p)
    p.set_defaults(handler=_cmd_snf)

    p = sub.add_parser("dilate", help="0/1 edge dilation of a nonnegative matrix")
    p.add_argument("--input", default="-")
    _add_format(p)
    p.set_defaults(handler=_cmd_dilate)

    p = sub.add_parser("se-search", help="bounded shift-equivalence witness search")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--max-lag", type=int, default=3, help="largest lag to try (default 3)")
    p.add_argument("--entry-bound", type=int, default=6, help="entry bound (default 6)")
    _add_format(p)
    p.set_defaults(handler=_cmd_se_search)

    p = sub.add_parser("conj-search", help="bounded GL_n(Z) conjugacy search")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--depth", type=int, default=4, help="word length bound (default 4)")
    _add_format(p)
    p.set_defaults(handler=_cmd_conj_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.format == "json-like":
        args.format = "json"
    try:
        return args.handler(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

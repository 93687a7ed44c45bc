import errno
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ckbundle
from ckbundle import IntMatrix, bundle, compare_bundles, det, make_bundle, trace
from ckbundle.cli import InvariantReport, ParseError, build_report, main, parse_matrix

from conftest import A2, A3, cli_in_subprocess, conjugate, random_unimodular

A2_TEXT = "5 2\n2 1\n"
A3_TEXT = "5 1\n4 1\n"


def test_parse_plain_text():
    assert parse_matrix(A2_TEXT) == A2
    assert parse_matrix("  5   2 \n\n2 1\n") == A2
    assert parse_matrix("-3") == IntMatrix([[-3]])


def test_parse_json_form():
    assert parse_matrix('{"rows": [[1, 2], [0, 1]]}') == IntMatrix([[1, 2], [0, 1]])


def test_parse_drops_one_byte_order_mark():
    # an editor that saves UTF-8 with a BOM puts U+FEFF before the first row
    assert parse_matrix("\ufeff" + A2_TEXT) == A2
    assert parse_matrix('\ufeff{"rows": [[5, 2], [2, 1]]}') == A2
    with pytest.raises(ParseError, match="^line 1: token of 2 characters is not an integer$"):
        parse_matrix("\ufeff\ufeff" + A2_TEXT)


def test_cli_reads_a_byte_order_marked_file(tmp_path, capsys):
    expected = []
    for name, text in [("a2.txt", A2_TEXT), ("a2.json", '{"rows": [[5, 2], [2, 1]]}')]:
        plain = _write(tmp_path, name, text)
        marked = tmp_path / f"bom-{name}"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(["invariants", "--input", plain]) == 0
        expected.append(capsys.readouterr())
        assert main(["invariants", "--input", str(marked)]) == 0
        assert capsys.readouterr() == expected[-1]
    assert expected[0] == expected[1] and expected[0].err == ""


def test_parse_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix("1 2\n3\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix("1 2\n3 x\n")
    with pytest.raises(ParseError, match="empty"):
        parse_matrix("   \n  \n")
    with pytest.raises(ParseError):
        parse_matrix('{"rows": [[1, 2], [3, 4.5]]}')
    with pytest.raises(ParseError):
        parse_matrix('{"cols": [[1]]}')
    with pytest.raises(ParseError):
        parse_matrix('{"rows": [[1, 2], [3]]}')


def test_report_values():
    report, warnings = build_report(A2)
    assert not warnings
    assert report.det == 1 and report.trace == 6
    assert str(report.alexander) == "t^2 - 6t + 1"
    assert report.theorem1_check is True
    assert report.normalized is False
    assert report.irreducible is True and report.primitive is True
    d = report.to_dict()
    assert d["k0"] == {"free_rank": 0, "invariant_factors": [2, 2]}
    assert d["h1"] == {"free_rank": 1, "invariant_factors": [2, 2]}
    assert d["alexander"] == [1, -6, 1]


def test_report_round_trip():
    for m in (A2, IntMatrix([[2, 0], [0, 1]]), IntMatrix([[1, -3], [0, -1]])):
        report, _ = build_report(m)
        recovered = InvariantReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert recovered == report


def test_report_identity_matrix():
    from ckbundle import format_group

    report, warnings = build_report(IntMatrix.identity(2))
    assert not warnings
    assert format_group(report.k0) == "Z^2"
    assert format_group(report.h1) == "Z^3"
    assert report.theorem1_check is True


def test_report_non_unimodular_gate():
    report, warnings = build_report(IntMatrix([[2, 0], [0, 1]]))
    assert warnings and "determinant" in warnings[0]
    assert report.h1 is None and report.alexander is None
    assert report.theorem1_check is None and report.normalized is None
    assert report.k0 is not None and report.bowen_franks is not None


def test_report_negative_entries_gate():
    report, warnings = build_report(IntMatrix([[1, -3], [0, -1]]))
    assert any("negative" in w for w in warnings)
    assert report.irreducible is None and report.primitive is None
    assert report.h1 is not None  # |det| = 1, so bundle fields are present


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_invariants_text(tmp_path, capsys):
    code = main(["invariants", "--input", _write(tmp_path, "a2.txt", A2_TEXT)])
    out = capsys.readouterr().out
    assert code == 0
    assert "k0:             Z_2 + Z_2" in out
    assert "alexander:      t^2 - 6t + 1" in out


def test_cli_invariants_json_round_trip(tmp_path, capsys):
    code = main(
        ["invariants", "--input", _write(tmp_path, "a2.txt", A2_TEXT), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    report, _ = build_report(A2)
    assert InvariantReport.from_dict(payload) == report


def test_cli_invariants_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"rows": [[1, 2], [0, 1]]}'))
    code = main(["invariants"])
    out = capsys.readouterr().out
    assert code == 0
    assert "k0:             Z + Z_2" in out


def test_cli_invariants_warns_but_succeeds(tmp_path, capsys):
    code = main(["invariants", "--input", _write(tmp_path, "m.txt", "2 0\n0 1\n")])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert "h1:             -" in captured.out


def test_cli_compare_distinct_exit_code(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", A2_TEXT)
    b = _write(tmp_path, "b.txt", A3_TEXT)
    code = main(["compare", a, b])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: Distinct" in out
    assert "K0: Z_2 + Z_2 vs Z_4" in out


def test_cli_compare_homeomorphic_exit_code(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", A2_TEXT)
    code = main(["compare", a, a, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "Homeomorphic"
    assert payload["certificate"] == {"rows": [[1, 0], [0, 1]]}


def test_cli_compare_inconclusive_exit_code(tmp_path, capsys):
    # conjugate pair, but a depth-0 search cannot certify it
    a = _write(tmp_path, "a.txt", "11 2\n5 1\n")
    b = _write(tmp_path, "b.txt", "26 -73\n5 -14\n")
    code = main(["compare", a, b, "--depth", "0"])
    assert code == 2
    assert "verdict: Inconclusive" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["compare", "conj-search"])
def test_cli_search_over_the_word_budget_exits_3(tmp_path, capsys, monkeypatch, command):
    from ckbundle import sft

    monkeypatch.setattr(sft, "_balls", {})
    monkeypatch.setattr(sft, "MAX_SEARCH_ENTRIES", 4000)  # 100 2x2 words, 3^2 + 31 each
    # conjugate by a 30-letter word and by no word of length <= 8
    a = _write(tmp_path, "a.txt", "11 2\n5 1\n")
    b = _write(tmp_path, "b.txt", "-2864 -3913\n2105 2876\n")
    assert main([command, a, b, "--depth", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: word search would walk more than the limit 100 words (2x2, length <= 4);"
        " lower the search depth\n"
    )


def test_cli_compare_of_large_matrices_stops_at_the_entry_budget(tmp_path):
    # a 20x20 pair with equal det, traces and K0 reaches the word walk; the
    # budget counts entries, so the walk stops after 18,561 words (about
    # 139 MB peak), well below what 200,000 such words would hold (about
    # 1.3 GB)
    rng = random.Random(20)
    a = random_unimodular(20, 30, rng)
    b = conjugate(a, random_unimodular(20, 40, rng))
    for name, m in (("a.txt", a), ("b.txt", b)):
        (tmp_path / name).write_text("".join(" ".join(map(str, row)) + "\n" for row in m))
    # a parent process of its own, so that its children's peak is this run's
    script = (
        "import resource, subprocess, sys; "
        "code = subprocess.run(sys.argv[1:]).returncode; "
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ckbundle.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", script, sys.executable, "-m", "ckbundle.cli", "compare", "a.txt", "b.txt"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=60,
    )
    code, peak_kb = map(int, done.stdout.split())
    assert code == 3
    assert done.stderr.endswith(
        "error: word search would walk more than the limit 18561 words (20x20, length <= 2);"
        " lower the search depth\n"
    )
    assert peak_kb < 200 * 1024


def test_cli_compare_validation_failure(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", A2_TEXT)
    bad = _write(tmp_path, "bad.txt", "2 0\n0 1\n")
    code = main(["compare", a, bad])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_cli_snf(tmp_path, capsys):
    code = main(
        ["snf", "--input", _write(tmp_path, "m.txt", "6 0\n0 4\n"), "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["diagonal"] == [2, 12]
    u = IntMatrix(payload["u"])
    v = IntMatrix(payload["v"])
    assert (u @ IntMatrix([[6, 0], [0, 4]]) @ v).to_lists() == payload["d"]


def test_cli_dilate(tmp_path, capsys):
    code = main(["dilate", "--input", _write(tmp_path, "m.txt", "2\n")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1 1\n1 1"


def test_cli_dilate_over_the_arc_limit_exits_3(tmp_path):
    # 100000 arcs would be a 10^10-entry matrix: refused before it is built
    done = cli_in_subprocess(tmp_path, "100000\n", "dilate", "--input", "m.txt")
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "error: edge dilation would build E = 100000 arcs (the entry sum), more than the"
        " limit 1024\n"
    )


def test_cli_se_search(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", A2_TEXT)
    b = _write(tmp_path, "b.txt", A3_TEXT)
    code = main(["se-search", a, b, "--max-lag", "3", "--entry-bound", "6", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["witness"] is None
    assert payload["definitive"] is True
    assert "Bowen-Franks" in payload["obstruction"]


def test_cli_conj_search(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", A2_TEXT)
    b = _write(tmp_path, "b.txt", A3_TEXT)
    code = main(["conj-search", a, b, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["status"] == "not_conjugate"
    assert "K0" in payload["obstruction"]


def test_cli_text_and_json_agree(tmp_path, capsys):
    from ckbundle import format_group

    path = _write(tmp_path, "a2.txt", A2_TEXT)
    main(["invariants", "--input", path, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    main(["invariants", "--input", path])
    text = capsys.readouterr().out
    report = InvariantReport.from_dict(payload)
    assert f"k0:             {format_group(report.k0)}" in text
    assert f"h1:             {format_group(report.h1)}" in text
    assert f"alexander:      {report.alexander}" in text
    assert f"det:            {report.det}" in text


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--input", "a"],
        ["compare", "a", "b"],
        ["snf", "--input", "a"],
        ["dilate", "--input", "a"],
        ["se-search", "a", "b"],
        ["conj-search", "a", "b"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_json_like_alias(tmp_path, capsys, argv):
    paths = {"a": _write(tmp_path, "a.txt", A2_TEXT), "b": _write(tmp_path, "b.txt", A3_TEXT)}
    argv = [paths.get(x, x) for x in argv]
    runs = []
    for fmt in ("json", "json-like"):
        runs.append((main([*argv, "--format", fmt]), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == (1 if argv[0] == "compare" else 0)  # A2 and A3 are Distinct
    json.loads(runs[0][1])


def test_cli_closed_pipe_is_silent(tmp_path):
    # a reader that left early (`| head -1`) is no fault of the input: no
    # diagnostic, and the subcommand's own exit status (1: A2 and A3 are
    # Distinct)
    env = dict(os.environ, PYTHONPATH=str(Path(ckbundle.__file__).parent.parent))
    _write(tmp_path, "b.txt", A3_TEXT)
    for argv, status in (
        (["invariants"], 0),
        (["snf", "--format", "json"], 0),
        (["compare", "-", "b.txt"], 1),
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ckbundle.cli", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=tmp_path,
        )
        proc.stdout.close()
        _, err = proc.communicate(A2_TEXT.encode(), timeout=30)
        assert (proc.returncode, err) == (status, b"")


class _FullStdout(io.StringIO):
    """A stdout on a full disk: write, or only flush, raises ENOSPC."""

    def __init__(self, failing: str):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_cli_write_error_exits_3(tmp_path, capsys, monkeypatch, failing):
    # unlike a closed pipe, a stdout that cannot take the output is an
    # error: one diagnostic line and exit 3
    path = _write(tmp_path, "a2.txt", A2_TEXT)
    monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
    assert main(["invariants", "--input", path]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: [Errno {errno.ENOSPC}] No space left on device"]


FORMAT_HELP = ["--format {text,json,json-like}", "output format (json-like is an alias for json)"]
HELP_SCREENS = {
    "": [
        "Exact invariants of integer matrices and torus-bundle monodromies.",
        "{invariants,compare,snf,dilate,se-search,conj-search}",
        "invariants", "full invariant report for one matrix",
        "compare", "compare two monodromy matrices",
        "snf", "Smith normal form",
        "dilate", "0/1 edge dilation of a nonnegative matrix",
        "se-search", "bounded shift-equivalence witness search",
        "conj-search", "bounded GL_n(Z) conjugacy search",
    ],
    "invariants": ["--input INPUT", "matrix file, or - for stdin (default)", *FORMAT_HELP],
    "compare": [
        "matrix_a", "first matrix file, or -",
        "matrix_b", "second matrix file, or -",
        "--depth DEPTH", "conjugacy search depth (default 4)",
        *FORMAT_HELP,
    ],
    "snf": ["--input INPUT", *FORMAT_HELP],
    "dilate": ["--input INPUT", *FORMAT_HELP],
    "se-search": [
        "matrix_a", "matrix_b",
        "--max-lag MAX_LAG", "largest lag to try (default 3)",
        "--entry-bound ENTRY_BOUND", "entry bound (default 6)",
        *FORMAT_HELP,
    ],
    "conj-search": [
        "matrix_a", "matrix_b", "--depth DEPTH", "word length bound (default 4)", *FORMAT_HELP
    ],
}


@pytest.mark.parametrize("command", HELP_SCREENS, ids=lambda c: c or "ckbundle")
def test_cli_help_lists_arguments_in_order(capsys, monkeypatch, command):
    # ordered substrings, not the whole screen: argparse layout varies across
    # Python versions. The usage line repeats the options, so the search
    # starts below it.
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_info:
        main([*command.split(), "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: ckbundle", *command.split(), "[-h]"]))
    at = out.index("\n\n")
    for text in HELP_SCREENS[command]:
        at = out.index(text, at) + len(text)


def test_readme_subcommand_table_matches_parser():
    import argparse
    import re
    from pathlib import Path

    from ckbundle.cli import _build_parser

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme[readme.index("Subcommands:") :].split("\n\n")[1]
    named = re.findall(r"^\| `([a-z-]+)`", table, flags=re.M)
    (action,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert named == list(action.choices)


def test_cli_parse_error_reaches_user(tmp_path, capsys):
    code = main(["invariants", "--input", _write(tmp_path, "bad.txt", "1 2\n3\n")])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


def test_cli_large_matrix_warning(tmp_path, capsys):
    n = 13
    rows = "\n".join(" ".join("1" if i == j else "0" for j in range(n)) for i in range(n))
    code = main(["invariants", "--input", _write(tmp_path, "big.txt", rows)])
    captured = capsys.readouterr()
    assert code == 0
    assert "may be slow" in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["compare", "a", "a", "--depth", "-1"], "search depth"),
        (["conj-search", "a", "a", "--depth", "-1"], "search depth"),
        (["se-search", "a", "b", "--max-lag", "0"], "max_lag"),
        (["se-search", "a", "b", "--entry-bound", "-1"], "entry_bound"),
    ],
)
def test_cli_rejects_negative_search_bounds(tmp_path, capsys, argv, flag):
    # b is obstructed against a, so se-search must check its bounds before
    # the obstruction short-cuts the search
    paths = {"a": _write(tmp_path, "a.txt", A2_TEXT), "b": _write(tmp_path, "b.txt", A3_TEXT)}
    code = main([paths.get(x, x) for x in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit")


@needs_digit_limit
def test_parse_oversized_integer_text_and_json():
    limit = DIGIT_LIMIT
    token = "1" * (limit + 700)
    messages = set()
    for text, where in ((f"1 2\n3 {token}\n", "line 2"), (f'{{"rows": [[1, -{token}]]}}', "row 1")):
        with pytest.raises(ParseError) as info:
            parse_matrix(text)
        message = str(info.value)
        assert message.startswith(f"{where}: ")
        assert f"{limit + 700} digits" in message and f"limit of {limit}" in message
        assert "1111111111" not in message
        messages.add(message.removeprefix(f"{where}: "))
    # text and JSON integers go through one reader, so one message
    assert len(messages) == 1
    assert parse_matrix("1" * limit) == IntMatrix([[int("1" * limit)]])


@needs_digit_limit
def test_cli_oversized_integer_exits_3(tmp_path, capsys):
    digits = DIGIT_LIMIT + 700
    code = main(["invariants", "--input", _write(tmp_path, "m.txt", "9" * digits)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: line 1: integer of {digits} digits") and len(err) < 200


@pytest.mark.parametrize("token", ["1_0", "\uff11", "\u0663"])
def test_text_integers_follow_json_grammar(capsys, monkeypatch, token):
    # an underscore, a full-width 1 and an Arabic-Indic 3: int() reads all
    # three and JSON none, and text takes what JSON takes, with a sign
    message = f"line 2: token of {len(token)} characters is not an integer"
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_matrix(f"1 2\n3 {token}\n")
    with pytest.raises(ParseError, match="^invalid JSON: "):
        parse_matrix(f'{{"rows": [[{token}]]}}')
    monkeypatch.setattr("sys.stdin", io.StringIO(f"1 2\n3 {token}\n"))
    assert main(["invariants"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert parse_matrix("+1 -0\n007 -12") == IntMatrix([[1, 0], [7, -12]])


class _UnreadableStdin:
    def read(self, *args):
        raise AssertionError("stdin was read")


@pytest.mark.parametrize("command", ["compare", "se-search", "conj-search"])
def test_cli_pair_reads_stdin_once(tmp_path, capsys, monkeypatch, command):
    # stdin holds one matrix: two - are refused before either is read, and
    # one - with a file still works
    monkeypatch.setattr("sys.stdin", _UnreadableStdin())
    assert main([command, "-", "-"]) == 3
    assert capsys.readouterr() == (
        "",
        "error: only one of the two matrices can be read from stdin (-)\n",
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(A2_TEXT))
    code = main([command, "-", _write(tmp_path, "b.txt", A3_TEXT)])
    assert (code, capsys.readouterr().err) == (1 if command == "compare" else 0, "")


def test_cli_se_search_skips_search_when_obstructed(tmp_path, capsys, monkeypatch):
    from ckbundle import sft

    def fail(*args, **kwargs):
        raise AssertionError("search_se_witness called on an obstructed pair")

    monkeypatch.setattr(sft, "search_se_witness", fail)
    a = _write(tmp_path, "a.txt", A2_TEXT)
    b = _write(tmp_path, "b.txt", A3_TEXT)
    assert main(["se-search", a, b]) == 0
    assert capsys.readouterr().out == (
        "not shift equivalent (definitive): Bowen-Franks groups differ: Z_2 + Z_2 vs Z_4\n"
    )


def _intmat_calls(monkeypatch, names):
    """The name of every call to the intmat functions names, in call order,
    counted wherever the function is bound."""
    from ckbundle import intmat

    log = []
    for name in names:
        original = getattr(intmat, name)

        def counting(a, original=original, name=name):
            log.append(name)
            return original(a)

        for module in vars(ckbundle).values():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return log


@pytest.fixture
def smith_calls(monkeypatch):
    """The entry point, smith_normal_form or smith_diagonal, of every Smith
    factorization in call order."""
    return _intmat_calls(monkeypatch, ("smith_normal_form", "smith_diagonal"))


# the inverse of the companion of t^3 - 3t^2 - 2t - 1: det 1, trace -2
M_INV = IntMatrix([[-2, 1, 0], [-3, 0, 1], [1, 0, 0]])


@pytest.mark.parametrize(
    "m, calls",
    [
        (A2, 1),
        (IntMatrix([[2, 1], [1, 3]]), 1),
        (M_INV, 1),
        (IntMatrix([[-2, 1], [1, 0]]), 1),  # det -1, trace -2
        (-IntMatrix.identity(3), 1),
    ],
)
def test_build_report_smith_calls(smith_calls, m, calls):
    # a report reads only diagonals, so it asks for no transforms
    report, _ = build_report(m)
    assert smith_calls == ["smith_diagonal"] * calls
    assert report.bowen_franks == report.k0


@pytest.mark.parametrize(
    "a, b, calls",
    [
        # neither side flipped: K0 once per side; H1 and the conjugacy
        # obstruction read the same diagonal
        (A2, A2, 2),
        (A2, A3, 2),
        # both flipped: K0 of -A, then K0 of A for H1 and the obstruction
        (-A2, -A2, 4),
        (-A2, -A3, 2),
        # one flipped: H1 only; then the H1 rung or the trace sequences differ
        (M_INV, IntMatrix([[0, 0, 1], [1, 0, 2], [0, 1, 3]]), 2),
        (-IntMatrix.identity(2), IntMatrix.identity(2), 2),
    ],
)
def test_compare_bundles_smith_calls(smith_calls, a, b, calls):
    a, b = make_bundle(a), make_bundle(b)
    # a second call factors again: no cache outlives a call
    for _ in range(2):
        smith_calls.clear()
        compare_bundles(a, b)
        assert len(smith_calls) == calls


def test_each_determinant_is_taken_once_per_call(monkeypatch):
    # compare_bundles checks both monodromies, walks its det rung and
    # searches (the conjugacy search checks unimodularity and walks its own
    # det rung) on one determinant per side; a second call computes it again
    from ckbundle import conjugacy_obstruction, conjugacy_search

    det_calls = _intmat_calls(monkeypatch, ("det",))
    b = IntMatrix([[7, -4], [2, -1]])
    for call in (compare_bundles, conjugacy_search, conjugacy_obstruction) * 2:
        det_calls.clear()
        call(A2, b)
        assert len(det_calls) == 2


def _equality_corpus():
    """Unimodular matrices: random words for n = 1..12, +/-I, det -1
    matrices and negative-trace matrices, all seeded."""
    rng = random.Random(57)
    corpus = []
    for n in range(1, 13):
        ident = IntMatrix.identity(n)
        flip = IntMatrix([[-1 if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])
        corpus += [ident, -ident, flip]
        for _ in range(6):
            a = random_unimodular(n, rng.randint(0, 3 * n), rng)
            corpus += [a, -a, a @ flip]
    return corpus


def test_report_h1_equals_independent_h1():
    corpus = _equality_corpus()
    assert sum(det(m) == -1 for m in corpus) > 50
    assert sum(trace(m) < 0 for m in corpus) > 50
    for m in corpus:
        report, _ = build_report(m)
        b = make_bundle(m)
        assert report.h1 == bundle.h1(b), m
        assert report.normalized is bundle.normalize_monodromy(m).flipped, m
        assert report.theorem1_check is True
        assert bundle.theorem1_check(b), m


def test_deeply_nested_json_is_a_parse_error(capsys, monkeypatch):
    depth = 200_000
    text = '{"rows": ' + "[" * depth + "]" * depth + "}"
    with pytest.raises(ParseError, match="^invalid JSON: "):
        parse_matrix(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["invariants"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON: ") and len(captured.err) < 200


def test_json_non_integer_entry_is_named_not_echoed(capsys, monkeypatch):
    text = '{"rows": [[1], [[' + ", ".join(["1"] * 100_000) + "]]]}"
    with pytest.raises(ParseError, match="^row 2: list entry is not an integer$"):
        parse_matrix(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["invariants"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: row 2: list entry is not an integer\n"
    for entry, kind in (
        ("1.5", "float"),
        ('"x"', "str"),
        ('"5"', "str"),
        ("true", "bool"),
        ("null", "NoneType"),
    ):
        with pytest.raises(ParseError, match=f"^row 1: {kind} entry is not an integer$"):
            parse_matrix('{"rows": [[' + entry + "]]}")


def test_text_non_integer_token_is_measured_not_echoed(capsys, monkeypatch):
    text = "1 " + "x" * 300_000
    with pytest.raises(ParseError, match="^line 1: token of 300000 characters is not an integer$"):
        parse_matrix(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["invariants"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: token of 300000 characters is not an integer\n"
    assert len(captured.err) < 200

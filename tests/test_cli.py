import json
import sys

import pytest

from ckbundle import IntMatrix
from ckbundle.cli import InvariantReport, ParseError, build_report, main, parse_matrix

from conftest import A2

A2_TEXT = "5 2\n2 1\n"
A3_TEXT = "5 1\n4 1\n"


def test_parse_plain_text():
    assert parse_matrix(A2_TEXT) == A2
    assert parse_matrix("  5   2 \n\n2 1\n") == A2
    assert parse_matrix("-3") == IntMatrix([[-3]])


def test_parse_json_form():
    assert parse_matrix('{"rows": [[1, 2], [0, 1]]}') == IntMatrix([[1, 2], [0, 1]])


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
    import io

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


def test_cli_json_like_alias(tmp_path, capsys):
    code = main(
        ["invariants", "--input", _write(tmp_path, "a2.txt", A2_TEXT), "--format", "json-like"]
    )
    assert code == 0
    json.loads(capsys.readouterr().out)


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
    for text, where in ((f"1 2\n3 {token}\n", "line 2"), (f'{{"rows": [[1, -{token}]]}}', "row 1")):
        with pytest.raises(ParseError) as info:
            parse_matrix(text)
        message = str(info.value)
        assert message.startswith(f"{where}: ")
        assert f"{limit + 700} digits" in message and f"limit of {limit}" in message
        assert "1111111111" not in message
    assert parse_matrix("1" * limit) == IntMatrix([[int("1" * limit)]])


@needs_digit_limit
def test_cli_oversized_integer_exits_3(tmp_path, capsys):
    digits = DIGIT_LIMIT + 700
    code = main(["invariants", "--input", _write(tmp_path, "m.txt", "9" * digits)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: line 1: integer of {digits} digits") and len(err) < 200


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


@pytest.mark.parametrize("m, calls", [(A2, 2), (IntMatrix([[2, 1], [1, 3]]), 1)])
def test_build_report_smith_calls(monkeypatch, m, calls):
    # Smith factorizations through either entry point, counted wherever it
    # is bound; a report reads only diagonals, so it asks for no transforms
    import ckbundle
    from ckbundle import intmat

    seen = {"smith_normal_form": [], "smith_diagonal": []}
    for name, log in seen.items():
        original = getattr(intmat, name)

        def counting(a, original=original, log=log):
            log.append(a)
            return original(a)

        for module in vars(ckbundle).values():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    report, _ = build_report(m)
    assert len(seen["smith_normal_form"]) + len(seen["smith_diagonal"]) == calls
    assert seen["smith_normal_form"] == []
    assert report.bowen_franks == report.k0


def test_deeply_nested_json_is_a_parse_error(capsys, monkeypatch):
    import io

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
    import io

    text = '{"rows": [[1], [[' + ", ".join(["1"] * 100_000) + "]]]}"
    with pytest.raises(ParseError, match="^row 2: list entry is not an integer$"):
        parse_matrix(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["invariants"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: row 2: list entry is not an integer\n"
    for entry, kind in (("1.5", "float"), ('"x"', "str"), ("true", "bool"), ("null", "NoneType")):
        with pytest.raises(ParseError, match=f"^row 1: {kind} entry is not an integer$"):
            parse_matrix('{"rows": [[' + entry + "]]}")


def test_text_non_integer_token_is_measured_not_echoed(capsys, monkeypatch):
    import io

    text = "1 " + "x" * 300_000
    with pytest.raises(ParseError, match="^line 1: token of 300000 characters is not an integer$"):
        parse_matrix(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["invariants"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: token of 300000 characters is not an integer\n"
    assert len(captured.err) < 200

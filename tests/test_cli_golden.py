"""Byte-exact CLI output: the full text report, the JSON key order, the
absent-field lines, and the JSON shape of every matrix-valued output."""

import json

import pytest

from ckbundle.cli import main

A2_TEXT = "5 2\n2 1\n"

A2_REPORT_TEXT = """\
matrix:         [[5, 2], [2, 1]]
det:            1
trace:          6
normalized:     False
k0:             Z_2 + Z_2
k1:             0
bowen_franks:   Z_2 + Z_2
h1:             Z + Z_2 + Z_2
alexander:      t^2 - 6t + 1
irreducible:    True
primitive:      True
theorem1_check: True
"""


@pytest.fixture
def run(tmp_path, capsys):
    """Run the CLI with each matrix argument given as its text, written to a
    file; return (exit code, stdout, stderr)."""

    def run(*argv, **matrices):
        paths = {}
        for name, text in matrices.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        code = main([str(paths.get(x, x)) for x in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def test_readme_invariants_block(run):
    assert run("invariants", "--input", "a", a=A2_TEXT) == (0, A2_REPORT_TEXT, "")


def test_report_json_bytes_and_key_order(run):
    code, out, err = run("invariants", "--input", "a", "--format", "json", a=A2_TEXT)
    assert (code, err) == (0, "")
    group = {"free_rank": 0, "invariant_factors": [2, 2]}
    assert out == _json(
        {
            "matrix": {"rows": [[5, 2], [2, 1]]},
            "det": 1,
            "trace": 6,
            "normalized": False,
            "k0": group,
            "k1": {"free_rank": 0, "invariant_factors": []},
            "bowen_franks": group,
            "h1": {"free_rank": 1, "invariant_factors": [2, 2]},
            "alexander": [1, -6, 1],
            "irreducible": True,
            "primitive": True,
            "theorem1_check": True,
        }
    )
    assert list(json.loads(out)) == (
        "matrix det trace normalized k0 k1 bowen_franks h1 alexander irreducible primitive "
        "theorem1_check"
    ).split()


def test_non_unimodular_report_dashes(run):
    assert run("invariants", "--input", "a", a="2 0\n0 1\n") == (
        0,
        "matrix:         [[2, 0], [0, 1]]\n"
        "det:            2\n"
        "trace:          3\n"
        "normalized:     -\n"
        "k0:             Z\n"
        "k1:             Z\n"
        "bowen_franks:   Z\n"
        "h1:             -\n"
        "alexander:      -\n"
        "irreducible:    False\n"
        "primitive:      False\n"
        "theorem1_check: -\n",
        "warning: determinant 2 is not +/-1: bundle fields (h1, alexander, "
        "theorem1_check) are omitted\n",
    )


def test_negative_entries_report_dashes_and_nulls(run):
    warning = "warning: matrix has negative entries: irreducible/primitive are omitted\n"
    assert run("invariants", "--input", "a", a="1 -3\n0 -1\n") == (
        0,
        "matrix:         [[1, -3], [0, -1]]\n"
        "det:            -1\n"
        "trace:          0\n"
        "normalized:     False\n"
        "k0:             Z\n"
        "k1:             Z\n"
        "bowen_franks:   Z\n"
        "h1:             Z^2\n"
        "alexander:      t^2 - 1\n"
        "irreducible:    -\n"
        "primitive:      -\n"
        "theorem1_check: True\n",
        warning,
    )
    code, out, err = run("invariants", "--input", "a", "--format", "json", a="1 -3\n0 -1\n")
    assert (code, err) == (0, warning)
    payload = json.loads(out)
    assert payload["irreducible"] is None and payload["primitive"] is None
    assert payload["alexander"] == [-1, 0, 1]
    assert '"irreducible": null,\n  "primitive": null,' in out


NEGATIVE_WARNING = "warning: matrix has negative entries: irreducible/primitive are omitted\n"

# -I and the inverse of the companion of t^3 - 3t^2 - 2t - 1: both
# sign-flipped, where K0 of the normalized matrix differs from the report's
SIGN_FLIP_REPORTS = [
    (
        "-1 0\n0 -1\n",
        """\
matrix:         [[-1, 0], [0, -1]]
det:            1
trace:          -2
normalized:     True
k0:             Z_2 + Z_2
k1:             0
bowen_franks:   Z_2 + Z_2
h1:             Z + Z_2 + Z_2
alexander:      t^2 + 2t + 1
irreducible:    -
primitive:      -
theorem1_check: True
""",
        {
            "matrix": {"rows": [[-1, 0], [0, -1]]},
            "det": 1,
            "trace": -2,
            "normalized": True,
            "k0": {"free_rank": 0, "invariant_factors": [2, 2]},
            "k1": {"free_rank": 0, "invariant_factors": []},
            "bowen_franks": {"free_rank": 0, "invariant_factors": [2, 2]},
            "h1": {"free_rank": 1, "invariant_factors": [2, 2]},
            "alexander": [1, 2, 1],
            "irreducible": None,
            "primitive": None,
            "theorem1_check": True,
        },
    ),
    (
        "-2 1 0\n-3 0 1\n1 0 0\n",
        """\
matrix:         [[-2, 1, 0], [-3, 0, 1], [1, 0, 0]]
det:            1
trace:          -2
normalized:     True
k0:             Z_5
k1:             0
bowen_franks:   Z_5
h1:             Z + Z_5
alexander:      t^3 + 2t^2 + 3t - 1
irreducible:    -
primitive:      -
theorem1_check: True
""",
        {
            "matrix": {"rows": [[-2, 1, 0], [-3, 0, 1], [1, 0, 0]]},
            "det": 1,
            "trace": -2,
            "normalized": True,
            "k0": {"free_rank": 0, "invariant_factors": [5]},
            "k1": {"free_rank": 0, "invariant_factors": []},
            "bowen_franks": {"free_rank": 0, "invariant_factors": [5]},
            "h1": {"free_rank": 1, "invariant_factors": [5]},
            "alexander": [-1, 3, 2, 1],
            "irreducible": None,
            "primitive": None,
            "theorem1_check": True,
        },
    ),
]


@pytest.mark.parametrize("matrix, text, obj", SIGN_FLIP_REPORTS, ids=["minus-I", "m-inverse"])
def test_sign_flipped_reports(run, matrix, text, obj):
    assert run("invariants", "--input", "a", a=matrix) == (0, text, NEGATIVE_WARNING)
    assert run("invariants", "--input", "a", "--format", "json", a=matrix) == (
        0,
        _json(obj),
        NEGATIVE_WARNING,
    )


def test_compare_certificate_rows(run):
    b = "7 -4\n2 -1\n"  # [[1, 1], [0, 1]] A2 [[1, 1], [0, 1]]^-1
    assert run("compare", "a", "b", "--format", "json", a=A2_TEXT, b=b) == (
        0,
        _json(
            {
                "verdict": "Homeomorphic",
                "witness": "monodromies conjugate via [[1, 1], [0, 1]]",
                "certificate": {"rows": [[1, 1], [0, 1]]},
            }
        ),
        "",
    )
    assert run("compare", "a", "b", "--format", "json", a="2 1\n1 1\n", b="3 1\n2 1\n") == (
        1,
        _json({"verdict": "Distinct", "witness": "K0: 0 vs Z_2", "certificate": None}),
        "",
    )


def test_compare_determinants_differ(run):
    # T_A is orientable iff det A = +1, so the bundles are Distinct
    mats = {"a": "1 1\n1 0\n", "b": "2 1\n1 1\n"}
    assert run("compare", "a", "b", **mats) == (
        1,
        "verdict: Distinct\nwitness: det: -1 vs 1\n",
        "",
    )
    assert run("compare", "a", "b", "--format", "json", **mats) == (
        1,
        _json({"verdict": "Distinct", "witness": "det: -1 vs 1", "certificate": None}),
        "",
    )


def test_conj_search_rejects_non_unimodular(run):
    mats = {"a": "2 0\n0 1\n", "b": "1 0\n0 1\n"}
    for fmt in ("text", "json"):
        assert run("conj-search", "a", "b", "--format", fmt, **mats) == (
            3,
            "",
            "error: a has determinant 2, expected +/-1\n",
        )


def test_conj_search_conjugator_rows(run):
    assert run("conj-search", "a", "b", "--format", "json", a=A2_TEXT, b="7 -4\n2 -1\n") == (
        0,
        _json(
            {"status": "conjugate", "conjugator": {"rows": [[1, 1], [0, 1]]}, "obstruction": None}
        ),
        "",
    )
    assert run("conj-search", "a", "b", "--format", "json", a="2 1\n1 1\n", b="3 1\n2 1\n") == (
        0,
        _json(
            {
                "status": "not_conjugate",
                "conjugator": None,
                "obstruction": "trace sequences differ: [3, 7] vs [4, 14]",
            }
        ),
        "",
    )


def test_dilate_rows(run):
    assert run("dilate", "--input", "a", "--format", "json", a="2\n") == (
        0,
        _json({"rows": [[1, 1], [1, 1]]}),
        "",
    )


def test_snf_raw_lists(run):
    assert run("snf", "--input", "a", "--format", "json", a="6 0\n0 4\n") == (
        0,
        _json(
            {
                "u": [[1, -1], [2, -3]],
                "d": [[2, 0], [0, 12]],
                "v": [[1, -2], [1, -3]],
                "diagonal": [2, 12],
            }
        ),
        "",
    )


def test_se_search_raw_lists(run):
    argv = ("se-search", "a", "a", "--max-lag", "1", "--entry-bound", "2")
    r = [[2, 1], [1, 0]]
    assert run(*argv, "--format", "json", a=A2_TEXT) == (
        0,
        _json({"witness": {"r": r, "s": r, "lag": 1}, "obstruction": None, "definitive": False}),
        "",
    )
    assert run(*argv, a=A2_TEXT) == (
        0,
        "witness found (lag 1)\nr:\n2 1\n1 0\ns:\n2 1\n1 0\n",
        "",
    )


def test_se_search_no_witness_within_bounds(run):
    argv = ("se-search", "a", "b", "--entry-bound", "0")
    mats = {"a": "1 1\n1 0\n", "b": "0 1\n1 1\n"}
    assert run(*argv, **mats) == (
        0,
        "no witness within bounds (not a proof of non-equivalence)\n",
        "",
    )
    assert run(*argv, "--format", "json", **mats) == (
        0,
        _json({"witness": None, "obstruction": None, "definitive": False}),
        "",
    )


def test_se_search_rejects_rectangular_and_negative(run):
    assert run("se-search", "a", "b", a="1 2 3\n4 5 6\n", b="1 1\n1 0\n") == (
        3,
        "",
        "error: a must be square\n",
    )
    assert run("se-search", "a", "b", a="1 1\n1 0\n", b="1 -1\n1 0\n") == (
        3,
        "",
        "error: b must be nonnegative\n",
    )


def test_conj_search_unknown_at_depth_zero(run):
    argv = ("conj-search", "a", "b", "--depth", "0")
    mats = {"a": A2_TEXT, "b": "11 -28\n2 -5\n"}
    assert run(*argv, **mats) == (0, "unknown at depth 0\n", "")
    assert run(*argv, "--format", "json", **mats) == (
        0,
        _json({"status": "unknown", "conjugator": None, "obstruction": None}),
        "",
    )


@pytest.mark.parametrize(
    "text, err",
    [
        ('{"rows": []}', 'error: "rows" must be a nonempty list of rows\n'),
        ('{"rows": [1, 2]}', "error: row 1 is not a list\n"),
    ],
)
def test_malformed_json_rows_on_stdin(capsys, monkeypatch, text, err):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["invariants"]) == 3
    assert capsys.readouterr() == ("", err)


def test_invariants_rejects_rectangular(run):
    assert run("invariants", "--input", "a", a="1 2 3\n4 5 6\n") == (
        3,
        "",
        "error: invariants require a square matrix, got (2, 3)\n",
    )

"""End-to-end command line tests, run in process through main()."""

import argparse
import json

import pytest

from mdskit import cli
from mdskit.codes import format_code, parse_code
from mdskit.constructions import build_k3_n3

BAD42 = """\
field p=3
code n=4 k=2 kind=explicit
row 1 0 1 0
row 0 1 0 1
"""

# evaluation matrix on points 0..3 over GF(5), an MDS [4,3] code
GOOD43 = """\
field p=5
code n=4 k=3 kind=explicit
row 1 1 1 1
row 0 1 2 3
row 0 1 4 4
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _constructed(tmp_path, name="k3-n3", n="7"):
    out = str(tmp_path / "code.txt")
    rc = cli.main(["construct", "--name", name, "--n", n, "--out", out])
    assert rc == 0
    return out


# -- construct -------------------------------------------------------------------


def test_construct_writes_parseable_file(tmp_path, capsys):
    out = _constructed(tmp_path)
    line = capsys.readouterr().out
    assert "event=construct" in line and "q=49" in line
    code, prov = parse_code(open(out).read())
    assert (code.n, code.k) == (7, 3)
    assert prov["q"] == "49"


def test_construct_stdout_without_out(capsys):
    rc = cli.main(["construct", "--name", "k3-n4", "--n", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# construction=k3-n4")
    assert "code n=7 k=3 kind=rs" in out


def test_construct_warning_is_one_path_free_line(capsys):
    # n = 8 skips the exponent 3, which build_k3_n3 warns about
    rc = cli.main(["construct", "--name", "k3-n3", "--n", "8"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err.count("mdskit construct: warning: extension exponent") == 1
    assert ".py:" not in captured.err
    with pytest.warns(UserWarning):
        built = build_k3_n3(8)
    assert captured.out == format_code(built.code, built.provenance)


def test_construct_missing_n_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "--name", "k3-n3"])
    assert exc.value.code == 2


def test_construct_unknown_name_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "--name", "k9-wild", "--n", "7"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--name", "k3-n4", "--n", "7", "--k", "5"],
        ["--name", "k3-n3", "--n", "7", "--k", "3"],
        ["--name", "k3-n4", "--n", "7", "--ell", "3"],
        ["--name", "k4-general", "--n", "8", "--ell", "7"],
        ["--name", "k5-weak", "--n", "5", "--ell", "2"],
        ["--name", "k3-n3", "--n", "7", "--degree", "2"],
        ["--name", "k4-general", "--n", "8", "--degree", "9"],
    ],
    ids=["k_k3n4", "k_k3n3", "ell_k3n4", "ell_k4", "ell_k5", "degree_k3n3",
         "degree_k4"],
)
def test_construct_refuses_options_its_family_does_not_read(capsys, args):
    rc = cli.main(["construct"] + args)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"mdskit: {args[4]} does not apply to {args[1]}\n"


def test_construct_unwritable_out_exits_2(capsys):
    out = "/nonexistent/dir/x.txt"
    rc = cli.main(["construct", "--name", "k3-n4", "--n", "7", "--out", out])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"mdskit: cannot write {out}: ")


def test_construct_failure_exits_1(capsys):
    # the 16^8-coefficient tower exceeds the builder's coefficient budget
    rc = cli.main(
        ["construct", "--name", "general-ell", "--n", "6", "--k", "2",
         "--ell", "4"]
    )
    assert rc == 1
    assert "construction failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--name", "k4-general", "--n", "8", "--k", "-1"], "need k >= 2"),
        (["--name", "k4-general", "--n", "8", "--k", "0"], "need k >= 2"),
        (["--name", "k5-weak", "--n", "5", "--degree", "0"],
         "need an extension of degree at least 2"),
        (["--name", "general-ell", "--n", "4", "--k", "2", "--ell", "0"],
         "need ell >= 1"),
        (["--name", "k4-general", "--n", "3"], "need n >= k"),
        (["--name", "general-ell", "--n", "6", "--k", "2", "--ell", "2",
          "--degree", "1"], "per-level degree 1 below the safe floor 5"),
    ],
    ids=["k4_negative_k", "k4_zero_k", "k5_degree_zero", "general_ell_zero",
         "k4_n_below_k", "general_degree_below_floor"],
)
def test_construct_out_of_range_parameter_exits_2(capsys, args, message):
    rc = cli.main(["construct"] + args)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"mdskit construct: {message}\n"


def test_construct_without_k_takes_the_family_default(tmp_path):
    out = str(tmp_path / "k4.txt")
    rc = cli.main(["construct", "--name", "k4-general", "--n", "8", "--out", out])
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        assert "code n=8 k=4 " in fh.read()


# -- check -----------------------------------------------------------------------


def test_check_constructed_code_passes(tmp_path, capsys):
    out = _constructed(tmp_path)
    rc = cli.main(["check", out, "--property", "mds3"])
    assert rc == 0
    assert "verdict=pass" in capsys.readouterr().out


def test_check_repeated_column_fails_with_witness(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", BAD42)
    rc = cli.main(["check", path, "--property", "mds3"])
    assert rc == 1
    line = capsys.readouterr().out
    assert "verdict=fail" in line and "witness=" in line


def test_check_parse_error_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "garbage.txt", "not a code file\n")
    rc = cli.main(["check", path, "--property", "mds"])
    assert rc == 2
    assert "cannot parse" in capsys.readouterr().err


def test_check_missing_file_exits_2(capsys):
    rc = cli.main(["check", "/nonexistent/c.txt", "--property", "mds"])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_row_width_mismatch_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "wide.txt", BAD42.replace("n=4", "n=9"))
    rc = cli.main(["check", path, "--property", "mds"])
    assert rc == 2
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        # a row entry is one base-p coefficient: 9 and -3 are not in 0..6
        "field p=7\ncode n=3 k=1 kind=explicit\nrow 1 9 -3\n",
        # 4 is not a coefficient of GF(3), so this is not x^2 + 1
        "field p=3\next d=2 poly=4,0,1\ncode n=2 k=1 kind=explicit\nrow 1,0 0,1\n",
        # gen 8 is not gen 1 over GF(7): refused as out of range, not as a repeat
        "field p=7\ncode n=2 k=1 kind=rs\ngen 1\ngen 8\n",
    ],
)
def test_check_coefficient_outside_prime_field_exits_2(tmp_path, capsys, text):
    path = _write(tmp_path, "range.txt", text)
    rc = cli.main(["check", path, "--property", "mds"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cannot parse" in err and "outside 0.." in err


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(GOOD43 + "bogus line here\n", id="stray-line"),
        pytest.param(
            "field p=5\ncode n=3 k=1 kind=rs\ngen 1\ngen 2\ngen 3\nrow 1 2 3\n",
            id="row-in-rs",
        ),
        pytest.param(
            "field p=5\ncode n=3 k=1 kind=explicit extra=5\nrow 1 2 3\n",
            id="unknown-header-key",
        ),
        # the second header used to replace the first
        pytest.param(
            GOOD43.replace("field p=5\n", "field p=5\ncode n=3 k=1 kind=explicit\n"),
            id="second-header",
        ),
        pytest.param(
            "field p=3\next d=2 poly=1,0,1 extra=1\n"
            "code n=2 k=1 kind=explicit\nrow 1,0 0,1\n",
            id="unknown-ext-key",
        ),
        # k = 0 needs no row lines, so nothing else refuses the length
        pytest.param("field p=7\ncode n=-2 k=0 kind=explicit\n", id="negative-length"),
    ],
)
def test_check_malformed_code_file_exits_2(tmp_path, capsys, text):
    path = _write(tmp_path, "malformed.txt", text)
    rc = cli.main(["check", path, "--property", "mds"])
    assert rc == 2
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--property", "mds"],
        ["tensor-check", "--m", "2"],
        ["ld-check", "--list-size", "1"],
    ],
    ids=["check", "tensor_check", "ld_check"],
)
def test_non_utf8_code_file_exits_2(tmp_path, capsys, args):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe\x00bad")
    rc = cli.main(args[:1] + [str(path)] + args[1:])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"mdskit: cannot read {path}: ")


@pytest.mark.parametrize(
    "args",
    [
        ["tensor-check", "--m", "2", "--pattern", "1;2"],
        ["tensor-check", "--m", "2", "--pattern", "a,b"],
        ["tensor-check", "--m", "2", "--pattern", "5,0"],
        ["check", "--property", "mdsell", "--ell", "0"],
        ["ld-check", "--list-size", "0"],
        ["tensor-check", "--m", "1"],
        ["tensor-check", "--m", "2", "--trials", "-2"],
        ["tensor-check", "--m", "2", "--trials", "0"],
    ],
    ids=["pattern_one_coordinate", "pattern_not_int", "pattern_off_grid",
         "ell_zero", "list_size_zero", "mr_m_one", "mr_trials_negative",
         "tensor_trials_zero"],
)
def test_bad_argument_exits_2(tmp_path, capsys, args):
    path = _write(tmp_path, "good.txt", GOOD43)
    rc = cli.main(args[:1] + [path] + args[1:])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("mdskit: ")


@pytest.mark.parametrize(
    "args",
    [
        ["tensor-check", "{path}", "--m", "2"],
        ["ld-check", "{path}", "--list-size", "1"],
        ["search", "--n", "4", "--k", "2", "--q", "3"],
        ["verify-certificates"],
    ],
    ids=["tensor_check", "ld_check", "search", "verify_certificates"],
)
def test_negative_budget_exits_2(tmp_path, capsys, args):
    path = _write(tmp_path, "good.txt", GOOD43)
    argv = [path if a == "{path}" else a for a in args] + ["--budget", "-1"]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "mdskit: --budget must be at least 0, got -1\n"


# -- ld-check --------------------------------------------------------------------


def test_ld_check_pass_and_fail(tmp_path, capsys):
    good = _write(tmp_path, "good.txt", GOOD43)
    assert cli.main(["ld-check", good, "--list-size", "1"]) == 0
    bad = _write(tmp_path, "bad.txt", BAD42)
    assert cli.main(["ld-check", bad, "--list-size", "1"]) == 1
    out = capsys.readouterr().out
    assert "share a syndrome" in out


def test_ld_check_tower_field_over_budget_fails_fast(tmp_path, capsys):
    # the budget guard must fire before any field-table construction
    good = _constructed(tmp_path)
    rc = cli.main(["ld-check", good, "--list-size", "1"])
    assert rc == 3
    assert "budget" in capsys.readouterr().err


def test_ld_check_tiny_budget_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", BAD42)
    rc = cli.main(["ld-check", path, "--list-size", "2", "--budget", "10"])
    assert rc == 3
    assert "budget" in capsys.readouterr().err


def test_ld_check_worst_case(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", BAD42)
    rc = cli.main(
        ["ld-check", path, "--list-size", "2", "--worst-case", "--radius", "1/3"]
    )
    assert rc == 0
    assert "worst-case-ld" in capsys.readouterr().out


def test_ld_check_radius_validation(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", BAD42)
    assert cli.main(["ld-check", path, "--list-size", "2", "--worst-case"]) == 2
    assert (
        cli.main(
            ["ld-check", path, "--list-size", "2", "--worst-case", "--radius", "x"]
        )
        == 2
    )


def test_ld_check_inapplicable_flags_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", BAD42)
    assert cli.main(["ld-check", path, "--list-size", "2", "--radius", "1/3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--radius applies only with --worst-case" in captured.err
    argv = ["ld-check", path, "--list-size", "2", "--worst-case", "--radius", "1/3"]
    assert cli.main(argv + ["--single"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--single applies only without --worst-case" in captured.err


# -- tensor-check ----------------------------------------------------------------


def test_tensor_check_single_pattern(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", BAD42)
    rc = cli.main(["tensor-check", path, "--m", "2", "--pattern", "0,1"])
    assert rc == 0
    assert "tensor-correctable" in capsys.readouterr().out


def test_tensor_check_full_sweep_fails_for_degenerate_row(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", BAD42)
    rc = cli.main(["tensor-check", path, "--m", "2"])
    assert rc == 1
    assert "mode=exhaustive" in capsys.readouterr().out


def test_tensor_check_full_sweep_passes_for_mds_row(tmp_path, capsys):
    path = _write(tmp_path, "good.txt", GOOD43)
    rc = cli.main(["tensor-check", path, "--m", "2"])
    assert rc == 0
    assert "verdict=pass" in capsys.readouterr().out


def test_tensor_check_requires_m(tmp_path):
    path = _write(tmp_path, "bad.txt", BAD42)
    with pytest.raises(SystemExit) as exc:
        cli.main(["tensor-check", path])
    assert exc.value.code == 2


def test_tensor_check_sampling_no_pattern_exits_3(tmp_path, capsys):
    # a budget of 0 is below the 2^8 patterns, so the check samples, and a
    # sample of no pattern decides nothing
    path = _write(tmp_path, "good.txt", GOOD43)
    rc = cli.main(["tensor-check", path, "--m", "2", "--budget", "0"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "budget" in captured.err


_MR_GOOD = "mr-tensor(m=2,n=4,a=1,b=1)"
_MR_BAD = "mr-tensor(m=2,n=4,a=1,b=2)"
_NOT_BY_CODE = "correctable generically but not by this code"


# the lines `check FILE --property mr --m 2` printed before tensor-check
# became the one command for the maximal recoverability check
@pytest.mark.parametrize(
    "text, extra, rc, lines",
    [
        (GOOD43, [], 0, [
            f"property={_MR_GOOD} verdict=pass tuples=256 "
            "detail=mode=exhaustive; 189 of 256 patterns correctable",
            '{"detail": "mode=exhaustive; 189 of 256 patterns correctable", '
            f'"property": "{_MR_GOOD}", "tuples": 256, "verdict": "pass"}}',
        ]),
        (GOOD43, ["--budget", "200"], 0, [
            f"property={_MR_GOOD} verdict=pass tuples=200 "
            "detail=mode=sampled; 200 of 256 patterns agree",
            '{"detail": "mode=sampled; 200 of 256 patterns agree", '
            f'"property": "{_MR_GOOD}", "tuples": 200, "verdict": "pass"}}',
        ]),
        (BAD42, [], 1, [
            f"property={_MR_BAD} verdict=fail tuples=256 detail=mode=exhaustive; "
            f"pattern 0,0;0,2;1,0;1,2 {_NOT_BY_CODE}; 18 disagreements",
            '{"detail": "mode=exhaustive; pattern 0,0;0,2;1,0;1,2 '
            f'{_NOT_BY_CODE}; 18 disagreements", "property": "{_MR_BAD}", '
            '"tuples": 256, "verdict": "fail"}',
        ]),
        (BAD42, ["--budget", "200"], 1, [
            f"property={_MR_BAD} verdict=fail tuples=200 detail=mode=sampled "
            f"200/256; pattern 0,0;0,1;0,3;1,1;1,2;1,3 {_NOT_BY_CODE}",
            '{"detail": "mode=sampled 200/256; pattern 0,0;0,1;0,3;1,1;1,2;1,3 '
            f'{_NOT_BY_CODE}", "property": "{_MR_BAD}", "tuples": 200, '
            '"verdict": "fail"}',
        ]),
        (BAD42, ["--budget", "200", "--seed", "7"], 1, [
            f"property={_MR_BAD} verdict=fail tuples=200 detail=mode=sampled "
            f"200/256; pattern 0,0;0,2;0,3;1,0;1,2 {_NOT_BY_CODE}",
            '{"detail": "mode=sampled 200/256; pattern 0,0;0,2;0,3;1,0;1,2 '
            f'{_NOT_BY_CODE}", "property": "{_MR_BAD}", "tuples": 200, '
            '"verdict": "fail"}',
        ]),
    ],
    ids=["good-exhaustive", "good-sampled", "bad-exhaustive", "bad-sampled",
         "bad-sampled-seed7"],
)
@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_tensor_check_prints_pinned_mr_line(tmp_path, capsys, text, extra, rc, lines, fmt):
    path = _write(tmp_path, "code.txt", text)
    argv = ["tensor-check", path, "--m", "2", *extra, "--format", fmt]
    assert cli.main(argv) == rc
    assert capsys.readouterr().out == lines[fmt == "jsonl"] + "\n"


@pytest.mark.parametrize("opt", ["--budget", "--trials", "--seed"])
def test_tensor_check_pattern_refuses_sweep_options(tmp_path, capsys, opt):
    path = _write(tmp_path, "bad.txt", BAD42)
    rc = cli.main(["tensor-check", path, "--m", "2", "--pattern", "0,1", opt, "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"mdskit: {opt} applies only without --pattern\n"


# -- search ----------------------------------------------------------------------


def test_search_counts_and_exemplars(capsys):
    rc = cli.main(["search", "--n", "4", "--k", "2", "--q", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "count=8" in out and "candidates=486" in out
    assert "exemplar 0:" in out


def test_search_non_prime_power_q_exits_2(capsys):
    rc = cli.main(["search", "--n", "4", "--k", "2", "--q", "6"])
    assert rc == 2
    assert "not a prime power" in capsys.readouterr().err


@pytest.mark.parametrize(
    "nk",
    [("3", "5"), ("3", "0"), ("-1", "2")],
    ids=["k_above_n", "k_zero", "n_negative"],
)
def test_search_k_outside_1_to_n_exits_2(capsys, nk):
    n, k = nk
    rc = cli.main(["search", "--n", n, "--k", k, "--q", "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "need 1 <= k <= n" in captured.err


def test_search_budget_exits_3(capsys):
    rc = cli.main(["search", "--n", "6", "--k", "3", "--q", "4", "--budget", "10"])
    assert rc == 3


# -- verify-certificates ---------------------------------------------------------


def test_verify_certificates_pass(capsys):
    rc = cli.main(["verify-certificates"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("verdict=pass") == 4
    assert "certificate=ideal-membership" in out


def test_verify_certificates_corrupted_data(monkeypatch, capsys):
    from mdskit import multipoly

    raw = dict(multipoly._load_certificate_text())
    raw["g"] = raw["g"] + " + 1"
    monkeypatch.setattr(multipoly, "_load_certificate_text", lambda: raw)
    rc = cli.main(["verify-certificates"])
    assert rc == 1
    assert "certificate=identity-char7 verdict=fail" in capsys.readouterr().out


# -- acceptance ------------------------------------------------------------------


def test_acceptance_certificates_suite(capsys):
    rc = cli.main(["acceptance", "certificates"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "criterion=8" in out and "verdict=pass" in out


def test_acceptance_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["acceptance", "nosuch"])
    assert exc.value.code == 2


# -- report formats --------------------------------------------------------------


def test_jsonl_reports_parse(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", BAD42)
    cli.main(["check", path, "--property", "mds3", "--format", "jsonl"])
    line = capsys.readouterr().out.strip()
    obj = json.loads(line)
    assert obj["verdict"] == "fail"
    assert obj["property"] == "mds3"
    assert "witness" in obj


# -- the parser ------------------------------------------------------------------


def test_parser_option_sets_are_pinned():
    # a new option has to be added here on purpose
    subparsers = next(
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        name: sorted(
            opt
            for action in parser._actions
            for opt in action.option_strings
            if opt not in ("-h", "--help")
        )
        for name, parser in subparsers.choices.items()
    }
    assert options == {
        "construct": ["--degree", "--ell", "--format", "--k", "--n", "--name", "--out"],
        "check": ["--ell", "--format", "--property"],
        "search": ["--budget", "--format", "--k", "--n", "--q"],
        "tensor-check": ["--budget", "--format", "--m", "--pattern", "--seed", "--trials"],
        "ld-check": ["--budget", "--format", "--list-size", "--radius", "--single",
                     "--worst-case"],
        "verify-certificates": ["--budget", "--char2", "--format"],
        "acceptance": ["--format"],
    }
    assert sum(len(opts) for opts in options.values()) == 31


@pytest.mark.parametrize(
    "args",
    [
        ["construct", "--name", "k3-n4", "--n", "7", "--seed", "3"],
        ["check", "{path}", "--property", "mds", "--seed", "3"],
        ["check", "{path}", "--property", "mds", "--m", "2"],
        ["check", "{path}", "--property", "mds", "--budget", "1"],
        ["check", "{path}", "--property", "mds", "--trials", "9"],
        ["check", "{path}", "--property", "mr", "--m", "2"],
        ["search", "--n", "4", "--k", "2", "--q", "3", "--seed", "3"],
        ["search", "--n", "4", "--k", "2", "--q", "3", "--property", "mds3"],
        ["ld-check", "{path}", "--list-size", "1", "--seed", "3"],
        ["verify-certificates", "--seed", "3"],
        ["acceptance", "certificates", "--seed", "3"],
    ],
    ids=["construct_seed", "check_seed", "check_m", "check_budget",
         "check_trials", "check_property_mr", "search_seed", "search_property",
         "ld_check_seed", "verify_certificates_seed", "acceptance_seed"],
)
def test_removed_option_is_rejected(tmp_path, capsys, args):
    path = _write(tmp_path, "good.txt", GOOD43)
    with pytest.raises(SystemExit) as exc:
        cli.main([path if a == "{path}" else a for a in args])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_threads_option_is_rejected(tmp_path):
    path = _write(tmp_path, "bad.txt", BAD42)
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", path, "--property", "mds3", "--threads", "1"])
    assert exc.value.code == 2

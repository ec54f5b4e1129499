"""End-to-end checks of the command line interface.

Every invocation goes through cli.main(argv) in-process.  Rows are compared
against direct library calls; the CLI's job is wiring, parsing, and output
formatting, so the math itself is only spot-checked here.
"""

import ast
import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st

from gpflab import ap, sequences, shifted, smooth
from gpflab.cli import (_bounds, _int_list, _parse_float, _parse_int, _parse_x,
                        _threads, _x_items, build_parser, main)
from gpflab.sieve import build_sieve, greatest_prime_factor


ALL_COMMANDS = [
    "gpf", "gamma-plus", "lv-count", "ford-ratio", "smooth", "rho",
    "pi-ap", "bv-sum", "signed-sum", "dyadic-sum", "thm4-sum", "lambda-ext",
    "hb-verify", "delta", "cond-check", "divisor-lhs", "adversarial",
    "thm1-search", "thm1-sum", "thm2-sum", "ledger", "sqerr-check",
]


def run_cli(capsys, argv):
    """Run main(argv), returning (exit_code, stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows, "no CSV output"
    header = rows[0]
    return header, [dict(zip(header, r)) for r in rows[1:]]


def test_all_subcommands_registered():
    parser = build_parser()
    sub_actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    names = sorted(sub_actions[0].choices)
    assert names == sorted(ALL_COMMANDS)
    assert len(ALL_COMMANDS) == 22


@pytest.mark.parametrize("name", ALL_COMMANDS)
def test_help_exits_zero(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_top_level_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ALL_COMMANDS:
        assert name in out


def test_unknown_command_exits_one(capsys):
    code, out, err = run_cli(capsys, ["no-such-command"])
    assert_one_line_error(code, out, err)
    assert "no-such-command" in err


def test_missing_required_argument(capsys):
    code, out, err = run_cli(capsys, ["gpf"])
    assert_one_line_error(code, out, err)
    assert "--n" in err


def test_gpf_rows(capsys):
    code, out, err = run_cli(capsys, ["gpf", "--n", "12,97,100000"])
    assert code == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert header == ["n", "gpf"]
    assert [(r["n"], r["gpf"]) for r in rows] == [
        ("12", "3"), ("97", "97"), ("100000", "5")]


def test_gpf_rejects_nonpositive(capsys):
    code, out, err = run_cli(capsys, ["gpf", "--n", "0"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_gamma_plus_dense_example(capsys):
    code, out, err = run_cli(capsys, ["gamma-plus", "--n", "10", "--dense"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["gamma_plus", "witness_a", "witness_b"]
    assert rows == [{"gamma_plus": "101", "witness_a": "10", "witness_b": "10"}]


def test_gamma_plus_set_files(capsys, tmp_path):
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    fa.write_text("# set A\n1\n2\n3\n")
    fb.write_text("1\n2\n3\n")
    code, out, _ = run_cli(capsys, ["gamma-plus", "--set-a", str(fa),
                                    "--set-b", str(fb)])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["gamma_plus"] == "7"


def test_gamma_plus_sieves_to_the_largest_member(capsys, monkeypatch, tmp_path):
    from gpflab import cli

    limits = []

    def recording_sieve(limit):
        limits.append(limit)
        return build_sieve(limit)

    monkeypatch.setattr(cli, "build_sieve", recording_sieve)
    (tmp_path / "a.txt").write_text("3\n17\n250\n999\n1234\n")
    (tmp_path / "b.txt").write_text("2\n5\n77\n600\n2001\n")
    files = ["--set-a", str(tmp_path / "a.txt"), "--set-b", str(tmp_path / "b.txt")]
    code, bounded, _ = run_cli(capsys, ["gamma-plus", "--n", "1e7", *files])
    assert code == 0 and limits == [2002]
    code, unbounded, _ = run_cli(capsys, ["gamma-plus", *files])
    assert code == 0 and bounded == unbounded
    code, out, err = run_cli(capsys, ["gamma-plus", "--n", "2000", *files])
    assert (code, out) == (1, "") and "2001 exceeds n_max 2000" in err
    assert limits == [2002, 2002]


def test_gamma_plus_needs_a_set_choice(capsys):
    code, _, err = run_cli(capsys, ["gamma-plus", "--n", "10"])
    assert code == 1
    assert "error:" in err


def test_rho_example(capsys):
    code, out, _ = run_cli(capsys, ["rho", "--u", "2"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["u", "rho"]
    v = float(rows[0]["rho"])
    assert abs(v - 0.3068528194400547) < 1e-9
    # CSV floats use %.15g
    assert rows[0]["rho"] == f"{smooth.dickman_rho(2.0):.15g}"


def test_rho_u_list(capsys):
    code, out, _ = run_cli(capsys, ["rho", "--u-list", "0.5,1,2,3"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 4
    assert rows[0]["rho"] == "1"
    assert rows[1]["rho"] == "1"
    assert float(rows[3]["rho"]) == pytest.approx(0.04860838829113157, rel=1e-9)


def test_rho_needs_u(capsys):
    code, _, err = run_cli(capsys, ["rho"])
    assert code == 1
    assert "error:" in err


def test_sqerr_check_set_file_example(capsys, tmp_path):
    f = tmp_path / "set.txt"
    f.write_text("1\n2\n3\n5\n8\n13\n21\n34\n55\n89\n")
    code, out, _ = run_cli(capsys, ["sqerr-check", "--n", "100",
                                    "--set-file", str(f)])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "card", "lhs", "rhs", "holds"]
    assert rows[0]["card"] == "10"
    assert rows[0]["holds"] == "true"


def test_lv_count_rows(capsys):
    code, out, _ = run_cli(capsys, ["lv-count", "--n", "10,37"])
    assert code == 0
    _, rows = parse_csv(out)
    assert [int(r["count"]) for r in rows] == [shifted.lv_count(10),
                                               shifted.lv_count(37)]


def test_lv_count_over_cap_exits_two(capsys):
    code, _, err = run_cli(capsys, ["lv-count", "--n", "10001"])
    assert code == 2
    assert err.startswith("error:")


def test_ford_ratio_n_list(capsys):
    code, out, _ = run_cli(capsys, ["ford-ratio", "--n-list", "10,100"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "count", "ratio"]
    assert len(rows) == 2
    assert float(rows[1]["ratio"]) == pytest.approx(shifted.ford_ratio(2906, 100))


def test_ford_ratio_counts_each_n_once(capsys, monkeypatch):
    from gpflab import _accel

    calls, count = [], _accel.product_mark_count
    monkeypatch.setattr(_accel, "product_mark_count", lambda n: calls.append(n) or count(n))
    code, out, _ = run_cli(capsys, ["ford-ratio", "--n-list", "10,100"])
    assert code == 0 and calls == [10, 100]
    assert out.splitlines() == ["N,count,ratio", "10,42,0.343716274461491",
                                "100,2906,0.625485478936884"]


def test_ford_ratio_needs_n(capsys):
    code, _, err = run_cli(capsys, ["ford-ratio"])
    assert code == 1
    assert "error:" in err


def test_smooth_row(capsys):
    code, out, _ = run_cli(capsys, ["smooth", "--x", "1000", "--y", "10"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "y", "u", "exact", "approx", "residual"]
    sieve = build_sieve(10)
    assert int(float(rows[0]["exact"])) == smooth.psi_count(1000, 10, sieve)
    assert float(rows[0]["u"]) == pytest.approx(math.log(1000) / math.log(10))


@pytest.mark.parametrize("y", ["2e8", "5e7"])
def test_smooth_y_at_least_x_builds_no_wide_sieve(capsys, monkeypatch, y):
    from gpflab import cli

    limits = []

    def recording_sieve(limit):
        limits.append(limit)
        return build_sieve(limit)

    monkeypatch.setattr(cli, "build_sieve", recording_sieve)
    code, out, _ = run_cli(capsys, ["smooth", "--x", "100", "--y", y])
    assert code == 0 and limits == [3]
    _, rows = parse_csv(out)
    assert int(rows[0]["exact"]) == 100


def test_smooth_sizes_sieve_to_root_of_x(capsys, monkeypatch):
    from gpflab import cli

    limits = []

    def recording_sieve(limit):
        limits.append(limit)
        return build_sieve(limit)

    monkeypatch.setattr(cli, "build_sieve", recording_sieve)
    code, out, _ = run_cli(capsys, ["smooth", "--x", "1e6", "--y", "3e5"])
    assert code == 0 and limits == [1001]
    _, rows = parse_csv(out)
    assert int(rows[0]["exact"]) == smooth.psi_count(1e6, 3e5, build_sieve(300_000))


def test_pi_ap_row(capsys):
    code, out, _ = run_cli(capsys, ["pi-ap", "--x", "100", "--q", "4", "--a", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "q", "a", "pi_count", "psi_weight", "error"]
    sieve = build_sieve(100)
    assert int(rows[0]["pi_count"]) == ap.pi_ap(100.0, 4, 3, sieve)
    assert float(rows[0]["error"]) == pytest.approx(
        ap.error_term(ap.pi_ap(100.0, 4, 3, sieve), 100.0, 4, sieve))


# rows recorded when the handler counted the progression twice
@pytest.mark.parametrize("argv, row", [
    (["--x", "1e6", "--q", "3", "--a", "1"], "1000000,3,1,39231,500144.208997665,-18"),
    (["--x", "1e6", "--q", "4", "--a", "2"], "1000000,4,2,1,0.693147180559945,"),
    (["--x", "100000", "--q", "7", "--a", "3"], "100000,7,3,1613,16761.1087644385,14.3333333333333"),
    (["--x", "100", "--q", "1", "--a", "0"], "100,1,0,25,94.0453112293574,0"),
    (["--x", "2", "--q", "5", "--a", "2"], "2,5,2,1,0.693147180559945,0.75"),
])
def test_pi_ap_counts_once(capsys, monkeypatch, argv, row):
    calls = []
    count = ap.pi_ap
    monkeypatch.setattr(ap, "pi_ap", lambda *a: calls.append(a) or count(*a))
    code, out, _ = run_cli(capsys, ["pi-ap", *argv])
    assert code == 0 and out.splitlines()[1] == row
    assert len(calls) == 1


def test_pi_ap_noncoprime_blank_error(capsys):
    code, out, _ = run_cli(capsys, ["pi-ap", "--x", "100", "--q", "4", "--a", "2"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["error"] == ""
    code, out, _ = run_cli(capsys, ["pi-ap", "--x", "100", "--q", "4", "--a", "2",
                                    "--format", "json"])
    payload = json.loads(out)
    assert payload[0]["error"] is None


def test_bv_sum_total_and_per_q(capsys):
    code, out, _ = run_cli(capsys, ["bv-sum", "--x", "1000", "--Q", "5"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "Q", "total", "normalized"]
    total = float(rows[0]["total"])

    code, out, _ = run_cli(capsys, ["bv-sum", "--x", "1000", "--Q", "5", "--per-q"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "Q", "q", "value"]
    assert [r["q"] for r in rows] == ["1", "2", "3", "4", "5"]
    assert sum(float(r["value"]) for r in rows) == pytest.approx(total, rel=1e-12)


def test_bv_sum_x_list(capsys):
    code, out, _ = run_cli(capsys, ["bv-sum", "--x-list", "500,1000", "--Q", "3"])
    assert code == 0
    _, rows = parse_csv(out)
    assert [r["x"] for r in rows] == ["500", "1000"]


def test_signed_sum_row(capsys):
    code, out, _ = run_cli(capsys, ["signed-sum", "--x", "3000", "--Q", "15",
                                    "--a", "2"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "Q", "a", "total", "normalized"]
    sieve = build_sieve(3000)
    rep = ap.signed_sum(3000.0, 15, 2, sieve)
    assert float(rows[0]["total"]) == pytest.approx(rep.total, rel=1e-12)


def test_dyadic_sum_weight_column(capsys):
    code, out, _ = run_cli(capsys, ["dyadic-sum", "--x", "500", "--Q", "4"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "Q", "a", "weight", "total", "normalized"]
    assert rows[0]["weight"] == "pi"
    code, out, _ = run_cli(capsys, ["dyadic-sum", "--x", "500", "--Q", "4",
                                    "--psi"])
    _, rows = parse_csv(out)
    assert rows[0]["weight"] == "psi"


def test_thm4_sum_multi_x(capsys):
    code, out, _ = run_cli(capsys, ["thm4-sum", "--x-list", "200,400", "--Q", "3",
                                    "--p1", "3", "--p2", "40", "--a", "7"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "Q", "P1", "P2", "a", "total", "normalized",
                      "trivial_ratio"]
    assert len(rows) == 2
    sieve = build_sieve(409)
    rep = ap.theorem4_sum(400.0, 3, 3.0, 40.0, 7, sieve)
    assert float(rows[1]["total"]) == pytest.approx(rep.total, rel=1e-12)


def test_thm4_per_q_rejects_multi_x(capsys):
    code, _, err = run_cli(capsys, ["thm4-sum", "--x-list", "200,400",
                                    "--Q", "3", "--per-q"])
    assert code == 1
    assert "per-q" in err


def test_lambda_ext_row(capsys):
    code, out, _ = run_cli(capsys, ["lambda-ext", "--x", "600", "--Q", "6",
                                    "--p1", "5", "--p2", "80", "--a", "7",
                                    "--z", "2"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "Q", "P1", "P2", "a", "z", "total", "normalized"]
    sieve = build_sieve(600)
    rep = ap.lambda_extension_sum(600.0, 6, 5.0, 80.0, 7, 2.0, sieve)
    assert float(rows[0]["total"]) == pytest.approx(rep.total, rel=1e-12)


def test_lambda_ext_default_threshold(capsys):
    # without --z the row prints the canonical threshold and the sum taken at it
    code, out, _ = run_cli(capsys, ["lambda-ext", "--x", "5000", "--Q", "10",
                                    "--p1", "10", "--p2", "70"])
    assert code == 0
    _, rows = parse_csv(out)
    z = ap.default_rough_z(5000.0)
    rep = ap.lambda_extension_sum(5000.0, 10, 10.0, 70.0, 1, z, build_sieve(5001))
    assert (rows[0]["z"], rows[0]["total"]) == (f"{z:.15g}", f"{rep.total:.15g}")


def test_hb_verify_matches_von_mangoldt(capsys):
    code, out, _ = run_cli(capsys, ["hb-verify", "--n", "64", "--j", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "x", "J", "total", "von_mangoldt", "abs_error"]
    assert float(rows[0]["abs_error"]) < 1e-9
    assert float(rows[0]["von_mangoldt"]) == pytest.approx(math.log(2))


def test_hb_verify_sieve_sized_from_n(capsys):
    # only n is factored, so a large x needs no sieve beyond isqrt(n); far
    # beyond 2^53 the cutoff x^(1/J) must still be found in a few steps
    for x, j in [("1e17", 2), ("1e60", 2), ("1e100", 2), ("1e100", 7)]:
        code, out, err = run_cli(capsys, ["hb-verify", "--n", "60", "--x", x,
                                          "--j", str(j)])
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        res = sequences.heath_brown_terms(60, float(x), j, build_sieve(8))
        assert len(rows) == 1
        assert (rows[0]["n"], float(rows[0]["x"]), rows[0]["J"]) == ("60", float(x), str(j))
        assert float(rows[0]["von_mangoldt"]) == 0.0
        assert float(rows[0]["total"]) == pytest.approx(res.total, rel=1e-12)
        assert float(rows[0]["abs_error"]) == pytest.approx(abs(res.total), rel=1e-12)


def test_hb_verify_terms_rows(capsys):
    code, out, _ = run_cli(capsys, ["hb-verify", "--n", "60", "--j", "2",
                                    "--terms"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "x", "J", "j", "term"]
    assert [r["j"] for r in rows] == ["1", "2"]


def test_delta_indicator(capsys):
    code, out, _ = run_cli(capsys, ["delta", "--indicator", "1,20",
                                    "--q", "4", "--a", "1"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["q", "a", "value", "norm"]
    f = sequences.WeightedSequence.indicator(1, 20)
    assert float(rows[0]["value"]) == pytest.approx(sequences.delta(f, 4, 1))
    assert float(rows[0]["norm"]) == pytest.approx(sequences.norm(f))


def test_delta_seq_file(capsys, tmp_path):
    f = tmp_path / "seq.txt"
    f.write_text("# weighted\n3 1.5\n4 -0.5\n7 2.0\n")
    code, out, _ = run_cli(capsys, ["delta", "--seq-file", str(f),
                                    "--q", "3", "--a", "1"])
    assert code == 0
    _, rows = parse_csv(out)
    g = sequences.WeightedSequence.from_pairs([(3, 1.5), (4, -0.5), (7, 2.0)])
    assert float(rows[0]["value"]) == pytest.approx(sequences.delta(g, 3, 1))


def test_cond_check_a2(capsys):
    code, out, _ = run_cli(capsys, ["cond-check", "--indicator", "1,50",
                                    "--condition", "A2", "--bound", "1"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["condition", "holds", "worst_case", "lhs", "rhs"]
    assert rows[0]["condition"] == "A2"
    assert rows[0]["holds"] == "true"


def test_cond_check_a1_blank_fields(capsys):
    code, out, _ = run_cli(capsys, ["cond-check", "--indicator", "1,30",
                                    "--condition", "A1", "--d", "2",
                                    "--k", "3", "--ell", "1"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["holds"] == ""
    assert rows[0]["rhs"] == ""
    f = sequences.WeightedSequence.indicator(1, 30)
    assert float(rows[0]["lhs"]) == pytest.approx(sequences.a1_lhs(f, 2, 3, 1))


def test_cond_check_missing_param(capsys):
    code, _, err = run_cli(capsys, ["cond-check", "--indicator", "1,30",
                                    "--condition", "A2"])
    assert code == 1
    assert "bound" in err


def test_cond_check_bad_condition(capsys):
    code, out, err = run_cli(capsys, ["cond-check", "--indicator", "1,30",
                                      "--condition", "A5"])
    assert_one_line_error(code, out, err)
    assert "invalid choice" in err


def test_divisor_lhs_row(capsys):
    code, out, _ = run_cli(capsys, ["divisor-lhs", "--selector", "rough-tau",
                                    "--x", "300", "--z", "7", "--j", "2"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["selector", "lhs", "rhs_shape", "ratio"]
    sieve = build_sieve(300)
    lhs = sequences.divisor_sum_lhs("rough-tau",
                                    {"x": 300.0, "z": 7.0, "j": 2}, sieve)
    rhs = sequences.divisor_sum_rhs_shape("rough-tau",
                                          {"x": 300.0, "z": 7.0, "j": 2})
    assert float(rows[0]["lhs"]) == pytest.approx(lhs, rel=1e-12)
    assert float(rows[0]["ratio"]) == pytest.approx(lhs / rhs, rel=1e-10)


def test_divisor_lhs_sieve_covers_the_span(capsys, monkeypatch):
    from gpflab import cli

    limits = []

    def recording_sieve(limit):
        limits.append(limit)
        return build_sieve(limit)

    monkeypatch.setattr(cli, "build_sieve", recording_sieve)
    code, out, _ = run_cli(capsys, ["divisor-lhs", "--selector",
                                    "rough-tau-window-harmonic", "--x", "50",
                                    "--y", "3", "--z", "7", "--j", "2"])
    assert code == 0 and limits == [13]  # isqrt(50 * 3) + 1
    _, rows = parse_csv(out)
    lhs = sequences.divisor_sum_lhs("rough-tau-window-harmonic",
                                    {"x": 50, "y": 3.0, "z": 7, "j": 2}, build_sieve(150))
    assert float(rows[0]["lhs"]) == pytest.approx(lhs, rel=1e-12)


def test_divisor_lhs_missing_param(capsys):
    code, _, err = run_cli(capsys, ["divisor-lhs", "--selector", "rough-tau",
                                    "--x", "300"])
    assert code == 1
    assert "error:" in err


_OVER_BUDGET = [
    ["--selector", "rough-tau", "--x", "1e8", "--z", "5", "--j", "1"],
    ["--selector", "rough-tau-window-harmonic", "--x", "1e4", "--y", "1e4",
     "--z", "3", "--j", "1"],
    ["--selector", "fourfold-glued", "--x", "5e7", "--y", "2", "--z", "3",
     "--w", "1", "--j1", "2", "--j2", "2", "--j3", "2", "--j4", "2"],
]

_ORDER_ABOVE_16 = {  # each refused by the name of its order key
    "j": ["--selector", "rough-tau", "--x", "100", "--z", "2", "--j", "17"],
    "j1": ["--selector", "fourfold-ordered", "--x", "100", "--y", "2", "--z", "3",
           "--w", "1", "--j1", "17", "--j2", "1", "--j3", "1", "--j4", "1"],
    "ell": ["--selector", "window-tau-power", "--x", "100", "--y", "10",
            "--ell", "17", "--k", "1"],
}


@pytest.mark.parametrize("argv", [
    ["--selector", "fourfold-glued", "--x", "1e7"],
    ["--selector", "sfold-glued", "--x", "1e7", "--y", "2", "--z", "3",
     "--w", "1", "--s", "5"],
    ["--selector", "sfold-ordered", "--x", "1e7", "--s", "7"],
    *_OVER_BUDGET,
    ["--selector", "sfold-glued", "--x", "1e6", "--y", "2", "--z", "3", "--w", "1",
     "--s", "5", "--nu", "9", "--j1", "1", "--j2", "1", "--j3", "1", "--j4", "1",
     "--j5", "1"],
    *_ORDER_ABOVE_16.values(),
])
def test_divisor_lhs_checks_parameters_before_the_sieve(capsys, monkeypatch, argv):
    from gpflab import cli

    def no_sieve(limit):
        raise AssertionError(f"sieve of {limit} built before the parameter check")

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    code, out, err = run_cli(capsys, ["divisor-lhs", *argv])
    assert code == (2 if argv in _OVER_BUDGET else 1) and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    for key, refused in _ORDER_ABOVE_16.items():
        if argv == refused:
            assert err == f"error: {argv[1]} needs {key} <= 16\n"


def test_divisor_lhs_walks_every_order_key_to_its_bound(capsys):
    # every selector with its other keys valid, one tau order at a time: 17
    # is refused by the key's name, 16 answers (the fuzzed calls never reach
    # this check with the other keys valid)
    valid = dict(x=100, y=2, z=3, w=1, ell=1, k=1, j=1, s=6, nu=1,
                 **{f"j{i}": 1 for i in range(1, 7)})
    for sel in sequences.DIVISOR_SELECTORS:
        keys = list(sequences._SELECTORS[sel][0])
        keys += [f"j{i}" for i in range(1, 7)] * ("s" in keys)
        for key in [k for k in keys if k == "ell" or k[0] == "j"]:
            for order in (17, 16):
                argv = ["divisor-lhs", "--selector", sel]
                for k in keys:
                    argv += [f"--{k}", str(order if k == key else valid[k])]
                code, out, err = run_cli(capsys, argv)
                if order == 17:
                    assert (code, out, err) == (1, "", f"error: {sel} needs {key} <= 16\n"), argv
                else:
                    assert code == 0 and err == "" and out.count("\n") == 2, argv


def test_divisor_lhs_overflowing_power_is_one_line():
    # tau^1000 overflows float64 and the exact sum refuses the inf; numpy's
    # RuntimeWarning must not reach stderr first (pytest would capture it
    # in-process, so the call runs in a child)
    proc = subprocess.run([sys.executable, "-m", "gpflab.cli", "divisor-lhs",
                           "--selector", "window-tau-power", "--x", "1000", "--y", "100",
                           "--ell", "2", "--k", "1000"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: a float term is not finite\n"


def test_adversarial_row_and_files(capsys, tmp_path):
    fa = tmp_path / "adv_a.txt"
    fb = tmp_path / "adv_b.txt"
    code, out, _ = run_cli(capsys, ["adversarial", "--n", "20", "--eps", "0.2",
                                    "--write-a", str(fa), "--write-b", str(fb)])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "eps", "p", "card_a", "card_b"]
    assert rows[0]["p"] == "3"
    A = shifted.IndexSet.from_file(str(fa))
    B = shifted.IndexSet.from_file(str(fb))
    assert len(A) == int(rows[0]["card_a"])
    assert all(a % 3 == 1 for a in A.members())
    assert all(b % 3 == 2 for b in B.members())


def test_adversarial_bad_eps_exits_one(capsys):
    code, _, err = run_cli(capsys, ["adversarial", "--n", "20", "--eps", "0.7"])
    assert code == 1
    assert err.startswith("error:")


def test_adversarial_infeasible_exits_two(capsys):
    code, _, err = run_cli(capsys, ["adversarial", "--n", "3", "--eps", "0.05"])
    assert code == 2
    assert err.startswith("error:")


def test_adversarial_tiny_eps_exits_two_fast(capsys):
    # the candidate primes start near 1/(2*eps), far beyond N + 1
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["adversarial", "--n", "10", "--eps", "1e-300"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_thm1_search_hit_and_miss(capsys):
    code, out, _ = run_cli(capsys, ["thm1-search", "--n", "10",
                                    "--lo", "90", "--hi", "101"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "lo", "hi", "found", "p", "a", "b"]
    assert rows[0]["found"] == "true"
    assert (rows[0]["p"], rows[0]["a"], rows[0]["b"]) == ("101", "10", "10")

    code, out, _ = run_cli(capsys, ["thm1-search", "--n", "10",
                                    "--lo", "97", "--hi", "100"])
    _, rows = parse_csv(out)
    assert rows[0]["found"] == "false"
    assert rows[0]["p"] == ""


def test_thm1_sum_row(capsys):
    code, out, _ = run_cli(capsys, ["thm1-sum", "--n", "500"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "A_exp", "Y", "Z1", "Z2", "total"]
    Y, Z1, Z2 = shifted.theorem1_thresholds(500, 1.0)
    assert float(rows[0]["Y"]) == pytest.approx(Y)
    assert float(rows[0]["total"]) >= 0.0


def test_thm2_sum_dense(capsys):
    code, out, _ = run_cli(capsys, ["thm2-sum", "--n", "200", "--delta", "0.2",
                                    "--dense"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "delta", "card_b", "total"]
    assert rows[0]["card_b"] == "200"
    sieve = build_sieve(201)
    expected = shifted.theorem2_sum(200, 0.2, shifted.IndexSet.dense(200), sieve)
    assert float(rows[0]["total"]) == pytest.approx(expected, rel=1e-12)


def test_thm2_sum_needs_set(capsys):
    code, _, err = run_cli(capsys, ["thm2-sum", "--n", "100", "--delta", "0.2"])
    assert code == 1
    assert "error:" in err


def test_ledger_dense(capsys):
    code, out, _ = run_cli(capsys, ["ledger", "--n", "20", "--dense"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "A_card", "B_card", "log_E", "log_E1", "log_E2",
                      "sigma1", "sigma2", "lemma72_lhs", "lemma72_rhs",
                      "implied_exponent"]
    r = rows[0]
    assert r["A_card"] == "20"
    assert float(r["log_E"]) == pytest.approx(
        float(r["log_E1"]) + float(r["log_E2"]), rel=1e-9)
    assert float(r["lemma72_lhs"]) <= float(r["lemma72_rhs"]) + 1e-9


def test_json_format_shape(capsys):
    code, out, _ = run_cli(capsys, ["gpf", "--n", "12,97", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"n": 12, "gpf": 3}, {"n": 97, "gpf": 97}]


def test_json_float_roundtrip(capsys):
    code, out, _ = run_cli(capsys, ["rho", "--u", "2.5", "--format", "json"])
    payload = json.loads(out)
    v = smooth.dickman_rho(2.5)
    assert payload[0]["rho"] == float(f"{v:.15g}")


def test_output_file_matches_stdout(capsys, tmp_path):
    argv = ["bv-sum", "--x", "1000", "--Q", "5", "--per-q"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    dest = tmp_path / "rows.csv"
    code2, out2, _ = run_cli(capsys, argv + ["--output", str(dest)])
    assert code2 == 0
    assert out2 == ""
    assert dest.read_text(encoding="utf-8") == out


def test_reruns_byte_identical(capsys):
    argv = ["thm4-sum", "--x", "2000", "--Q", "4", "--p1", "3", "--p2", "50",
            "--a", "7"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_threads_do_not_change_output(capsys):
    base = ["bv-sum", "--x", "20000", "--Q", "12", "--per-q"]
    _, out1, _ = run_cli(capsys, base + ["--threads", "1"])
    _, out4, _ = run_cli(capsys, base + ["--threads", "4"])
    assert out1 == out4

    # thm4-sum runs on one thread and declares no --threads
    base = ["thm4-sum", "--x", "2000", "--Q", "4", "--p1", "3", "--p2", "50"]
    assert_one_line_error(*run_cli(capsys, base + ["--threads", "3"]))


@pytest.mark.parametrize("value", ["0", "-5"])
def test_threads_below_one_exits_one(capsys, value):
    code, out, err = run_cli(capsys, ["bv-sum", "--x", "1000", "--Q", "5",
                                      "--threads", value])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_threads_capped_at_cpu_count(capsys, monkeypatch):
    seen = []

    def fake_bv_sum(x, Q, sieve, threads=1):
        seen.append(threads)
        return ap.DiscrepancyReport(x, np.empty(0, np.int64), np.empty(0), 0.0, 0.0)

    monkeypatch.setattr(ap, "bv_sum", fake_bv_sum)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for value, want in (("1", 1), ("3", 3), ("64", 3)):
        code, _, _ = run_cli(capsys, ["bv-sum", "--x", "1000", "--Q", "5",
                                      "--threads", value])
        assert code == 0
        assert seen.pop() == want


def test_integer_parser_is_exact():
    # gpf at 2^53 + 1 would need a sieve of about 1 GB, so the parser is tested alone
    assert _parse_int(str(2**53 + 1)) == 2**53 + 1
    assert _parse_int("9007199254740993") == 9007199254740993
    assert _parse_int("1e6") == 10**6
    assert _parse_int("9007199254740993.0") == 9007199254740993
    assert _parse_int(" 2.50e1 ") == 25


def test_integer_lists_accept_exponent_form(capsys):
    code, out, _ = run_cli(capsys, ["gpf", "--n", "1e3,12"])
    assert code == 0
    assert out == "n,gpf\n1000,5\n12,3\n"
    code, out, _ = run_cli(capsys, ["lv-count", "--n", "1e2"])
    assert code == 0
    assert out == "N,count\n100,2906\n"


@pytest.mark.parametrize("argv", [
    ["gpf", "--n", "12.7"],
    ["gpf", "--n", "12,x"],
    ["gpf", "--n", "1e999999999"],
    ["lv-count", "--n", "1.9"],
    ["lv-count", "--n", "1e-999999999"],
    ["ford-ratio", "--n-list", "10,2.5"],
])
def test_non_integral_integers_exit_one(capsys, argv):
    assert_one_line_error(*run_cli(capsys, argv))


# every list option, with the options its command needs besides it
_LIST_OPTIONS = [
    (["gpf"], "--n"),
    (["lv-count"], "--n"),
    (["ford-ratio"], "--n-list"),
    (["rho"], "--u-list"),
    (["bv-sum", "--Q", "5"], "--x-list"),
    (["thm4-sum", "--Q", "3"], "--x-list"),
]


@pytest.mark.parametrize("value", ["", ","])
@pytest.mark.parametrize("argv, option", _LIST_OPTIONS)
def test_list_without_items_exits_one(capsys, argv, option, value):
    # one rule for every list: at least one value, checked by the parser
    code, out, err = run_cli(capsys, argv + [option, value])
    assert_one_line_error(code, out, err)
    assert err == f"error: argument {option}: needs at least one value, got {value!r}\n"


@pytest.mark.parametrize("argv", [
    ["rho", "--u", "2", "--u-list", "3"],
    ["bv-sum", "--x", "1000", "--x-list", "500", "--Q", "5"],
    ["thm4-sum", "--x", "400", "--x-list", "200", "--Q", "3"],
])
def test_value_and_list_together_exit_one(capsys, argv):
    # neither is dropped in favour of the other
    code, out, err = run_cli(capsys, argv)
    assert_one_line_error(code, out, err)
    assert "not both" in err


@pytest.mark.parametrize("argv", [
    ["gpf", "--n", "12", "--threads", "2"],
    ["lv-count", "--n", "10", "--threads", "2"],
    ["gpf", "--n", "12", "--rng-seed", "5"],
    ["smooth", "--x", "1000", "--y", "10", "--rng-seed", "1"],
    ["rho", "--u", "2", "--sieve-limit", "10"],
    ["ford-ratio", "--n-list", "10", "--sieve-limit", "10"],
    ["cond-check", "--indicator", "1,30", "--condition", "A2", "--bound", "1",
     "--sieve-limit", "10"],
])
def test_option_the_command_never_reads_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert_one_line_error(code, out, err)
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


@pytest.mark.parametrize("argv, err_line", [
    # a prefix is not its option: each of these answered as --n-list, --threads
    # and --u-list
    (["ford-ratio", "--n", "10"], "the following arguments are required: --n-list"),
    (["bv-sum", "--x", "1000", "--Q", "5", "--thr", "2"], "unrecognized arguments: --thr 2"),
    (["rho", "--u-l", "2"], "unrecognized arguments: --u-l 2"),
    # nor is a second value dropped in favour of the last one
    (["rho", "--u-list", "2", "--u-list", "3"], "argument --u-list: given more than once"),
    (["gpf", "--n", "12", "--n", "13"], "argument --n: given more than once"),
    (["gpf", "--n=12", "--n", "13"], "argument --n: given more than once"),
])
def test_option_prefix_or_repeat_exits_one(capsys, argv, err_line):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {err_line}\n")


@pytest.mark.parametrize("argv", [
    ["smooth", "--x", "nan", "--y", "10"],
    ["smooth", "--x", "1000", "--y", "inf"],
    ["bv-sum", "--x", "inf", "--Q", "3"],
    ["bv-sum", "--x-list", "500,nan", "--Q", "3"],
    ["rho", "--u=-inf"],
    ["rho", "--u-list", "1,inf"],
    ["divisor-lhs", "--selector", "rough-tau-harmonic-log", "--x", "100",
     "--z", "3", "--j", "2", "--w", "nan"],
    ["thm1-search", "--n", "10", "--lo", "1", "--hi", "inf"],
    ["thm4-sum", "--x", "1000", "--p2", "nan"],
])
def test_non_finite_floats_exit_one(capsys, argv):
    assert_one_line_error(*run_cli(capsys, argv))


def test_infinite_threshold_still_answers(capsys):
    code, out, _ = run_cli(capsys, ["lambda-ext", "--x", "1000", "--z", "inf"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["z"] == "inf" and rows[0]["total"] == "0"
    # no window prime lies above P1 = inf, as none lies above a P1 beyond x
    code, out, _ = run_cli(capsys, ["thm4-sum", "--x", "1000", "--Q", "3",
                                    "--p1", "inf", "--p2", "inf"])
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["P1"] == "inf" and rows[0]["total"] == "0"


@pytest.mark.parametrize("argv, head", [
    (["dyadic-sum", "--x", "100", "--Q", "2", "--a", "6"], "x,Q,a,weight"),
    (["thm4-sum", "--x", "100", "--Q", "2", "--a", "6"], "x,Q,P1,P2,a"),
    (["lambda-ext", "--x", "100", "--Q", "2", "--a", "6", "--z", "2"], "x,Q,P1,P2,a,z"),
])
def test_no_coprime_modulus_answers_zero(capsys, argv, head):
    # 2 and 3 both divide a = 6: the set of moduli is empty
    code, out, _ = run_cli(capsys, argv)
    _, rows = parse_csv(out)
    assert code == 0 and [(r["total"], r["normalized"]) for r in rows] == [("0", "0")]
    assert run_cli(capsys, argv + ["--per-q"]) == (0, f"{head},q,value\n", "")


def test_thm4_takes_any_int64_a(capsys):
    # 1000000007 = 3527 (mod 2520): the row of --a 3527 with its a column
    code, out, _ = run_cli(capsys, ["thm4-sum", "--x", "500", "--Q", "5", "--a", "1000000007"])
    assert (code, out.splitlines()[1]) == (0, "500,5,22.3606797749979,500,1000000007,"
                                              "20.2184341718317,0.0404368683436634,"
                                              "0.0058538362623671")
    code, out, err = run_cli(capsys, ["thm4-sum", "--x", "500", "--Q", "5", "--a", "1e30"])
    assert (code, out) == (2, "")
    assert err == f"error: theorem4_sum needs |a| < 2**63, got {10**30}\n"


def test_thm4_moduli_need_their_root_in_the_sieve(capsys):
    # moduli up to 199 read the primes up to 14; the sieve of x = 10 stops
    # short whatever a is, and --sieve-limit covers it
    argv = ["thm4-sum", "--x", "10", "--Q", "100", "--a", "30"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", "error: moduli up to 199 need a sieve limit of at least 14\n")
    code, out, _ = run_cli(capsys, argv + ["--sieve-limit", "14"])
    assert (code, out.splitlines()[1]) == (0, "10,100,3.16227766016838,10,30,1.00385203323261,"
                                              "0.100385203323261,0.033509404097773")


@pytest.mark.parametrize("argv", [
    ["lambda-ext", "--x", "2.81"],
    ["cond-check", "--indicator", "1,2", "--condition", "A3", "--x", "2.81"],
])
def test_rough_z_overflow_is_named(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: roughness threshold overflows a float at x = 2.81\n"


@pytest.mark.parametrize("indicator", ["5", "1,x", "1,2,3", ""])
def test_malformed_indicator_exits_one(capsys, indicator):
    for argv in (["delta", "--q", "3", "--a", "1"],
                 ["cond-check", "--condition", "A2", "--bound", "1"]):
        assert_one_line_error(*run_cli(capsys, argv + ["--indicator", indicator]))


def test_unwritable_output_exits_one(capsys, tmp_path):
    target = tmp_path / "missing" / "out.csv"
    assert_one_line_error(*run_cli(capsys, ["bv-sum", "--x", "1000", "--Q", "5",
                                            "--output", str(target)]))
    assert not target.exists()


def test_missing_input_file_exits_one(capsys, tmp_path):
    missing = str(tmp_path / "absent.txt")
    assert_one_line_error(*run_cli(capsys, ["gamma-plus", "--set-a", missing,
                                            "--set-b", missing]))
    assert_one_line_error(*run_cli(capsys, ["delta", "--seq-file", missing,
                                            "--q", "3", "--a", "1"]))


def test_rng_seed_reproducible(capsys):
    argv = ["gamma-plus", "--n", "50", "--random-card", "8", "--rng-seed", "42"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2

    argv = ["ledger", "--n", "60", "--random-card", "10", "--rng-seed", "7"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_sieve_limit_too_small_exits_two(capsys):
    code, _, err = run_cli(capsys, ["gpf", "--n", "997", "--sieve-limit", "10"])
    assert code == 2
    assert err.startswith("error:")


# moduli beyond int64: each call must be refused by the parameter's name
_BEYOND_INT64 = [
    ["pi-ap", "--x", "100", "--q", "1e20", "--a", "3"],
    ["delta", "--indicator", "1,20", "--q", "1e20", "--a", "1"],
    ["cond-check", "--indicator", "1,20", "--condition", "A1", "--d", "1e20",
     "--k", "3", "--ell", "1"],
    ["cond-check", "--indicator", "1,20", "--condition", "A1", "--d", "2",
     "--k", "1e20", "--ell", "1"],
]


@pytest.mark.parametrize("argv", [
    ["gamma-plus", "--n", "100000000000000000000", "--dense"],
    ["gamma-plus", "--n", "1e20", "--random-card", "3"],
    ["gamma-plus", "--n", "1e5", "--dense"],  # 1e10 pairs
    ["ledger", "--n", "1e20", "--dense"],
    ["sqerr-check", "--n", "1e20", "--dense"],
    ["thm2-sum", "--n", "1e20", "--delta", "0.2", "--dense"],
    ["adversarial", "--n", "100000000000000000000", "--eps", "0.2"],
    _BEYOND_INT64[0],
    ["signed-sum", "--x", "1000", "--Q", "1e20"],
    ["bv-sum", "--x", "1000", "--Q", "1e20"],
    *_BEYOND_INT64[1:],
    # prime windows wider than the segment budget: refused before their mask
    ["thm2-sum", "--n", "1e6", "--delta", "0.2", "--dense"],
    ["thm1-sum", "--n", "1e6"],
    # one bincount per prime power up to N, one log per ledger pair
    ["sqerr-check", "--n", "1e6", "--random-card", "3"],
    ["sqerr-check", "--n", "1e8", "--random-card", "3"],
    ["ledger", "--n", "1e5", "--dense"],  # 1e10 pairs
    ["ledger", "--n", "1e6", "--random-card", "10"],
    ["ledger", "--n", "2e5", "--random-card", "10001"],  # 1.0002e8 pairs
])
def test_huge_sizes_exit_two(capsys, argv):
    # refused before any table is made; numpy could not even shape one this wide
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    if argv in _BEYOND_INT64:  # the line names the option, not numpy's C long
        assert f"needs {argv[argv.index('1e20') - 1][2:]} < 2**63" in err


def _no_fill(monkeypatch):
    """Make each table fill of the sieve raise."""
    from gpflab import _accel

    def no_fill(limit):
        raise AssertionError(f"table of {limit} filled before the refusal")

    monkeypatch.setattr(_accel, "prime_fill", no_fill)
    monkeypatch.setattr(_accel, "spf_fill", no_fill)


def test_gamma_plus_pair_budget_before_the_sieve(capsys, monkeypatch):
    _no_fill(monkeypatch)
    code, out, err = run_cli(capsys, ["gamma-plus", "--n", "3163", "--dense"])
    assert code == 2 and out == ""
    assert err == "error: gamma_plus budget is |A|*|B| <= 10000000, got 10004569\n"


@pytest.mark.parametrize("argv, err_line", [
    (["sqerr-check", "--n", "200001", "--random-card", "3"],
     "square_errors_check budget is N <= 200000, got 200001"),
    (["ledger", "--n", "200001", "--random-card", "3"],
     "square_errors_check budget is N <= 200000, got 200001"),
    (["ledger", "--n", "10001", "--dense"],
     "ledger_report budget is |A|*|B| <= 100000000, got 100020001"),
])
def test_sqerr_and_ledger_budgets_before_the_sieve(capsys, monkeypatch, argv, err_line):
    _no_fill(monkeypatch)
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {err_line}\n"


@pytest.mark.parametrize("argv, err_line", [
    # 0 is a value, not the option left out: the library refuses it
    *[([cmd, "--x", "2e4", "--Q", "0"], f"{what} needs Q >= 1")
      for cmd, what in (("bv-sum", "bv_sum"), ("signed-sum", "signed_sum"),
                        ("dyadic-sum", "dyadic_abs_sum"), ("thm4-sum", "theorem4_sum"),
                        ("lambda-ext", "lambda_extension_sum"))],
    (["gpf", "--n", "97", "--sieve-limit", "0"], "sieve limit must be at least 2"),
    (["gamma-plus", "--n", "50", "--random-card", "0"],
     "random cardinality must be in [1, N]"),
    (["pi-ap", "--x", "1e8", "--q", "0", "--a", "1"], "error_term needs q >= 1"),
    (["thm4-sum", "--x", "5e7", "--p1", "50", "--p2", "2"],
     "theorem4_sum needs 1 <= P1 <= P2"),
])
def test_refusal_fills_no_table(capsys, monkeypatch, argv, err_line):
    _no_fill(monkeypatch)
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "", f"error: {err_line}\n")


# outputs recorded with the spf table filled up front; a call that reads only
# the primes must give them without filling it
_PRIMES_ONLY = [
    (['bv-sum', '--x', '2e4', '--Q', '30'],
     '20000,30,323.017676767677,0.0161508838383838'),
    (['signed-sum', '--x', '2e4', '--Q', '30'],
     '20000,30,1,-102.562229437229,-0.00512811147186147'),
    (['dyadic-sum', '--x', '2e4', '--Q', '30', '--psi'],
     '20000,30,1,psi,634.586000106093,0.0317293000053046'),
    (['thm4-sum', '--x', '2e4'],
     '20000,4407,141.42135623731,20000,1,20866.3758538786,1.04331879269393,0.0984575593075198'),
    (['lambda-ext', '--x', '2e4', '--z', '2'],
     '20000,4407,141.42135623731,20000,1,2,14997.064110025,0.749853205501252'),
    (['smooth', '--x', '1e6', '--y', '2e3'],
     '1000000,2000,1.81761450452774,438600,402475.070440755,0.274582065937652'),
    (['ledger', '--n', '200', '--dense'],
     '200,200,200,345326.310903632,165687.292460266,179639.018443366,161533.815284643,'
     '4153.47717562326,193528.227544824,259617.550960854,1.84762296223303'),
    (['sqerr-check', '--n', '300', '--dense'],
     '300,300,468660.204998838,617719.642005267,true'),
    (['divisor-lhs', '--selector', 'rough-tau-hyperbola', '--x', '2e4', '--z', '5', '--j', '3'],
     'rough-tau-hyperbola,383295,4674676.94811158,0.0819939012373549'),
    (['divisor-lhs', '--selector', 'fourfold-glued', '--x', '2e4', '--y', '3', '--w', '2',
      '--z', '3', '--j1', '1', '--j2', '2', '--j3', '1', '--j4', '2'],
     'fourfold-glued,31246,872151084.63735,3.58263614531792e-05'),
    (['cond-check', '--indicator', '1000,1999', '--condition', 'A4', '--z', '7'],
     'A4,false,1000,1999,2000'),
    (['pi-ap', '--x', '2e4', '--q', '3', '--a', '1'],
     '20000,3,1,1124,10007.7764503341,-7'),
]


@pytest.mark.parametrize("argv, row", _PRIMES_ONLY)
def test_primes_only_calls_never_fill_spf(capsys, monkeypatch, argv, row):
    from gpflab import _accel

    def no_fill(limit):
        raise AssertionError(f"spf table of {limit} filled")

    monkeypatch.setattr(_accel, "spf_fill", no_fill)
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [row]


def test_exponent_form_size_answers_as_integer(capsys):
    _, out1, _ = run_cli(capsys, ["gamma-plus", "--n", "1e2", "--dense"])
    _, out2, _ = run_cli(capsys, ["gamma-plus", "--n", "100", "--dense"])
    assert out1 == out2 != ""


def test_random_card_validation(capsys):
    code, _, err = run_cli(capsys, ["gamma-plus", "--n", "10",
                                    "--random-card", "50"])
    assert code == 1
    assert "cardinality" in err


# ---------------------------------------------------------------------------
# the set sources: --dense, the set file(s), --random-card, read in that order

# command: (its other options, its set-file options); the files are a.txt and b.txt
_SET_COMMANDS = {
    "gamma-plus": ([], ["--set-a", "a.txt", "--set-b", "b.txt"]),
    "ledger": ([], ["--set-a", "a.txt", "--set-b", "b.txt"]),
    "thm2-sum": (["--delta", "0.2"], ["--set-b", "b.txt"]),
    "sqerr-check": ([], ["--set-file", "a.txt"]),
}
_SOURCES = {"dense": ["--dense"], "random": ["--random-card", "6", "--rng-seed", "7"]}
# the row of each command and source at --n 40, as the parent commit prints it
_SET_ROWS = {
    ("gamma-plus", "dense"): "1601,40,40",
    ("gamma-plus", "files"): "89,8,11",
    ("gamma-plus", "random"): "1327,34,39",
    ("ledger", "dense"): "40,40,40,8842.95377205297,4179.72823683294,4663.22553522003,"
                         "3826.54795914555,353.18027768739,5023.35858287156,"
                         "7525.31408639243,1.7900816483071",
    ("ledger", "files"): "40,5,4,54.677176970521,50.1885406007888,4.48863636973213,"
                         "50.1885406007888,0,162.1755889444,221.332767246836,"
                         "1.00760501330005",
    ("ledger", "random"): "40,6,6,215.863068229092,98.6280645677255,117.235003661367,"
                          "93.3969559508709,5.23110861685459,297.816391493019,"
                          "376.265704319621,1.13241939401885",
    ("thm2-sum", "dense"): "40,0.2,40,16",
    ("thm2-sum", "files"): "40,0.2,4,0",
    ("thm2-sum", "random"): "40,0.2,6,7",
    ("sqerr-check", "dense"): "40,40,5023.35858287156,7525.31408639243,true",
    ("sqerr-check", "files"): "40,5,201.706595956863,295.110356329115,true",
    ("sqerr-check", "random"): "40,6,269.923313852278,376.265704319621,true",
}


def _set_call(tmp_path, command, n, *sources):
    (tmp_path / "a.txt").write_text("# A\n1\n2\n3\n5\n8\n")
    (tmp_path / "b.txt").write_text("2\n3\n7\n11\n")
    options, files = _SET_COMMANDS[command]
    files = [str(tmp_path / f) if f.endswith(".txt") else f for f in files]
    argv = [command, "--n", str(n), *options]
    for source in sources:
        argv += files if source == "files" else _SOURCES[source]
    return argv


@pytest.mark.parametrize("command", _SET_COMMANDS)
@pytest.mark.parametrize("sources", [("dense",), ("files",), ("random",),
                                     ("files", "random"), ("random", "files")])
def test_set_sources_pinned(capsys, tmp_path, command, sources):
    # files and --random-card together: the files win
    code, out, err = run_cli(capsys, _set_call(tmp_path, command, 40, *sources))
    assert (code, err) == (0, "")
    source = "files" if "files" in sources else sources[0]
    assert out.splitlines()[1:] == [_SET_ROWS[command, source]]


@pytest.mark.parametrize("command", _SET_COMMANDS)
def test_set_file_value_above_n_exits_one(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, _set_call(tmp_path, command, 5, "files"))
    assert_one_line_error(code, out, err)
    assert "exceeds n_max 5" in err


_COMMON = {("--output", None, None, False), ("--format", None, "csv", False)}
# the commands that size a sieve, and the commands that draw random sets
_SIEVE = {("--sieve-limit", _parse_int, None, False)}
_RANDOM = {("--random-card", _parse_int, None, False), ("--rng-seed", _parse_int, 0, False)}
_PAIR_SOURCES = _SIEVE | _RANDOM | {
    ("--n", _parse_int, None, False), ("--dense", None, False, False),
    ("--set-a", None, None, False), ("--set-b", None, None, False)}
_WINDOW = {("--Q", _parse_int, None, False), ("--p1", _parse_float, None, False),
           ("--p2", _parse_float, None, False), ("--a", _parse_int, 1, False),
           ("--per-q", None, False, False)}
_SEQUENCE = {("--seq-file", None, None, False), ("--indicator", _bounds, None, False)}
# (option, type, default, required) of every subcommand beyond _COMMON: each
# option is declared only where the handler reads it
_INVENTORY = {
    "gpf": _SIEVE | {("--n", _int_list, None, True)},
    "gamma-plus": _PAIR_SOURCES,
    "lv-count": {("--n", _int_list, None, True)},
    "ford-ratio": {("--n-list", _int_list, None, True)},
    "smooth": _SIEVE | {("--x", _parse_x, None, True), ("--y", _parse_x, None, True)},
    "rho": {("--u", _parse_x, None, False), ("--u-list", _x_items, None, False)},
    "pi-ap": _SIEVE | {("--x", _parse_x, None, True), ("--q", _parse_int, None, True),
                       ("--a", _parse_int, None, True)},
    "bv-sum": _SIEVE | {("--x", _parse_x, None, False), ("--x-list", _x_items, None, False),
                        ("--Q", _parse_int, None, False), ("--per-q", None, False, False),
                        ("--threads", _threads, 1, False)},
    "signed-sum": _SIEVE | {("--x", _parse_x, None, True), ("--Q", _parse_int, None, False),
                            ("--a", _parse_int, 1, False), ("--per-q", None, False, False)},
    "dyadic-sum": _SIEVE | {("--x", _parse_x, None, True), ("--Q", _parse_int, None, False),
                            ("--a", _parse_int, 1, False), ("--psi", None, False, False),
                            ("--per-q", None, False, False)},
    "thm4-sum": _SIEVE | _WINDOW | {("--x", _parse_x, None, False),
                                    ("--x-list", _x_items, None, False)},
    "lambda-ext": _SIEVE | _WINDOW | {("--x", _parse_x, None, True),
                                      ("--z", _parse_float, None, False)},
    "hb-verify": _SIEVE | {("--n", _parse_int, None, True), ("--x", _parse_x, None, False),
                           ("--j", _parse_int, 3, False), ("--terms", None, False, False)},
    "delta": _SEQUENCE | {("--q", _parse_int, None, True), ("--a", _parse_int, None, True)},
    "cond-check": _SEQUENCE | {
        ("--condition", None, None, True), ("--d", _parse_int, None, False),
        ("--k", _parse_int, None, False), ("--ell", _parse_int, None, False),
        ("--bound", _parse_float, None, False), ("--x", _parse_x, None, False),
        ("--z", _parse_float, None, False)},
    "divisor-lhs": _SIEVE | {
        ("--selector", None, None, True), ("--x", _parse_x, None, False),
        ("--y", _parse_x, None, False), ("--z", _parse_float, None, False),
        ("--w", _parse_float, None, False), ("--j", _parse_int, None, False),
        ("--ell", _parse_int, None, False), ("--k", _parse_int, None, False),
        ("--s", _parse_int, None, False), ("--nu", _parse_int, None, False),
        *((f"--j{i}", _parse_int, None, False) for i in range(1, 7))},
    "adversarial": {("--n", _parse_int, None, True), ("--eps", _parse_float, None, True),
                    ("--write-a", None, None, False), ("--write-b", None, None, False)},
    "thm1-search": _SIEVE | {("--n", _parse_int, None, True), ("--lo", _parse_x, None, True),
                             ("--hi", _parse_x, None, True)},
    "thm1-sum": _SIEVE | {("--n", _parse_int, None, True),
                          ("--a-exp", _parse_float, 1.0, False)},
    "thm2-sum": _SIEVE | _RANDOM | {
        ("--n", _parse_int, None, True), ("--delta", _parse_float, None, True),
        ("--dense", None, False, False), ("--set-b", None, None, False)},
    "ledger": _PAIR_SOURCES,
    "sqerr-check": _SIEVE | _RANDOM | {
        ("--n", _parse_int, None, True), ("--dense", None, False, False),
        ("--set-file", None, None, False)},
}


def test_option_inventory():
    # no option added or lost, none retyped; only the order in --help may move
    sub = next(a for a in build_parser()._actions if isinstance(a.choices, dict))
    assert sorted(sub.choices) == sorted(_INVENTORY)
    for name, sp in sub.choices.items():
        got = {(a.option_strings[0], a.type, a.default, a.required)
               for a in sp._actions if a.dest != "help"}
        assert got == _COMMON | _INVENTORY[name], name


# ---------------------------------------------------------------------------
# every public library function, and every field of a result dataclass, has a
# reader: a subcommand, the benchmark or an acceptance criterion.
# Reachability is by name references in the source, read with ast; nothing
# here imports the benchmark

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LIBRARY = ("sieve", "_accel", "ap", "shifted", "products", "sequences", "smooth")


def _source(*parts):
    with open(os.path.join(_REPO, *parts), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _gpflab_aliases(tree) -> dict:
    """Each name a file binds by importing gpflab, as a path below the
    package: ``from .sieve import f`` binds f to "sieve.f", ``from gpflab
    import ap`` binds ap to "ap", ``import gpflab.cli`` binds gpflab to ""."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "gpflab":
                    out[a.asname or "gpflab"] = a.name[7:] if a.asname else ""
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if not node.level:
                if base.split(".")[0] != "gpflab":
                    continue
                base = base[7:]
            for a in node.names:
                out[a.asname or a.name] = f"{base}.{a.name}".lstrip(".")
    return out


def _symbol(node, aliases, module=None, local=()):
    """The (module, name) that ``node`` names, or None: a name of ``module``
    defined at its top level in ``local``, a name imported from gpflab, or
    an attribute chain such as ``ap.bv_sum`` or ``gpflab._accel.backend``."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.insert(0, node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    if node.id in local:
        return module, node.id
    if node.id not in aliases:
        return None
    path = [p for p in aliases[node.id].split(".") + chain if p]
    return (path[0], path[1]) if len(path) >= 2 else None


def _reads(node, aliases, module=None, local=()) -> set:
    """The (module, name) pairs a piece of source names (see ``_symbol``)."""
    return {key for sub in ast.walk(node) if (key := _symbol(sub, aliases, module, local))}


def _library() -> dict:
    """Per library module: its aliases and its top-level definitions by name."""
    out = {}
    for module in _LIBRARY:
        tree = _source("src", "gpflab", f"{module}.py")
        names = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    if isinstance(target, ast.Name):
                        names[target.id] = stmt
        out[module] = _gpflab_aliases(tree), names
    return out


def _readers() -> list:
    """(tree, aliases) of the files that read the library: cli.py, the
    benchmark harness and the acceptance criteria."""
    paths = [("src", "gpflab", "cli.py"), ("tests", "test_acceptance.py")]
    paths += [("benchmark", f) for f in sorted(os.listdir(os.path.join(_REPO, "benchmark")))
              if f.endswith(".py")]
    return [(tree, _gpflab_aliases(tree)) for tree in (_source(*p) for p in paths)]


def _reachable(lib) -> set:
    """The (module, name) definitions reachable from cli.py,
    benchmark/child.py, tests/test_acceptance.py and the per_layer names."""
    edges = {(module, name): _reads(stmt, aliases, module, names)
             for module, (aliases, names) in lib.items() for name, stmt in names.items()}
    roots = set()
    for parts in (("src", "gpflab", "cli.py"), ("benchmark", "child.py"),
                  ("tests", "test_acceptance.py")):
        tree = _source(*parts)
        roots |= _reads(tree, _gpflab_aliases(tree))
    with open(os.path.join(_REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        for metric in json.load(fh)["per_layer"]:  # <layer>.<function>.<what>
            layer, *rest = metric["name"].split(".")
            if len(rest) == 2:
                roots.add(("_accel" if layer == "accel" else layer, rest[0]))
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in edges and key not in seen:
            seen.add(key)
            todo.extend(edges[key])
    return seen


def _unread_library_functions() -> list[str]:
    lib = _library()
    seen = _reachable(lib)
    return [f"{module}.{name}" for module, (_, names) in lib.items()
            for name, stmt in names.items()
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not name.startswith("_") and (module, name) not in seen]


def _field_reads(node, aliases, classes, returns, module=None, local=()) -> set:
    """The (class, field) pairs of the result dataclasses that ``node`` reads.

    ``value.f`` reads f of value's class when that is known: a call whose
    return annotation names the class, or a name annotated with it or bound
    to such a call in the same function.  Of a value of unknown class it
    reads f only when no other result class has a field f.  ``vars(value)``
    reads every field of value's class."""
    def class_of(expr, bound):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Call):
            return returns.get(_symbol(expr.func, aliases, module, local))
        return None

    def typed(annotation):
        key = _symbol(annotation, aliases, module, local)
        return key if key in classes else None

    out = set()
    functions = [n for n in ast.walk(node) if isinstance(n, ast.FunctionDef)]
    for scope in dict.fromkeys([node, *functions]):  # node may be a function
        bound = {}
        if isinstance(scope, ast.FunctionDef):
            for arg in scope.args.args + scope.args.kwonlyargs:
                if arg.annotation is not None and (cls := typed(arg.annotation)):
                    bound[arg.arg] = cls
            for sub in ast.walk(scope):
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    if cls := typed(sub.annotation):
                        bound[sub.target.id] = cls
                elif (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                      and isinstance(sub.targets[0], ast.Name)):
                    if cls := class_of(sub.value, bound):
                        bound[sub.targets[0].id] = cls
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Attribute):
                cls = class_of(sub.value, bound)
                owners = [cls] if cls else [c for c, fs in classes.items() if sub.attr in fs]
                if len(owners) == 1 and sub.attr in classes[owners[0]]:
                    out.add((owners[0], sub.attr))
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                  and sub.func.id == "vars" and len(sub.args) == 1):
                if cls := class_of(sub.args[0], bound):
                    out |= {(cls, field) for field in classes[cls]}
    return out


def _unread_result_fields() -> list[str]:
    lib = _library()
    classes = {(module, name): [s.target.id for s in stmt.body
                                if isinstance(s, ast.AnnAssign)]
               for module, (_, names) in lib.items() for name, stmt in names.items()
               if isinstance(stmt, ast.ClassDef)
               and any("dataclass" in ast.unparse(d) for d in stmt.decorator_list)}
    returns = dict(zip(classes, classes))  # a class call makes one of its own
    for module, (aliases, names) in lib.items():
        for name, stmt in names.items():
            if isinstance(stmt, ast.FunctionDef) and stmt.returns is not None:
                key = _symbol(stmt.returns, aliases, module, names)
                if key in classes:
                    returns[module, name] = key
    read = set()
    for tree, aliases in _readers():
        read |= _field_reads(tree, aliases, classes, returns)
    for module, name in _reachable(lib):
        aliases, names = lib[module]
        read |= _field_reads(names[name], aliases, classes, returns, module, names)
    return [f"{module}.{cls}.{field}" for (module, cls), fields in classes.items()
            for field in fields if ((module, cls), field) not in read]


def test_every_public_library_function_has_a_reader():
    assert _unread_library_functions() == []
    assert _unread_result_fields() == []


def test_adversarial_huge_n_exits_two_at_once():
    # ceil(0.5 / eps) ~ 5e299: float steps of the candidate search could not move it
    proc = subprocess.run([sys.executable, "-m", "gpflab.cli", "adversarial",
                           "--n", "1e300", "--eps", "1e-300"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# the CLI contract under fuzzing: every subcommand, every option of it, tiny
# sizes and malformed values.  Sizes stay at or below 1e3 and --eps at or above
# 1e-6, so that no call allocates more than a few MB or runs for long.

_VALUES = {  # (well-formed, malformed or out-of-range) values by option type
    _parse_int: (["0", "1", "2", "3", "7", "30", "1e2", "-3"],
                 ["-1e5", "1.9", "abc", "", "nan", "1e20"]),
    _parse_x: (["0", "1", "2.5", "10", "97", "1e3", "-5"],
               ["-1e5", "1.9e", "nan", "inf", "abc", ""]),
    _parse_float: (["0", "1e-6", "0.2", "0.5", "1", "3", "40", "-1", "inf"],
                   ["nan", "abc", ""]),
    _int_list: (["12", "1,97", "1e2,5", "300", "0"], ["", ",", "3,x", "1.9", "-1e5"]),
    _x_items: (["1,2.5", "500,1000", "7"], ["", ",", "1,nan", "inf", "abc"]),
    _bounds: (["1,20", "1,1e2", "3,1"], ["5", "1,x", "1,2,3", ""]),
    _threads: (["1", "2", "64"], ["0", "abc"]),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in (("set.txt", "1\n2\n3\n5\n8\n"), ("seq.txt", "3 1.5\n4 -0.5\n7 2\n"),
                       ("bad_set.txt", "3\n2\n"), ("bad_seq.txt", "3 x\n"),
                       ("nan_seq.txt", "3 nan\n")):
        (d / name).write_text(text)
    inputs = ([str(d / "set.txt"), str(d / "seq.txt")],
              [str(d / "bad_set.txt"), str(d / "bad_seq.txt"), str(d / "nan_seq.txt"),
               str(d / "absent.txt")])
    outputs = ([str(d / "out.txt")], [str(d / "missing" / "out.txt")])
    return inputs, outputs


def _option_values(action, files):
    if action.choices:
        return list(action.choices), ["A5"]
    if action.type is None:  # a path
        return files[1] if action.dest in ("output", "write_a", "write_b") else files[0]
    return _VALUES.get(action.type, _VALUES[_parse_int])  # --rng-seed


def _cli_call(rnd, files):
    name = rnd.choice(ALL_COMMANDS)
    sub = next(a for a in build_parser()._actions if isinstance(a.choices, dict))
    options = [a for a in sub.choices[name]._actions if a.dest != "help"]
    argv = [name]
    for action in options:
        # required options mostly present, so that many calls get to the handler
        if rnd.random() < (0.9 if action.required else 0.3):
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                good, bad = _option_values(action, files)
                argv.append(rnd.choice(bad if rnd.random() < 0.125 else good))
    extra = rnd.choice([None] * 12 + ["--bogus", "--help", "stray"])
    if extra:
        argv.insert(rnd.randint(1, len(argv)), extra)
    if rnd.random() < 0.05:  # an option left without its value
        argv.append(rnd.choice(options).option_strings[0])
    if rnd.random() < 0.9:
        return argv, False
    # a unique prefix of an option, or an option given twice: refused
    action = rnd.choice(options)
    flag = action.option_strings[0]
    value = [] if action.nargs == 0 else [rnd.choice(_option_values(action, files)[0])]
    known = sub.choices[name]._option_string_actions
    prefixes = [flag[:k] for k in range(3, len(flag))
                if sum(s.startswith(flag[:k]) for s in known) == 1]
    if prefixes and rnd.random() < 0.5:
        return argv + [rnd.choice(prefixes)] + value, True
    return argv + [flag] + value + [flag] + value, True


def _parses(text, fmt):
    if fmt == "json":
        rows = json.loads(text)
        return isinstance(rows, list) and all(isinstance(r, dict) for r in rows)
    rows = list(csv.reader(io.StringIO(text)))
    return bool(rows) and all(len(r) == len(rows[0]) for r in rows)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64))
def test_fuzzed_calls_keep_the_contract(fuzz_files, seed):
    # hypothesis draws favour boundary values; a seeded stream spreads the calls
    argv, refused = _cli_call(random.Random(seed), fuzz_files)
    note(f"argv: {argv}")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 0 and "--help" in argv
        return
    assert code == 1 if refused else code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        return
    assert err.getvalue() == ""
    fmt = argv[len(argv) - argv[::-1].index("--format")] if "--format" in argv else "csv"
    if "--output" in argv:
        assert out.getvalue() == ""
        with open(argv[argv.index("--output") + 1], encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = out.getvalue()
    assert _parses(text, fmt), text

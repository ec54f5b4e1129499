"""End-to-end checks of the command line interface.

Every invocation goes through cli.main(argv) in-process.  Rows are compared
against direct library calls; the CLI's job is wiring, parsing, and output
formatting, so the math itself is only spot-checked here.
"""

import contextlib
import csv
import io
import json
import math
import os
import random
import time

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
    assert float(rows[1]["ratio"]) == pytest.approx(shifted.ford_ratio(100))


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


def test_pi_ap_row(capsys):
    code, out, _ = run_cli(capsys, ["pi-ap", "--x", "100", "--q", "4", "--a", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "q", "a", "pi_count", "psi_weight", "error"]
    sieve = build_sieve(100)
    assert int(rows[0]["pi_count"]) == ap.pi_ap(100.0, 4, 3, sieve)
    assert float(rows[0]["error"]) == pytest.approx(
        ap.error_term(100.0, 4, 3, sieve))


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


def test_hb_verify_matches_von_mangoldt(capsys):
    code, out, _ = run_cli(capsys, ["hb-verify", "--n", "64", "--j", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "x", "J", "total", "von_mangoldt", "abs_error"]
    assert float(rows[0]["abs_error"]) < 1e-9
    assert float(rows[0]["von_mangoldt"]) == pytest.approx(math.log(2))


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


def test_divisor_lhs_missing_param(capsys):
    code, _, err = run_cli(capsys, ["divisor-lhs", "--selector", "rough-tau",
                                    "--x", "300"])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["--selector", "fourfold-glued", "--x", "1e7"],
    ["--selector", "sfold-glued", "--x", "1e7", "--y", "2", "--z", "3",
     "--w", "1", "--s", "5"],
    ["--selector", "sfold-ordered", "--x", "1e7", "--s", "7"],
])
def test_divisor_lhs_checks_parameters_before_the_sieve(capsys, monkeypatch, argv):
    from gpflab import cli

    def no_sieve(limit):
        raise AssertionError(f"sieve of {limit} built before the parameter check")

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    code, out, err = run_cli(capsys, ["divisor-lhs", *argv])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


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

    base = ["thm4-sum", "--x", "2000", "--Q", "4", "--p1", "3", "--p2", "50"]
    _, out1, _ = run_cli(capsys, base + ["--threads", "1"])
    _, out3, _ = run_cli(capsys, base + ["--threads", "3"])
    assert out1 == out3


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
        return ap.DiscrepancyReport(x, "bv_max", "", None, [], 0.0, 0.0)

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


@pytest.mark.parametrize("argv", [
    ["gamma-plus", "--n", "100000000000000000000", "--dense"],
    ["gamma-plus", "--n", "1e20", "--random-card", "3"],
    ["ledger", "--n", "1e20", "--dense"],
    ["sqerr-check", "--n", "1e20", "--dense"],
    ["thm2-sum", "--n", "1e20", "--delta", "0.2", "--dense"],
    ["adversarial", "--n", "100000000000000000000", "--eps", "0.2"],
    ["pi-ap", "--x", "100", "--q", "1e20", "--a", "3"],
    ["signed-sum", "--x", "1000", "--Q", "1e20"],
    ["bv-sum", "--x", "1000", "--Q", "1e20"],
])
def test_huge_sizes_exit_two(capsys, argv):
    # refused before any table is made; numpy could not even shape one this wide
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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
                       ("bad_set.txt", "3\n2\n"), ("bad_seq.txt", "3 x\n")):
        (d / name).write_text(text)
    inputs = ([str(d / "set.txt"), str(d / "seq.txt")],
              [str(d / "bad_set.txt"), str(d / "bad_seq.txt"), str(d / "absent.txt")])
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
    return argv


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
    argv = _cli_call(random.Random(seed), fuzz_files)
    note(f"argv: {argv}")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 0 and "--help" in argv
        return
    assert code in (0, 1, 2)
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

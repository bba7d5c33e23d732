"""End-to-end CLI behavior through main(argv)."""

import json
import tracemalloc

from critnum import ConstructionInvariantViolated, GroupType, best_interval_bound, hfold_witness, parse_group
from critnum import cli
from critnum.cli import main

CSV_HEADER = "group,n,quantity,param,formula,oracle,witness_ok,branch"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formula_order_sweep_collapses_to_one_row_per_order(capsys):
    code, out, err = run(capsys, "formula", "--quantity", "chi_h", "--order", "2..12", "--h", "2")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 12  # header + 11 orders
    row10 = next(line for line in lines if line.startswith("10 "))
    fields = row10.split()
    assert fields[:5] == ["10", "10", "chi_h", "2", "6"]


def test_formula_cr_rows(capsys):
    code, out, err = run(capsys, "formula", "--quantity", "cr", "--group", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    star = lines[1].split()
    full = lines[2].split()
    assert star[2:5] == ["cr_star", "6", "sqrt"] or star[2:6] == ["cr_star", "", "6", "sqrt"]
    assert full[2] == "cr"


def test_formula_interval3_sweep_skips_small_orders(capsys):
    code, out, _ = run(capsys, "formula", "--quantity", "chi_hat_interval3", "--order", "3..6")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert [line.split()[0] for line in lines] == ["5", "6"]


def test_formula_two_group_sweep(capsys):
    code, out, _ = run(capsys, "formula", "--quantity", "chi_hat_2group", "--order", "4..8", "--s", "2")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 2
    assert lines[0].split()[:5] == ["2,2", "4", "chi_hat_2group", "2", "1"]
    assert lines[1].split()[:5] == ["2,2,2", "8", "chi_hat_2group", "2", "5"]


def test_invalid_group_literal(capsys):
    code, out, err = run(capsys, "formula", "--quantity", "chi_h", "--group", "0", "--h", "2")
    assert code == 2
    assert err.startswith("InvalidOrder:")


def test_missing_required_param(capsys):
    code, _, err = run(capsys, "verify", "--quantity", "chi_h", "--order", "5")
    assert code == 2
    assert "requires --h" in err


def test_wrong_param_rejected(capsys):
    code, _, err = run(capsys, "formula", "--quantity", "chi_h", "--order", "5", "--h", "2", "--s", "1")
    assert code == 2
    assert "usage error" in err
    code, _, err = run(capsys, "formula", "--quantity", "cr", "--order", "10..12", "--h", "2")
    assert code == 2


def test_no_groups_selected(capsys):
    code, _, err = run(capsys, "formula", "--quantity", "chi_h", "--h", "2")
    assert code == 2
    assert "no groups selected" in err


def test_wrong_group_class_explicit(capsys):
    code, _, err = run(capsys, "verify", "--quantity", "chi_hat_cyclic", "--group", "2,2", "--s", "2")
    assert code == 2
    assert err.startswith("WrongGroupClass:")


def test_sumfree_rejects_noncyclic(capsys):
    code, _, err = run(capsys, "sumfree", "--group", "2,2")
    assert code == 2
    assert "cyclic" in err


def test_verify_small_sweep_csv(capsys):
    code, out, err = run(
        capsys, "verify", "--quantity", "chi_hat_h", "--max-order", "8", "--h", "1..2", "--format", "csv"
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    # 10 types up to order 8, two fold counts each
    assert len(lines) == 1 + 10 * 2
    assert any(line.startswith('"2,4",8,chi_hat_h,') for line in lines)
    # witness_ok is the second-to-last column; nothing after the group
    # cell contains a comma, so counting from the end is quote-safe
    for line in lines[1:]:
        assert line.split(",")[-2] == "true"


def test_verify_output_is_byte_stable(capsys):
    args = ("sumfree", "--order", "2..10", "--format", "csv")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[4] == cells[5]  # formula column equals oracle column


def test_verify_cr_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--quantity", "cr", "--orders", "10..11", "--format", "text")
    assert code == 0
    assert "verified 4 rows: all agree" in out


def test_verify_interval3_reports_small_orders(capsys):
    code, out, _ = run(
        capsys, "verify", "--quantity", "chi_hat_interval3", "--order", "3..5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 3
    assert "excluded:n<=4;match=false" in lines[0]  # Z3: piecewise 2 vs brute 1
    assert "excluded:n<=4;match=false" in lines[1]  # Z4: piecewise 2 vs brute 1
    assert lines[2].split(",")[:6] == ["5", "5", "chi_hat_interval3", "3", "3", "3"]


def test_verify_json_payload(capsys):
    code, out, _ = run(
        capsys, "verify", "--quantity", "chi_h", "--order", "6..8", "--h", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert payload["mismatches"] == 0
    assert len(payload["rows"]) == 5  # types of orders 6, 7, 8
    for row in payload["rows"]:
        assert row["oracle"] == row["formula"]
        assert row["witness_ok"] is True


def test_verify_workers_flag(capsys):
    code, out, _ = run(
        capsys, "verify", "--quantity", "chi_h", "--group", "16", "--h", "2", "--workers", "2",
        "--format", "csv",
    )
    assert code == 0
    line = out.strip().splitlines()[1]
    assert line.split(",")[4] == line.split(",")[5] == "9"


def test_verify_rejects_nonpositive_workers(capsys):
    for command in ("verify", "sumfree"):
        argv = [command, "--group", "6", "--workers", "0"]
        if command == "verify":
            argv += ["--quantity", "chi_h", "--h", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "usage error: --workers must be at least 1" in err


def test_verify_reports_a_failing_certificate(capsys, monkeypatch):
    def broken(group, h):
        raise ConstructionInvariantViolated("broken builder")

    monkeypatch.setattr(cli, "hfold_witness", broken)
    code, out, err = run(capsys, "verify", "--quantity", "chi_h", "--group", "8", "--h", "2")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[1].split()[:7] == ["8", "8", "chi_h", "2", "5", "5", "false"]
    assert "MISMATCH group=8 quantity=chi_h param=2 formula=5 oracle=5 witness_ok=False" in lines
    assert lines[-1] == "verified 1 rows: 1 mismatches"


def test_budget_refusal_and_ack(capsys):
    code, out, err = run(capsys, "verify", "--quantity", "chi_h", "--orders", "17..18", "--h", "1")
    assert code == 2
    assert "BudgetExceeded" in err
    code, out, err = run(
        capsys, "verify", "--quantity", "chi_h", "--orders", "17..18", "--h", "1", "--budget-ack"
    )
    assert code == 0
    assert "all agree" in out


def test_aborted_verify_claims_no_verdict(capsys, monkeypatch):
    # rows checked before the refusal are counted, and no "all agree" is printed
    code, out, err = run(capsys, "verify", "--quantity", "chi_h", "--orders", "15..17", "--h", "1")
    assert code == 2 and "BudgetExceeded" in err
    assert "all agree" not in out
    assert out.splitlines()[-1] == "incomplete: 6 rows verified, 0 mismatches"

    def broken(group, h):
        raise ConstructionInvariantViolated("broken builder")

    monkeypatch.setattr(cli, "hfold_witness", broken)
    code, out, err = run(capsys, "verify", "--quantity", "chi_h", "--group", "8", "--group", "17", "--h", "2")
    assert code == 2 and "BudgetExceeded" in err
    lines = out.splitlines()
    assert "MISMATCH group=8 quantity=chi_h param=2 formula=5 oracle=5 witness_ok=False" in lines
    assert lines[-1] == "incomplete: 1 rows verified, 1 mismatches"
    code, out, _ = run(capsys, "verify", "--quantity", "chi_h", "--group", "8", "--group", "17", "--h", "2",
                       "--format", "json")
    payload = json.loads(out)
    assert code == 2 and payload["complete"] is False and payload["mismatches"] == 1


def test_budget_refusal_builds_no_later_order(capsys, monkeypatch):
    # the sweep stops at the first group the budget refuses (order 17), so
    # a far larger --max-order or --order range builds nothing past it and
    # prints the same
    built = []

    def counted(n):
        built.append(n)
        return types(n)

    types = cli.abelian_types
    monkeypatch.setattr(cli, "abelian_types", counted)
    argv = ["verify", "--quantity", "chi_h", "--h", "2", "--max-order"]
    want = run(capsys, *argv, "17")
    assert want[0] == 2 and "BudgetExceeded" in want[2]
    assert want[1].splitlines()[-1] == "incomplete: 24 rows verified, 0 mismatches"
    built.clear()
    assert run(capsys, *argv, "10000") == want
    assert max(built) == 17
    # an order range stays a range, so its length costs no memory
    built.clear()
    tracemalloc.start()
    try:
        assert run(capsys, *argv[:-1], "--order", "2..2000000") == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(built) == 17 and peak < 5 * 2**20


def test_env_budget_cap(capsys, monkeypatch):
    monkeypatch.setenv("CRITNUM_MAX_N", "10")
    code, _, err = run(capsys, "verify", "--quantity", "chi_h", "--group", "12", "--h", "2")
    assert code == 2
    assert "BudgetExceeded" in err
    monkeypatch.setenv("CRITNUM_MAX_N", "not-a-number")
    code, _, err = run(capsys, "verify", "--quantity", "chi_h", "--group", "6", "--h", "2")
    assert code == 2
    assert "usage error" in err


def test_witness_json_matches_library(capsys):
    code, out, err = run(capsys, "witness", "--group", "2,4", "--h", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload == hfold_witness(parse_group("2,4"), 3).to_json_dict()
    assert payload["size"] == 4
    assert len(payload["elements"]) == 4


def test_witness_interval_mode(capsys):
    code, out, _ = run(capsys, "witness", "--group", "10", "--s", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "interval"
    assert [0] in payload["elements"]


def test_witness_param_exclusivity(capsys):
    code, _, err = run(capsys, "witness", "--group", "10", "--h", "2", "--s", "2")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run(capsys, "witness", "--group", "10")
    assert code == 2


def test_bound_json_matches_library(capsys):
    code, out, _ = run(capsys, "bound", "--group", "2,2,2,2", "--s", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == best_interval_bound(GroupType((2, 2, 2, 2)), 2).to_json_dict()
    assert payload["bound"] == 9
    assert payload["quotient_type"] == [2, 2, 2]


def test_unknown_flag_exits_2(capsys):
    assert main(["verify", "--quantity", "chi_h", "--h", "2", "--definitely-not-a-flag"]) == 2
    capsys.readouterr()


def test_text_format_mismatch_footer_absent_on_formula(capsys):
    code, out, _ = run(capsys, "formula", "--quantity", "sumfree", "--order", "9..10")
    assert code == 0
    assert "verified" not in out
    lines = out.strip().splitlines()
    assert lines[1].split()[:5] == ["9", "9", "sumfree", "3", "floor"]
    assert lines[2].split()[:5] == ["10", "10", "sumfree", "5", "p=2"]

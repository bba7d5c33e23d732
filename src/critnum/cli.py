"""Command-line front end: formula tables, oracle cross-checks, certificates.

Subcommands:
  formula  closed-form values only, one row per (group, parameter)
  verify   formula vs exact oracle vs witness status, exit 0 iff all agree
  witness  a single extremal-set certificate as JSON
  bound    the best coset lower-bound certificate as JSON
  sumfree  closed-form maximum sum-free size vs backtracking search

Tables carry a fixed column set (group, n, quantity, param, formula,
oracle, witness_ok, branch) in all three formats, and rows are emitted in
a deterministic order, so output is byte-stable for a fixed invocation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .errors import BudgetExceeded, CritnumError, InvalidOrder, WrongGroupClass
from .formulas import (
    CriticalKind,
    critical_number,
    generating_critical_number,
    generating_interval_critical_cyclic,
    generating_interval_critical_s3,
    generating_interval_critical_two_group,
    generating_interval_cyclic_divisors,
    interval3_branch_divisor,
    interval3_piecewise_value,
    interval_critical_number,
    max_incomplete_divisors,
    max_sumfree_size,
    subset_sum_critical_pair,
    subset_sum_uses_sqrt_branch,
    sumfree_branch_prime,
)
from .groups import GroupType, abelian_types, cyclic, parse_group
from .oracle import (
    DEFAULT_QUERY_BUDGET,
    DEFAULT_SWEEP_BUDGET,
    OracleQuery,
    brute_critical,
    brute_max_sumfree,
)
from .witnesses import best_interval_bound, hfold_witness, interval_witness

QUANTITIES = (
    "chi_h",
    "chi_interval",
    "chi_hat_h",
    "chi_hat_cyclic",
    "chi_hat_2group",
    "chi_hat_interval3",
    "cr",
    "sumfree",
    "prop_bound",
)

# Quantities whose closed form depends only on the order; a bare order
# range in the formula command collapses these to one row per order.
ORDER_ONLY = {"chi_h", "chi_interval", "chi_hat_h", "chi_hat_cyclic", "sumfree"}

NEEDS_H = {"chi_h", "chi_hat_h"}
NEEDS_S = {"chi_interval", "chi_hat_cyclic", "chi_hat_2group", "prop_bound"}

CSV_COLUMNS = ("group", "n", "quantity", "param", "formula", "oracle", "witness_ok", "branch")


class UsageError(Exception):
    """Bad flag combination or unparsable flag value."""


def _parse_span(text: str, flag: str) -> list[int]:
    """Parse "N" or "lo..hi" into a list of integers."""
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise UsageError(f"{flag} range {text!r} is not of the form lo..hi") from None
        if lo > hi:
            raise UsageError(f"{flag} range {text!r} is empty")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise UsageError(f"{flag} value {text!r} is not an integer") from None


def _applicable(quantity: str, group: GroupType) -> bool:
    """Whether a swept group participates in the given quantity at all."""
    if quantity in ("chi_hat_cyclic", "sumfree"):
        return group.is_cyclic
    if quantity == "chi_hat_2group":
        return group.is_elementary_two
    if quantity == "chi_hat_interval3":
        return not group.is_elementary_two
    if quantity == "cr":
        return group.order >= 10
    return True


def _gather_groups(args, quantity: str, command: str) -> list[GroupType]:
    """Resolve --group/--order/--max-order into a sorted, deduplicated list.

    Swept groups (from order ranges) are filtered by quantity applicability;
    explicitly named groups are kept as-is so domain errors surface verbatim.
    """
    explicit = [parse_group(text) for text in (args.group or [])]
    orders: list[int] = []
    if getattr(args, "order", None):
        orders.extend(_parse_span(args.order, "--order"))
    if getattr(args, "max_order", None) is not None:
        if args.max_order < 2:
            raise InvalidOrder(f"--max-order must be at least 2, got {args.max_order}")
        orders.extend(range(2, args.max_order + 1))
    swept: list[GroupType] = []
    per_order = command == "formula" and quantity in ORDER_ONLY
    for n in orders:
        if per_order:
            swept.append(cyclic(n))
        else:
            swept.extend(g for g in abelian_types(n) if _applicable(quantity, g))
    if command == "formula" and quantity == "chi_hat_interval3":
        # The interval-3 closed form is only asserted from order 5 up;
        # formula sweeps skip the smaller orders, verify reports them.
        swept = [g for g in swept if g.order >= 5]
    if quantity == "sumfree":
        for g in explicit:
            if not g.is_cyclic:
                raise UsageError(f"sum-free search is defined on cyclic groups, got {g}")
    merged = {g.factors: g for g in explicit + swept}
    groups = sorted(merged.values(), key=lambda g: (g.order, g.factors))
    if not groups:
        raise UsageError("no groups selected; pass --group, --order, or --max-order")
    return groups


def _resolve_params(args, quantity: str) -> list[int | None]:
    h = getattr(args, "h", None)
    s = getattr(args, "s", None)
    if quantity in NEEDS_H:
        if s is not None:
            raise UsageError(f"--s does not apply to quantity {quantity}")
        if h is None:
            raise UsageError(f"quantity {quantity} requires --h")
        return list(_parse_span(h, "--h"))
    if quantity in NEEDS_S:
        if h is not None:
            raise UsageError(f"--h does not apply to quantity {quantity}")
        if s is None:
            raise UsageError(f"quantity {quantity} requires --s")
        return list(_parse_span(s, "--s"))
    if h is not None or s is not None:
        raise UsageError(f"quantity {quantity} takes no --h/--s parameter")
    return [None]


def _resolve_budget(groups: list[GroupType], ack: bool) -> int:
    budget = DEFAULT_QUERY_BUDGET if len(groups) == 1 else DEFAULT_SWEEP_BUDGET
    if ack:
        budget = max(budget, max(g.order for g in groups))
    cap = os.environ.get("CRITNUM_MAX_N")
    if cap is not None:
        try:
            budget = min(budget, int(cap))
        except ValueError:
            raise UsageError(f"CRITNUM_MAX_N must be an integer, got {cap!r}") from None
    return budget


def _try_witness(builder, *wargs) -> bool:
    # Builders are fail-closed: any verification failure raises.
    try:
        builder(*wargs)
        return True
    except CritnumError:
        return False


def _new_row(group: GroupType, quantity: str, param, formula) -> dict:
    return {
        "group": str(group),
        "n": group.order,
        "quantity": quantity,
        "param": param,
        "formula": formula,
        "oracle": None,
        "witness_ok": None,
        "branch": None,
    }


def _quantity_rows(quantity, group, param, oracle_opts, swept):
    """Rows for one (group, parameter) pair.

    oracle_opts is None for formula-only commands, else (budget, workers).
    Returns a list of (row, agree) with agree True/False/None; None marks
    report-only rows that never count toward the exit code.
    """
    n = group.order
    if quantity in ("chi_h", "chi_interval", "chi_hat_h"):
        if quantity == "chi_h":
            value = critical_number(n, param)
        elif quantity == "chi_interval":
            value = interval_critical_number(n, param)
        else:
            value = generating_critical_number(n, param)
        _, maxers = max_incomplete_divisors(n, param)
        row = _new_row(group, quantity, param, value)
        row["branch"] = "d=" + "|".join(str(d) for d in maxers)
        agree = None
        if oracle_opts:
            budget, workers = oracle_opts
            tag = "chi_interval" if quantity == "chi_interval" else quantity
            kind = CriticalKind(tag, param)
            row["oracle"] = brute_critical(OracleQuery(group, kind), budget=budget, workers=workers)
            if quantity == "chi_interval":
                row["witness_ok"] = _try_witness(interval_witness, group, param)
            else:
                row["witness_ok"] = _try_witness(hfold_witness, group, param)
            agree = row["oracle"] == value and row["witness_ok"]
        return [(row, agree)]

    if quantity == "chi_hat_cyclic":
        if not group.is_cyclic:
            raise WrongGroupClass(f"chi_hat_cyclic applies to cyclic groups, got {group}")
        value = generating_interval_critical_cyclic(n, param)
        _, ds = generating_interval_cyclic_divisors(n, param)
        row = _new_row(group, quantity, param, value)
        row["branch"] = "n<=s+1" if not ds else "d=" + "|".join(str(d) for d in ds)
        agree = None
        if oracle_opts:
            budget, workers = oracle_opts
            kind = CriticalKind("chi_hat_interval", param)
            row["oracle"] = brute_critical(OracleQuery(group, kind), budget=budget, workers=workers)
            row["witness_ok"] = _try_witness(
                lambda g, s: _require(best_interval_bound(g, s).bound == value), group, param
            )
            agree = row["oracle"] == value and row["witness_ok"]
        return [(row, agree)]

    if quantity == "chi_hat_2group":
        if not group.is_elementary_two:
            raise WrongGroupClass(f"chi_hat_2group applies to groups of exponent 2, got {group}")
        value = generating_interval_critical_two_group(group.rank, param)
        row = _new_row(group, quantity, param, value)
        row["branch"] = "r<=s" if group.rank <= param else f"r={group.rank}"
        agree = None
        if oracle_opts:
            budget, workers = oracle_opts
            kind = CriticalKind("chi_hat_interval", param)
            row["oracle"] = brute_critical(OracleQuery(group, kind), budget=budget, workers=workers)
            row["witness_ok"] = _try_witness(
                lambda g, s: _require(best_interval_bound(g, s).bound == value), group, param
            )
            agree = row["oracle"] == value and row["witness_ok"]
        return [(row, agree)]

    if quantity == "chi_hat_interval3":
        reported_only = swept and n <= 4
        value = interval3_piecewise_value(group) if reported_only else generating_interval_critical_s3(group)
        m = interval3_branch_divisor(group)
        row = _new_row(group, quantity, 3, value)
        row["branch"] = f"m={m}" if m is not None else "floor"
        agree = None
        if oracle_opts:
            budget, workers = oracle_opts
            kind = CriticalKind("chi_hat_interval", 3)
            row["oracle"] = brute_critical(OracleQuery(group, kind), budget=budget, workers=workers)
            if reported_only:
                match = "true" if row["oracle"] == value else "false"
                row["branch"] = f"excluded:n<=4;match={match}"
            else:
                agree = row["oracle"] == value
        return [(row, agree)]

    if quantity == "cr":
        star, whole = subset_sum_critical_pair(group)
        branch = "sqrt" if subset_sum_uses_sqrt_branch(group) else "smallest-prime"
        out = []
        for tag, value in (("cr_star", star), ("cr", whole)):
            row = _new_row(group, tag, None, value)
            row["branch"] = branch
            agree = None
            if oracle_opts:
                budget, workers = oracle_opts
                kind = CriticalKind(tag)
                row["oracle"] = brute_critical(OracleQuery(group, kind), budget=budget, workers=workers)
                agree = row["oracle"] == value
            out.append((row, agree))
        return out

    if quantity == "sumfree":
        value = max_sumfree_size(n)
        p = sumfree_branch_prime(n)
        row = _new_row(group, quantity, None, value)
        row["branch"] = f"p={p}" if p is not None else "floor"
        agree = None
        if oracle_opts:
            budget, _ = oracle_opts
            row["oracle"] = brute_max_sumfree(n, budget=budget)
            agree = row["oracle"] == value
        return [(row, agree)]

    # prop_bound: lower-bound certificate vs the brute generating value.
    cert = best_interval_bound(group, param)
    row = _new_row(group, quantity, param, cert.bound)
    if cert.is_trivial:
        row["branch"] = "trivial"
    else:
        qt = "x".join(str(d) for d in cert.quotient_type)
        cv = "x".join(str(c) for c in cert.c_vector)
        row["branch"] = f"q={qt};c={cv}"
    agree = None
    if oracle_opts:
        budget, workers = oracle_opts
        kind = CriticalKind("chi_hat_interval", param)
        row["oracle"] = brute_critical(OracleQuery(group, kind), budget=budget, workers=workers)
        row["witness_ok"] = cert.is_trivial or bool(cert.generates and cert.incomplete)
        agree = row["oracle"] >= cert.bound and row["witness_ok"]
    return [(row, agree)]


def _require(ok: bool) -> None:
    if not ok:
        raise CritnumError("bound search does not reach the closed-form value")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit_table(rows: list[dict], fmt: str, out, extra: dict | None = None) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in CSV_COLUMNS])
        return
    if fmt == "json":
        payload = {"rows": [{c: row[c] for c in CSV_COLUMNS} for row in rows]}
        if extra:
            payload.update(extra)
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    widths = [len(c) for c in CSV_COLUMNS]
    cells = [[_cell(row[c]) for c in CSV_COLUMNS] for row in rows]
    for line in cells:
        widths = [max(w, len(x)) for w, x in zip(widths, line)]
    out.write("  ".join(c.ljust(w) for c, w in zip(CSV_COLUMNS, widths)).rstrip() + "\n")
    for line in cells:
        out.write("  ".join(x.ljust(w) for x, w in zip(line, widths)).rstrip() + "\n")


def cmd_formula(args) -> int:
    quantity = args.quantity
    groups = _gather_groups(args, quantity, "formula")
    params = _resolve_params(args, quantity)
    # Formula-only sweeps skip groups outside a quantity's validated domain.
    if quantity == "chi_hat_interval3" and not args.group:
        groups = [g for g in groups if g.order >= 5]
    rows = []
    for group in groups:
        for param in params:
            rows.extend(row for row, _ in _quantity_rows(quantity, group, param, None, False))
    _emit_table(rows, args.format, sys.stdout)
    return 0


def cmd_verify(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    quantity = args.quantity
    groups = _gather_groups(args, quantity, "verify")
    params = _resolve_params(args, quantity)
    explicit = {parse_group(t).factors for t in (args.group or [])}
    budget = _resolve_budget(groups, args.budget_ack)
    opts = (budget, args.workers)
    rows: list[dict] = []
    mismatches: list[dict] = []
    aborted: BudgetExceeded | None = None
    for group in groups:
        if aborted:
            break
        for param in params:
            try:
                produced = _quantity_rows(quantity, group, param, opts, group.factors not in explicit)
            except BudgetExceeded as exc:
                aborted = exc
                break
            for row, agree in produced:
                rows.append(row)
                if agree is False:
                    mismatches.append(row)
    extra = {"mismatches": len(mismatches), "complete": aborted is None}
    _emit_table(rows, args.format, sys.stdout, extra)
    if args.format == "text":
        for row in mismatches:
            sys.stdout.write(
                "MISMATCH group={group} quantity={quantity} param={param} "
                "formula={formula} oracle={oracle} witness_ok={witness_ok}\n".format(
                    **{k: _cell(v) if v is None else v for k, v in row.items()}
                )
            )
        verdict = "all agree" if not mismatches else f"{len(mismatches)} mismatches"
        sys.stdout.write(f"verified {len(rows)} rows: {verdict}\n")
    if aborted:
        sys.stderr.write(f"BudgetExceeded: {aborted} (partial report above)\n")
        return 2
    return 0 if not mismatches else 1


def cmd_witness(args) -> int:
    group = parse_group(args.group)
    if (args.h is None) == (args.s is None):
        raise UsageError("witness needs exactly one of --h or --s")
    if args.h is not None:
        cert = hfold_witness(group, args.h)
    else:
        cert = interval_witness(group, args.s)
    payload = cert.to_json_dict()
    if args.format == "text":
        for key in sorted(payload):
            sys.stdout.write(f"{key}: {json.dumps(payload[key])}\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_bound(args) -> int:
    group = parse_group(args.group)
    cert = best_interval_bound(group, args.s)
    payload = cert.to_json_dict()
    if args.format == "text":
        for key in sorted(payload):
            sys.stdout.write(f"{key}: {json.dumps(payload[key])}\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_sumfree(args) -> int:
    args.quantity = "sumfree"
    return cmd_verify(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critnum",
        description="Critical numbers of finite abelian groups: formulas, witnesses, brute force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_selection(p) -> None:
        p.add_argument("--group", action="append", metavar="G",
                       help="group literal: cyclic order '12' or factors '2,2,4' (repeatable)")
        p.add_argument("--order", "--orders", dest="order", metavar="N|LO..HI",
                       help="group order or order range to sweep")
        p.add_argument("--max-order", dest="max_order", type=int, metavar="N",
                       help="sweep all orders from 2 to N")

    def add_format(p) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_formula = sub.add_parser("formula", help="closed-form values")
    add_selection(p_formula)
    p_formula.add_argument("--quantity", choices=QUANTITIES, required=True)
    p_formula.add_argument("--h", metavar="H|LO..HI")
    p_formula.add_argument("--s", metavar="S|LO..HI")
    add_format(p_formula)
    p_formula.set_defaults(func=cmd_formula)

    p_verify = sub.add_parser("verify", help="formula vs oracle vs witness")
    add_selection(p_verify)
    p_verify.add_argument("--quantity", choices=QUANTITIES, required=True)
    p_verify.add_argument("--h", metavar="H|LO..HI")
    p_verify.add_argument("--s", metavar="S|LO..HI")
    add_format(p_verify)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--budget-ack", dest="budget_ack", action="store_true",
                          help="accept oracle cost for orders past the default budget")
    p_verify.set_defaults(func=cmd_verify)

    p_witness = sub.add_parser("witness", help="extremal-set certificate")
    p_witness.add_argument("--group", required=True, metavar="G")
    p_witness.add_argument("--h", type=int)
    p_witness.add_argument("--s", type=int)
    p_witness.add_argument("--format", choices=("json", "text"), default="json")
    p_witness.set_defaults(func=cmd_witness)

    p_bound = sub.add_parser("bound", help="coset lower-bound certificate")
    p_bound.add_argument("--group", required=True, metavar="G")
    p_bound.add_argument("--s", type=int, required=True)
    p_bound.add_argument("--format", choices=("json", "text"), default="json")
    p_bound.set_defaults(func=cmd_bound)

    p_sumfree = sub.add_parser("sumfree", help="max sum-free size, formula vs search")
    add_selection(p_sumfree)
    add_format(p_sumfree)
    p_sumfree.add_argument("--workers", type=int, default=1)
    p_sumfree.add_argument("--budget-ack", dest="budget_ack", action="store_true")
    p_sumfree.set_defaults(func=cmd_sumfree, h=None, s=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except CritnumError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

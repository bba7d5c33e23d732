"""Command-line front end: formula tables, oracle cross-checks, certificates.

Subcommands:
  formula  closed-form values only, one row per (group, parameter)
  verify   formula vs exact oracle vs witness status, exit 0 iff all agree
  witness  a single extremal-set certificate as JSON
  bound    the best coset lower-bound certificate as JSON
  sumfree  closed-form maximum sum-free size vs backtracking search

Every quantity is one `Quantity` record in QUANTITIES: its parameter flag,
the groups it applies to, its row function, the oracle it is checked
against and the agreement relation.  `formula` and `verify` read only that
table.  Tables carry a fixed column set (group, n, quantity, param,
formula, oracle, witness_ok, branch) in all three formats, and rows are
emitted in a deterministic order, so output is byte-stable for a fixed
invocation.
"""

from __future__ import annotations

import argparse
import csv
import heapq
import itertools
import json
import operator
import os
import sys
from collections import namedtuple

from .errors import BudgetExceeded, CritnumError, InvalidOrder, WrongGroupClass
from .formulas import (
    CriticalKind,
    generating_interval_critical_s3,
    generating_interval_critical_two_group,
    generating_interval_cyclic_divisors,
    interval3_branch_divisor,
    interval3_piecewise_value,
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

CSV_COLUMNS = ("group", "n", "quantity", "param", "formula", "oracle", "witness_ok", "branch")


class UsageError(Exception):
    """Bad flag combination or unparsable flag value."""


# Row functions map (quantity, group, param, guarded) to a list of rows
# (tag, param, value, branch, check).  `guarded` is False only for a swept
# group outside the quantity's validated domain, which is reported with the
# unguarded closed form.  `check` is a zero-argument certificate test or
# None; a fail-closed builder that raises CritnumError fails the test.


def _divisor_branch(ds) -> str:
    return "d=" + "|".join(str(d) for d in ds)


def _fold_rows(quantity, group, param, guarded):
    kind = CriticalKind(quantity, param)  # refuses a bad h or s
    size, maxers = max_incomplete_divisors(group.order, param)
    builder = interval_witness if kind.mode == "interval" else hfold_witness
    return [(quantity, param, size + 1, _divisor_branch(maxers), lambda: builder(group, param))]


def _cyclic_rows(quantity, group, s, guarded):
    if not group.is_cyclic:
        raise WrongGroupClass(f"{quantity} applies to cyclic groups, got {group}")
    value, ds = generating_interval_cyclic_divisors(group.order, s)
    branch = _divisor_branch(ds) if ds else "n<=s+1"
    return [(quantity, s, value, branch, lambda: best_interval_bound(group, s).bound == value)]


def _two_group_rows(quantity, group, s, guarded):
    if not group.is_elementary_two:
        raise WrongGroupClass(f"{quantity} applies to groups of exponent 2, got {group}")
    value = generating_interval_critical_two_group(group.rank, s)
    branch = "r<=s" if group.rank <= s else f"r={group.rank}"
    return [(quantity, s, value, branch, lambda: best_interval_bound(group, s).bound == value)]


def _interval3_rows(quantity, group, _, guarded):
    if not guarded:
        return [(quantity, 3, interval3_piecewise_value(group), "excluded:n<=4", None)]
    value = generating_interval_critical_s3(group)
    m = interval3_branch_divisor(group)
    return [(quantity, 3, value, f"m={m}" if m is not None else "floor", None)]


def _cr_rows(quantity, group, _, guarded):
    star, whole = subset_sum_critical_pair(group)
    branch = "sqrt" if subset_sum_uses_sqrt_branch(group) else "smallest-prime"
    return [("cr_star", None, star, branch, None), ("cr", None, whole, branch, None)]


def _sumfree_rows(quantity, group, _, guarded):
    if not group.is_cyclic:
        raise UsageError(f"sum-free search is defined on cyclic groups, got {group}")
    value = max_sumfree_size(group.order)
    p = sumfree_branch_prime(group.order)
    return [(quantity, None, value, f"p={p}" if p is not None else "floor", None)]


def _prop_bound_rows(quantity, group, s, guarded):
    # The coset lower-bound certificate against the exact generating value.
    cert = best_interval_bound(group, s)
    if cert.is_trivial:
        branch = "trivial"
    else:
        qt = "x".join(str(d) for d in cert.quotient_type)
        cv = "x".join(str(c) for c in cert.c_vector)
        branch = f"q={qt};c={cv}"
    return [(quantity, s, cert.bound, branch, lambda: cert.is_trivial or (cert.generates and cert.incomplete))]


def _everywhere(group: GroupType) -> bool:
    return True


SUMFREE = "sumfree"


class Quantity(
    namedtuple(
        "Quantity", "param order_only rows oracle applies validated agrees",
        defaults=(_everywhere, _everywhere, operator.eq),
    )
):
    """What the CLI knows about one quantity.

    param      the flag that carries its parameter: "h", "s" or None
    order_only the closed form depends on the order alone, so a bare order
               range in `formula` gives one (cyclic) row per order
    rows       the row function (see above)
    oracle     the CriticalKind tag the oracle is asked, None for each
               row's own tag, or SUMFREE for the sum-free search
    applies    which swept groups take part
    validated  where the closed form is asserted; outside it `formula`
               skips a swept group and `verify` reports it without a verdict
    agrees     the relation (oracle, formula) that counts as agreement
    """

    __slots__ = ()


QUANTITIES = {
    "chi_h": Quantity("h", True, _fold_rows, None),
    "chi_interval": Quantity("s", True, _fold_rows, None),
    "chi_hat_h": Quantity("h", True, _fold_rows, None),
    "chi_hat_cyclic": Quantity("s", True, _cyclic_rows, "chi_hat_interval", applies=lambda g: g.is_cyclic),
    "chi_hat_2group": Quantity(
        "s", False, _two_group_rows, "chi_hat_interval", applies=lambda g: g.is_elementary_two
    ),
    "chi_hat_interval3": Quantity(
        None, False, _interval3_rows, "chi_hat_interval",
        applies=lambda g: not g.is_elementary_two, validated=lambda g: g.order >= 5,
    ),
    "cr": Quantity(None, False, _cr_rows, None, applies=lambda g: g.order >= 10),
    "sumfree": Quantity(None, True, _sumfree_rows, SUMFREE, applies=lambda g: g.is_cyclic),
    "prop_bound": Quantity("s", False, _prop_bound_rows, "chi_hat_interval", agrees=operator.ge),
}


def _parse_span(text: str, flag: str) -> range:
    """Parse "N" or "lo..hi" into a range of integers."""
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise UsageError(f"{flag} range {text!r} is not of the form lo..hi") from None
        if lo > hi:
            raise UsageError(f"{flag} range {text!r} is empty")
        return range(lo, hi + 1)
    try:
        n = int(text)
    except ValueError:
        raise UsageError(f"{flag} value {text!r} is not an integer") from None
    return range(n, n + 1)


def _gather_groups(args, quantity: str, command: str):
    """Resolve --group/--order/--max-order into the selected groups, built
    lazily in (order, factors) order without duplicates, with the set of the
    groups named by --group, whether there is more than one, and the largest
    order asked for.

    Swept groups (from order ranges) are filtered by the quantity's
    `applies`, and in `formula` by its `validated`; explicitly named groups
    are kept as-is so domain errors surface verbatim.
    """
    q = QUANTITIES[quantity]
    explicit = [parse_group(text) for text in (args.group or [])]
    span = _parse_span(args.order, "--order") if args.order else range(0)
    if args.max_order is not None and args.max_order < 2:
        raise InvalidOrder(f"--max-order must be at least 2, got {args.max_order}")
    top = args.max_order or 0
    named = sorted(g.order for g in explicit)

    def produce():
        for n, _ in itertools.groupby(heapq.merge(range(2, top + 1), span, named)):
            merged = {g.factors: g for g in explicit if g.order == n}
            if n <= top or n in span:
                if command == "formula" and q.order_only:
                    swept = [cyclic(n)]
                else:
                    swept = [g for g in abelian_types(n) if q.applies(g)]
                merged.update((g.factors, g) for g in swept if command != "formula" or q.validated(g))
            yield from sorted(merged.values(), key=lambda g: g.factors)

    groups = produce()
    head = list(itertools.islice(groups, 2))
    if not head:
        raise UsageError("no groups selected; pass --group, --order, or --max-order")
    return itertools.chain(head, groups), set(explicit), len(head) > 1, max([top, *span[-1:], *named])


def _resolve_params(args, quantity: str) -> range | list[None]:
    flag = QUANTITIES[quantity].param
    given = {"h": args.h, "s": args.s}
    if flag is None:
        if given["h"] is not None or given["s"] is not None:
            raise UsageError(f"quantity {quantity} takes no --h/--s parameter")
        return [None]
    other = "s" if flag == "h" else "h"
    if given[other] is not None:
        raise UsageError(f"--{other} does not apply to quantity {quantity}")
    if given[flag] is None:
        raise UsageError(f"quantity {quantity} requires --{flag}")
    return _parse_span(given[flag], f"--{flag}")


def _resolve_budget(several: bool, largest: int, ack: bool) -> int:
    budget = DEFAULT_SWEEP_BUDGET if several else DEFAULT_QUERY_BUDGET
    if ack:
        budget = max(budget, largest)
    cap = os.environ.get("CRITNUM_MAX_N")
    if cap is not None:
        try:
            budget = min(budget, int(cap))
        except ValueError:
            raise UsageError(f"CRITNUM_MAX_N must be an integer, got {cap!r}") from None
    return budget


def _passes(check) -> bool:
    try:
        return bool(check())
    except CritnumError:
        return False


def _quantity_rows(quantity, group, param, budget, swept):
    """Rows for one (group, parameter) pair.

    budget is None for formula-only commands, else the oracle budget.
    Returns a list of (row, agree) with agree True/False/None; None marks
    report-only rows that never count toward the exit code.
    """
    q = QUANTITIES[quantity]
    guarded = not swept or q.validated(group)
    out = []
    for tag, row_param, value, branch, check in q.rows(quantity, group, param, guarded):
        row = {
            "group": str(group),
            "n": group.order,
            "quantity": tag,
            "param": row_param,
            "formula": value,
            "oracle": None,
            "witness_ok": None,
            "branch": branch,
        }
        agree = None
        if budget is not None:
            if q.oracle == SUMFREE:
                row["oracle"] = brute_max_sumfree(group.order, budget=budget)
            else:
                kind = CriticalKind(q.oracle or tag, row_param)
                row["oracle"] = brute_critical(OracleQuery(group, kind), budget=budget)
            if check is not None:
                row["witness_ok"] = _passes(check)
            if guarded:
                agree = q.agrees(row["oracle"], value) and row["witness_ok"] is not False
            else:
                row["branch"] += ";match=" + _cell(row["oracle"] == value)
        out.append((row, agree))
    return out


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
    groups, *_ = _gather_groups(args, quantity, "formula")
    params = _resolve_params(args, quantity)
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
    groups, explicit, several, largest = _gather_groups(args, quantity, "verify")
    params = _resolve_params(args, quantity)
    budget = _resolve_budget(several, largest, args.budget_ack)
    rows: list[dict] = []
    mismatches: list[dict] = []
    aborted: BudgetExceeded | None = None
    for group in groups:
        for param in params:
            try:
                produced = _quantity_rows(quantity, group, param, budget, group not in explicit)
            except BudgetExceeded as exc:
                aborted = exc
                break
            for row, agree in produced:
                rows.append(row)
                if agree is False:
                    mismatches.append(row)
        if aborted:
            break
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
        count = f"{len(mismatches)} mismatches"
        sys.stdout.write(f"incomplete: {len(rows)} rows verified, {count}\n" if aborted
                         else f"verified {len(rows)} rows: {count if mismatches else 'all agree'}\n")
    if aborted:
        sys.stderr.write(f"BudgetExceeded: {aborted} (partial report above)\n")
        return 2
    return 0 if not mismatches else 1


def _print_certificate(cert, fmt: str) -> int:
    payload = cert.to_json_dict()
    if fmt == "text":
        for key in sorted(payload):
            sys.stdout.write(f"{key}: {json.dumps(payload[key])}\n")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_witness(args) -> int:
    group = parse_group(args.group)
    if (args.h is None) == (args.s is None):
        raise UsageError("witness needs exactly one of --h or --s")
    if args.h is not None:
        return _print_certificate(hfold_witness(group, args.h), args.format)
    return _print_certificate(interval_witness(group, args.s), args.format)


def cmd_bound(args) -> int:
    return _print_certificate(best_interval_bound(parse_group(args.group), args.s), args.format)


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

    def add_oracle(p) -> None:
        p.add_argument("--workers", type=int, default=1,
                       help="must be at least 1; the oracle runs in one process, "
                            "so this changes neither the work nor the output")
        p.add_argument("--budget-ack", dest="budget_ack", action="store_true",
                       help="accept oracle cost for orders past the default budget")

    for name, help_text, func in (("formula", "closed-form values", cmd_formula),
                                  ("verify", "formula vs oracle vs witness", cmd_verify)):
        p = sub.add_parser(name, help=help_text)
        add_selection(p)
        p.add_argument("--quantity", choices=tuple(QUANTITIES), required=True)
        p.add_argument("--h", metavar="H|LO..HI")
        p.add_argument("--s", metavar="S|LO..HI")
        add_format(p)
        if name == "verify":
            add_oracle(p)
        p.set_defaults(func=func)

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
    add_oracle(p_sumfree)
    p_sumfree.set_defaults(func=cmd_verify, quantity="sumfree", h=None, s=None)

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

"""Batch command line interface.

Subcommands: ``compute`` (one method, one or more orders), ``compare``
(several methods against each other with tolerances), ``table`` (values for
every requested method without judgement), and ``selftest`` (the embedded
check battery).

Matrices are read from plain CSV: row-major, no header, entries either
decimal literals or exact ``a/b`` rationals.  Reports are JSON (fixed key
order, schema version 1) or CSV.  Exit codes: 0 success, 1 usage or I/O
error, 2 numerical or invariant failure, 3 statistical tolerance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Sequence

from . import oracles, wishart

__all__ = [
    "main",
    "parse_matrix_csv",
    "parse_scalar",
    "format_scalar",
]

SCHEMA_VERSION = 1
FLOAT_RTOL = 1e-8
METHODS = ("closed-form", "umbral", "wick", "mc")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_STATISTICAL = 3


class UsageError(Exception):
    exit_code = EXIT_USAGE


class NumericalError(Exception):
    exit_code = EXIT_NUMERICAL


# -- matrix I/O ----------------------------------------------------------------


def parse_scalar(text: str, mode: str):
    """One CSV cell: ``a/b`` and integer literals stay exact in rational
    mode; anything else must parse as a float."""
    text = text.strip()
    if mode == "rational":
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse {text!r} as a rational") from exc
    try:
        return float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r} as a number") from exc


def format_scalar(value) -> str:
    if isinstance(value, (int, Fraction)):
        return str(value)
    return repr(float(value))


def detect_mode(rows: list[list[str]]) -> str:
    for row in rows:
        for cell in row:
            cell = cell.strip()
            if "." in cell or "e" in cell.lower():
                return "float"
    return "rational"


def _read_cells(path: str) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise UsageError(f"{path} is empty")
    return [line.split(",") for line in lines]


def parse_matrix_csv(path: str, mode: str | None = None) -> tuple[tuple, str]:
    """Parse a matrix file; returns (matrix, mode).  With ``mode=None`` the
    mode is detected: exact rational unless a decimal or exponent appears."""
    cells = _read_cells(path)
    width = len(cells[0])
    if any(len(row) != width for row in cells):
        raise UsageError(f"{path}: ragged rows")
    actual_mode = mode or detect_mode(cells)
    matrix = tuple(tuple(parse_scalar(c, actual_mode) for c in row) for row in cells)
    return matrix, actual_mode


# -- shared plumbing -------------------------------------------------------------


def _build_params(args) -> wishart.WishartParams:
    sigma, _ = parse_matrix_csv(args.sigma, args.mode)
    m = parse_matrix_csv(args.m, args.mode)[0] if args.m else None
    try:
        return wishart.WishartParams(args.n, args.p, sigma, m)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_orders(text: str, p: int) -> range:
    """The orders of ``--i``: one order, or an inclusive range ``lo..hi``.

    Orders above ``p`` are 0, so a range may end at ``p + 1`` at most; the
    bounds are checked before the range is used, so a huge ``hi`` costs
    nothing.  An invalid ``p`` is left to the model's own check."""
    text = text.strip()
    lo, dots, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if dots else lo
    except ValueError as exc:
        raise UsageError(f"bad order {text!r}") from exc
    if hi < lo:
        raise UsageError(f"bad order range {text!r}")
    if lo < 0:
        raise UsageError(f"bad order {text!r}: orders are nonnegative")
    if dots and p >= 1 and hi > p + 1:
        raise UsageError(f"bad order range {text!r}: a range ends at p + 1 = {p + 1} or below")
    return range(lo, hi + 1)


def _method_value(method: str, params, i: int, args) -> dict:
    started = time.perf_counter()
    entry: dict = {"method": method, "i": i}
    # routes are looked up at each call, so a wrapper installed later sees it
    try:
        if method == "closed-form":
            value = wishart.expected_esf_closed_form(params, i)
        elif method == "umbral":
            value = wishart.expected_esf_umbral(params, i)
        elif method == "wick":
            value = oracles.wick_expected_esf(params, i)
        else:
            est = oracles.mc_expected_esf(params, i, args.samples, args.seed)
            entry.update(stderr=est.stderr, samples=est.samples, seed=est.seed)
            value = est.value
    except (ValueError, ArithmeticError, MemoryError) as exc:  # MemoryError: an MC sample too large
        raise NumericalError(f"{method} failed at i={i}: {exc}") from exc
    entry["value"] = value
    if not args.no_timing:
        entry["timing_ms"] = round(1000 * (time.perf_counter() - started), 3)
    return entry


def _evaluate(args, methods: list[str]) -> tuple[wishart.WishartParams, list[tuple[int, dict]]]:
    """Every usage check and wick's size limit, then each (order, method)
    pair evaluated once: the model and, per order, each method's entry."""
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r}")
    if len(set(methods)) < len(methods):
        raise UsageError("each method may be named only once")
    if "mc" in methods:
        try:
            oracles._check_sampling(args.samples, args.seed)
        except ValueError as exc:
            raise UsageError(f"--{exc}") from exc
    orders = _parse_orders(args.i, args.p)
    params = _build_params(args)
    # wick's size limit, at the orders guard_order passes on to the expansion
    for i in (i for i in orders if "wick" in methods and 1 <= i <= params.p):
        try:
            oracles._check_wick_size(params, i)
        except ValueError as exc:
            raise NumericalError(f"wick failed at i={i}: {exc}") from exc
    return params, [(i, {m: _method_value(m, params, i, args) for m in methods}) for i in orders]


def _emit(args, payload: dict, csv_rows: list[list]) -> None:
    if args.output == "json":
        # an exact value is reported as the string "a/b"
        text = json.dumps(payload, indent=2, default=format_scalar)
    else:
        lines = [",".join(str(c) for c in row) for row in csv_rows]
        text = "\n".join(lines)
    out_path = getattr(args, "out", None)
    if not out_path:
        print(text)
        return
    # A temporary file beside the target, renamed over it, so that a reader
    # never sees a partial report.
    tmp_path = f"{out_path}.{os.getpid()}.tmp"
    created = False
    try:
        with open(tmp_path, "x", encoding="utf-8") as fh:
            created = True
            fh.write(text + "\n")
        os.replace(tmp_path, out_path)
    except OSError as exc:
        if created:
            with contextlib.suppress(OSError):
                os.remove(tmp_path)
        raise UsageError(f"cannot write {out_path}: {exc}") from exc


def _report(args, params, methods, results: list, csv_rows: list[list], **tail) -> None:
    """Emit the report of ``args.command``: its header, ``results``, then ``tail``."""
    echo = {
        "n": params.n,
        "p": params.p,
        "mode": params.mode,
        "sigma": [[format_scalar(v) for v in row] for row in params.sigma],
    }
    if params.m is not None:
        echo["m"] = [[format_scalar(v) for v in row] for row in params.m]
    payload = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "method" if isinstance(methods, str) else "methods": methods,
        "mode": params.mode,
        "params": echo,
        "results": results,
        **tail,
    }
    _emit(args, payload, csv_rows)


# -- subcommands -------------------------------------------------------------------


def _cmd_compute(args) -> int:
    params, grid = _evaluate(args, [args.method])
    entries = [row[args.method] for _, row in grid]
    csv_rows = [["method", "i", "value", "stderr"]] + [
        [e["method"], e["i"], e["value"], e.get("stderr", "")] for e in entries
    ]
    _report(args, params, args.method, entries, csv_rows)
    return EXIT_OK


def _tolerance_kind(methods: list[str], mode: str) -> str:
    if "mc" in methods:
        return "statistical"
    if mode == "rational":
        return "exact"
    return "relative"


def _values_agree(kind: str, base: dict, other: dict) -> tuple[bool, float]:
    a, b = base["value"], other["value"]
    if kind == "exact" and isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b, float(abs(a - b))
    fa, fb = float(a), float(b)
    diff = abs(fa - fb)
    if kind == "statistical":
        spread = math.hypot(base.get("stderr", 0.0), other.get("stderr", 0.0))
        return diff <= 4 * spread if spread > 0 else diff == 0.0, diff
    scale = max(abs(fa), abs(fb))
    return diff <= FLOAT_RTOL * scale, diff


def _cmd_compare(args) -> int:
    methods = args.methods
    if len(methods) < 2:
        raise UsageError("compare needs at least two methods")
    params, grid = _evaluate(args, methods)
    rows = []
    worst = EXIT_OK
    for i, entries in grid:
        base = entries[methods[0]]
        deviations = {}
        for m in methods[1:]:
            kind = _tolerance_kind([methods[0], m], params.mode)
            agree, diff = _values_agree(kind, base, entries[m])
            deviations[m] = {"abs": diff, "kind": kind, "pass": agree}
            if not agree:
                worst = max(worst, EXIT_STATISTICAL if kind == "statistical" else EXIT_NUMERICAL)
        values = {m: e["value"] for m, e in entries.items()}
        ok = all(d["pass"] for d in deviations.values())
        rows.append({"i": i, "values": values, "deviations": deviations, "pass": ok})
    csv_rows = [["i", "pass"] + methods] + [
        [r["i"], r["pass"]] + [r["values"][m] for m in methods] for r in rows
    ]
    _report(args, params, methods, rows, csv_rows, passed=worst == EXIT_OK)
    return worst


def _cmd_table(args) -> int:
    methods = args.methods
    if not methods:
        raise UsageError("table needs at least one method")
    params, grid = _evaluate(args, methods)
    rows = [{"i": i, "values": {m: e["value"] for m, e in entries.items()}} for i, entries in grid]
    csv_rows = [["i"] + methods] + [[r["i"]] + [r["values"][m] for m in methods] for r in rows]
    _report(args, params, methods, rows, csv_rows)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    # imported here, so that the other commands do not load the battery
    from . import selftest

    results = selftest.run_selftest(args.filter)
    if not results:
        raise UsageError(f"no self-test matches filter {args.filter!r}")
    passed = all(r.passed for r in results)
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "selftest",
            "results": [
                {"name": r.name, "status": "pass" if r.passed else "fail", "detail": r.detail}
                for r in results
            ],
            "passed": passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            marker = "PASS" if r.passed else "FAIL"
            print(f"{marker}  {r.name.ljust(width)}  {r.detail}")
        print(f"{'all checks passed' if passed else 'FAILURES PRESENT'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


# -- argument parsing -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _split_methods(text: str) -> list[str]:
    """The comma-separated method list of ``--methods``, blanks dropped."""
    return [m.strip() for m in text.split(",") if m.strip()]


def _add_model_arguments(sub) -> None:
    sub.add_argument("--n", type=int, required=True, help="degrees of freedom")
    sub.add_argument("--p", type=int, required=True, help="dimension")
    sub.add_argument("--sigma", required=True, help="covariance CSV path")
    sub.add_argument("--m", help="mean matrix CSV path (omitted: zero mean)")
    sub.add_argument("--i", required=True, help="order, or inclusive range 'a..b' with b <= p + 1")
    sub.add_argument("--mode", choices=["rational", "float"], help="force the scalar tower")
    sub.add_argument("--samples", type=int, default=100_000, help="Monte Carlo sample count")
    sub.add_argument("--seed", type=int, default=20200429, help="Monte Carlo seed")
    sub.add_argument("--output", choices=["json", "csv"], default="json")
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument("--no-timing", action="store_true", help="omit timing fields")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wishart-esf", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    compute = subs.add_parser("compute", help="one method, one or more orders")
    _add_model_arguments(compute)
    compute.add_argument("--method", choices=METHODS, default="closed-form")
    compute.set_defaults(func=_cmd_compute)

    compare = subs.add_parser("compare", help="run several methods and check agreement")
    _add_model_arguments(compare)
    compare.add_argument("--methods", required=True, type=_split_methods, help="comma-separated method list")
    compare.set_defaults(func=_cmd_compare)

    table = subs.add_parser("table", help="values per method without judgement")
    _add_model_arguments(table)
    table.add_argument("--methods", required=True, type=_split_methods, help="comma-separated method list")
    table.set_defaults(func=_cmd_table)

    self_test = subs.add_parser("selftest", help="run the embedded check battery")
    self_test.add_argument("--filter", help="substring filter on check names")
    self_test.add_argument("--json", action="store_true", help="machine-readable output")
    self_test.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

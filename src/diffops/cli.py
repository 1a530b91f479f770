"""Command-line interface.

Verbs: basis, hierarchy, kdv, verify, bench, cache {list, clear}.
Output files follow the (n_m)[suffix].ext naming pattern; formats are
json, latex and text.  Exit codes: 0 success, 1 usage error,
2 computation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path

from .basis import almost_commuting, generic_L
from .cache import CACHE_ENV_VAR, ResultCache
from .formats import (
    json_object_text,
    poly_json_text,
    poly_latex,
    render_operator,
    render_poly,
)
from .hierarchy import gd_equations, kdv_sequence
from .integration import NotTotalDerivativeError
from .pseudo import InsufficientDepthError, nth_root

_EXTENSIONS = {"json": "json", "latex": "tex", "text": "txt"}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    computation failures and use 1 for usage problems."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(minimum: int):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    return convert


def _write(path: Path, content: str, quiet: bool) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
        if not content.endswith("\n"):
            handle.write("\n")
    if not quiet:
        print(path)


# -- basis ---------------------------------------------------------------


def cmd_basis(args) -> int:
    cache = ResultCache()
    result = almost_commuting(args.n, args.m, cache=cache)
    out = Path(args.out)
    ext = _EXTENSIONS[args.format]
    _write(
        out / f"({args.n}_{args.m})[P].{ext}",
        render_operator(result.P, args.format),
        args.quiet,
    )
    for i, poly in enumerate(result.H):
        _write(
            out / f"({args.n}_{args.m})[H_{i}].{ext}",
            render_poly(poly, args.format),
            args.quiet,
        )
    return 0


# -- hierarchy ----------------------------------------------------------


def _render_flow(eq, fmt: str, stationary: bool) -> str:
    if fmt == "json":
        return json_object_text(
            {
                "variable_index": json.dumps(eq.variable_index),
                "lhs": json.dumps(None if stationary else eq.lhs_label),
                "rhs": poly_json_text(eq.rhs, 1),
                "stationary": json.dumps(stationary),
            }
        )
    if fmt == "latex":
        body = poly_latex(eq.rhs)
        return f"{body} = 0" if stationary else f"{eq.lhs_label} = {body}"
    body = str(eq.rhs)
    label = f"u_{eq.variable_index},t"
    return f"{body} = 0" if stationary else f"{label} = {body}"


def cmd_hierarchy(args) -> int:
    cache = ResultCache()
    equations = gd_equations(args.n, args.m, with_constants=args.with_constants, cache=cache)
    out = Path(args.out)
    ext = _EXTENSIONS[args.format]
    suffix = "GD" if not args.stationary else "SGD"
    for eq in equations:
        _write(
            out / f"({args.n}_{args.m})[{suffix}_{eq.variable_index}].{ext}",
            _render_flow(eq, args.format, args.stationary),
            args.quiet,
        )
    return 0


# -- kdv -------------------------------------------------------------------


def cmd_kdv(args) -> int:
    sequence = kdv_sequence(args.m)
    ext = _EXTENSIONS[args.format]
    if args.out is None:
        for j, poly in enumerate(sequence):
            print(f"kdv_{j} = {render_poly(poly, args.format)}")
        return 0
    out = Path(args.out)
    for j, poly in enumerate(sequence):
        _write(out / f"kdv_{j}.{ext}", render_poly(poly, args.format), args.quiet)
    return 0


# -- verify -------------------------------------------------------------------


def _operator_diff(computed, oracle) -> str:
    """Where P_m and (Q^m)_+ first differ, and how many monomials differ."""
    powers = range(max(computed.order, oracle.order), -1, -1)
    pairs = [
        (dict(computed.coefficient_at(p).items()), dict(oracle.coefficient_at(p).items()))
        for p in powers
    ]
    highest = next(p for p, (a, b) in zip(powers, pairs) if a != b)
    only_p = sum(len(a.keys() - b.keys()) for a, b in pairs)
    only_q = sum(len(b.keys() - a.keys()) for a, b in pairs)
    changed = sum(a[mono] != b[mono] for a, b in pairs for mono in a.keys() & b.keys())
    return (
        f"highest differing power d^{highest}; monomials: {only_p} only in P_m, "
        f"{only_q} only in (Q^m)_+, {changed} with different coefficients"
    )


def cmd_verify(args) -> int:
    n, max_m = args.n, args.max_m
    t0 = time.perf_counter()
    root = nth_root(generic_L(n), max_m - 1 if max_m > 1 else 0)
    root_seconds = time.perf_counter() - t0
    if not args.quiet:
        print(f"n-th root to depth {root.depth}: {root_seconds:.3f}s")
    failures = 0
    q_power = root
    for m in range(1, max_m + 1):
        t0 = time.perf_counter()
        if m > 1:
            q_power = q_power.mul_keep_low(root, -(max_m - m))
        oracle = q_power.positive_part()
        oracle_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        computed = almost_commuting(n, m).P
        direct_seconds = time.perf_counter() - t0
        ok = computed == oracle
        failures += 0 if ok else 1
        print(
            f"(n={n}, m={m}) {'PASS' if ok else 'FAIL'} "
            f"[triangular {direct_seconds:.3f}s, pseudo-differential {oracle_seconds:.3f}s]"
        )
        if not ok:
            print(f"  {_operator_diff(computed, oracle)}")
    if failures:
        print(f"{failures}/{max_m} mismatches", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"{max_m}/{max_m} PASS")
    return 0


# -- bench ---------------------------------------------------------------------


def cmd_bench(args) -> int:
    rows = []
    for m in range(2, args.max_m + 1):
        if m % args.n == 0:
            continue
        t0 = time.perf_counter()
        result = almost_commuting(args.n, m)
        seconds = time.perf_counter() - t0
        rows.append((args.n, m, seconds, result.P.monomials_total()))
        if not args.quiet:
            print(f"(n={args.n}, m={m}): {seconds:.3f}s", file=sys.stderr)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["n", "m", "seconds", "monomials"])
    for n, m, seconds, monomials in rows:
        writer.writerow([n, m, f"{seconds:.3f}", monomials])
    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(buffer.getvalue(), encoding="utf-8")
        if not args.quiet:
            print(path)
    else:
        sys.stdout.write(buffer.getvalue())
    return 0


# -- cache ---------------------------------------------------------------------


def cmd_cache(args) -> int:
    cache = ResultCache()
    if args.action == "list":
        for n, m in cache.entries():
            print(f"({n}_{m})")
        return 0
    removed = cache.clear()
    if not args.quiet:
        print(f"removed {removed} entries")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="diffops",
        description=(
            "Almost-commuting bases of ordinary differential operators and "
            "Gelfand-Dickey hierarchies, computed exactly."
        ),
        epilog=f"Cache root: ${CACHE_ENV_VAR} or the per-user cache directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, with_m=True, m_minimum=1):
        p.add_argument("--n", type=_at_least(2), required=True, help="operator order")
        if with_m:
            p.add_argument(
                "--m", type=_at_least(m_minimum), required=True, help="basis index"
            )
        p.add_argument(
            "--format", choices=sorted(_EXTENSIONS), default="text", help="output format"
        )
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    basis = sub.add_parser("basis", help="compute P_m and the H polynomials")
    common(basis)
    basis.add_argument("--out", default=".", help="output directory")
    basis.set_defaults(func=cmd_basis)

    hierarchy = sub.add_parser("hierarchy", help="emit the level-m flow equations")
    common(hierarchy, m_minimum=2)
    hierarchy.add_argument("--out", default=".", help="output directory")
    hierarchy.add_argument(
        "--stationary", action="store_true", help="render the right-hand sides as rhs = 0"
    )
    hierarchy.add_argument(
        "--with-constants",
        action="store_true",
        help="include the formal constants c_{m,j} of lower levels",
    )
    hierarchy.set_defaults(func=cmd_hierarchy)

    kdv = sub.add_parser("kdv", help="iterate the KdV recursion operator")
    kdv.add_argument("--m", type=_at_least(0), required=True, help="top sequence index")
    kdv.add_argument(
        "--format", choices=sorted(_EXTENSIONS), default="text", help="output format"
    )
    kdv.add_argument("--out", default=None, help="output directory (default: stdout)")
    kdv.add_argument("--quiet", action="store_true")
    kdv.set_defaults(func=cmd_kdv)

    verify = sub.add_parser(
        "verify", help="check P_m against the truncated pseudo-differential root"
    )
    verify.add_argument("--n", type=_at_least(2), required=True)
    verify.add_argument("--max-m", type=_at_least(1), required=True)
    verify.add_argument("--quiet", action="store_true")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="time the basis computation over a range of m")
    bench.add_argument("--n", type=_at_least(2), required=True)
    bench.add_argument("--max-m", type=_at_least(2), required=True)
    bench.add_argument("--csv", default=None, help="CSV output path (default: stdout)")
    bench.add_argument("--quiet", action="store_true")
    bench.set_defaults(func=cmd_bench)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=["list", "clear"])
    cache.add_argument("--quiet", action="store_true")
    cache.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotTotalDerivativeError, InsufficientDepthError) as exc:
        print(f"diffops: computation failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"diffops: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

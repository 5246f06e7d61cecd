"""Command-line front end.

    cullis compute --input m.csv --method fast --verify
    cullis selftest --seed 7 --size-cap 5
    cullis bench --sizes 8x4,16x8,32x16 --repeat 3 --out results.csv

Exit status: 0 on success, 2 on bad input or arguments, 3 when --verify
finds the independent oracle disagreeing with the requested engine, 4 when
compute fails in any other way (one line, `internal error: <Type>: <msg>`).
A failing selftest exits 1.
"""
from __future__ import annotations

import argparse
import re
import sys
from random import Random

from . import bench as bench_mod
from .determinant import METHODS, det, det_by_minors
from .matio import MatrixInputError, load_matrix_file
from .scalars import DOMAINS

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

_SIZE_RE = re.compile(r"([0-9]+)x([0-9]+)")


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _cmd_compute(args) -> int:
    try:
        return _compute(args)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _compute(args) -> int:
    if args.verify_cap < 0:
        return _fail(f"--verify-cap must be >= 0, got {args.verify_cap}")
    try:
        x = load_matrix_file(args.input, args.scalar)
    except MatrixInputError as exc:
        return _fail(str(exc))
    value = det(x, method=args.method)
    print(x.domain.format(value))
    if args.verify:
        cost = bench_mod.minors_cost(x.rows, x.cols)
        if cost > args.verify_cap:
            print(f"VERIFY: SKIPPED (estimated cost {cost} exceeds cap {args.verify_cap})")
            return EXIT_OK
        oracle = det_by_minors(x)
        if x.domain.eq(value, oracle):
            print("VERIFY: MATCH")
        else:
            print("VERIFY: MISMATCH")
            print(f"oracle value: {x.domain.format(oracle)}", file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_selftest(args) -> int:
    if args.size_cap < 1:
        return _fail(f"--size-cap must be >= 1, got {args.size_cap}")
    from . import selftest as selftest_mod  # off the compute path's start-up

    ok = selftest_mod.run(seed=args.seed, size_cap=args.size_cap)
    return EXIT_OK if ok else EXIT_SELFTEST


def _parse_sizes(text: str):
    sizes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        m = _SIZE_RE.fullmatch(part)
        if m is None:
            raise ValueError(f"bad size {part!r}; expected NxK like 64x32")
        n, k = int(m.group(1)), int(m.group(2))
        if n < 1 or k < 1:
            raise ValueError(f"size {part!r} must have positive dimensions")
        sizes.append((n, k))
    if not sizes:
        raise ValueError("no sizes given")
    return sizes


def _ratio(new, old) -> float:
    return new / old if old else float("inf")


def _cmd_bench(args) -> int:
    if args.repeat < 1:
        return _fail(f"--repeat must be >= 1, got {args.repeat}")
    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError as exc:
        return _fail(str(exc))
    domain = DOMAINS[args.scalar]
    rng = Random(2024)
    previous = {}  # method -> its report on the last shape it ran

    def progress(row):
        line = (f"{row.n}x{row.k} {row.method} [{row.domain}]: "
                f"{row.median_seconds:.6f}s median, {row.mults} mults, {row.adds} adds")
        prev = previous.get(row.method)
        if prev is not None:
            line += (f"; vs {prev.n}x{prev.k}: mults x{_ratio(row.mults, prev.mults):.2f}, "
                     f"time x{_ratio(row.median_seconds, prev.median_seconds):.2f}")
        previous[row.method] = row
        print(line, file=sys.stderr)

    reports = bench_mod.run_sizes(sizes, domain, rng, repeats=args.repeat,
                                  report=progress)
    text = bench_mod.to_csv(reports)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(f"cannot write {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cullis",
        description="Determinants of rectangular matrices, four ways.")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="evaluate the determinant of a matrix file")
    compute.add_argument("--input", required=True, metavar="PATH",
                         help="matrix file, CSV or JSON document")
    compute.add_argument("--method", choices=METHODS, default="auto",
                         help="evaluation engine (default: auto)")
    compute.add_argument("--scalar", choices=sorted(DOMAINS), default=None,
                         help="scalar domain for CSV input (default: int)")
    compute.add_argument("--verify", action="store_true",
                         help="cross-check against the minor-sum oracle when affordable")
    compute.add_argument("--verify-cap", type=int, default=bench_mod.VERIFY_CAP,
                         metavar="N",
                         help="cost ceiling C(n,k)*k^3 for the oracle run")
    compute.set_defaults(func=_cmd_compute)

    selftest = sub.add_parser(
        "selftest", help="run the built-in identity checks")
    selftest.add_argument("--seed", type=int, default=2024,
                          help="random seed for the check instances")
    selftest.add_argument("--size-cap", type=int, default=6, metavar="N",
                          help="largest dimension in the agreement sweeps")
    selftest.set_defaults(func=_cmd_selftest)

    bench = sub.add_parser(
        "bench", help="time and count the engines across shapes, emit CSV")
    bench.add_argument("--sizes", required=True, metavar="N1xK1,N2xK2,...",
                       help="comma-separated shapes, e.g. 8x4,16x8,32x16")
    bench.add_argument("--repeat", type=int, default=3, metavar="R",
                       help="timed repetitions per engine (default: 3)")
    bench.add_argument("--scalar", choices=sorted(DOMAINS), default="int",
                       help="scalar domain for the random fills")
    bench.add_argument("--out", metavar="PATH", default=None,
                       help="write the CSV here instead of stdout")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

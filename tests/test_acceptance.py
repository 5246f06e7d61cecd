"""Acceptance gate: every advertised guarantee, one verdict line each.

Each test prints `CRITERION <n> <name>: PASS` or `: FAIL` straight to the
terminal (bypassing capture) and then asserts. Criterion 6 re-counts the
minor-sum oracle at shape (24,12) block by block and takes about 8
minutes on one core; everything else finishes in seconds.

Tolerances: exact domains must match bit for bit (zero tolerance); the
float domain uses the library-wide relative tolerance 1e-9 with absolute
floor 1e-12. Complexity ratios use the fixed bounds asserted inline.
"""
import math
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations, product
from random import Random

from cullis.bench import count_operations, random_matrix, to_csv, run_sizes
from cullis.determinant import (
    det,
    det_by_column_laplace,
    det_by_injections,
    det_by_minors,
    det_by_pfaffian,
    ones_column_identity_holds,
    square_det,
    zero_row_identity_holds,
)
from cullis.matrix import Matrix, multiply, skew_kernel_matrix, transpose
from cullis.pfaffian import (
    SkewMatrix,
    pfaffian,
    pfaffian_definition,
    pfaffian_eliminate,
    pfaffian_fraction_free,
    pfaffian_laplace,
)
from cullis.scalars import FLOAT, INTEGER, RATIONAL
from cullis.signs import (
    matching_sum_sign,
    pair_sign_matrix,
    permutation_matrix,
    tuple_sign,
)
from cullis import cli


def _verdict(capsys, num, name, failures):
    ok = not failures
    with capsys.disabled():
        print(f"\nCRITERION {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}); first failures: {failures[:3]}"


def _rand_int_matrix(rng, n, k):
    return Matrix(INTEGER, [[rng.randint(-9, 9) for _ in range(k)]
                            for _ in range(n)])


def test_criterion_1_four_engine_agreement(capsys):
    """All four engines agree exactly on 200 random integer matrices per
    shape for every 1 <= k <= n <= 7, and the fast route survives the
    transpose path on the same instances."""
    rng = Random(12345)
    failures = []
    start = time.perf_counter()
    for n in range(1, 8):
        for k in range(1, n + 1):
            for trial in range(200):
                x = _rand_int_matrix(rng, n, k)
                ref = det_by_minors(x)
                if (det_by_injections(x) != ref
                        or det_by_column_laplace(x) != ref
                        or det_by_pfaffian(x) != ref
                        or det_by_pfaffian(transpose(x)) != ref):
                    failures.append((n, k, trial))
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s exceeded 120s")
    _verdict(capsys, 1, "four-engine agreement across all shapes", failures)


def test_criterion_2_three_by_two_polynomial_identity(capsys):
    """On 3x2 inputs the fast route equals the six-term polynomial
    x11*x22 - x11*x32 - x12*x21 + x12*x31 + x21*x32 - x22*x31 on all nine
    standard-basis column pairs (with multilinearity this certifies the
    polynomial identity), and the 3x3 kernel is the pinned literal."""
    failures = []
    for i in range(3):
        for j in range(3):
            rows = [[0, 0], [0, 0], [0, 0]]
            rows[i][0] = 1
            rows[j][1] = 1
            x = Matrix(INTEGER, rows)
            e = x.entry
            poly = (e(1, 1) * e(2, 2) - e(1, 1) * e(3, 2) - e(1, 2) * e(2, 1)
                    + e(1, 2) * e(3, 1) + e(2, 1) * e(3, 2) - e(2, 2) * e(3, 1))
            if det_by_pfaffian(x) != poly:
                failures.append(("basis pair", i + 1, j + 1))
    if skew_kernel_matrix(3, INTEGER).to_rows() != [[0, 1, -1],
                                                    [-1, 0, 1],
                                                    [1, -1, 0]]:
        failures.append("kernel literal")
    _verdict(capsys, 2, "three-by-two polynomial identity and kernel literal",
             failures)


def _random_skew(rng, size, domain):
    rows = [[domain.zero] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = domain.coerce(rng.randint(-6, 6))
            rows[i][j] = v
            rows[j][i] = domain.neg(v)
    return SkewMatrix(Matrix(domain, rows))


def test_criterion_3_pfaffian_identity_suite(capsys):
    """pf squared equals det (200 rational trials through size 8); the
    sandwich transform scales pf by det (through size 6); the ascending
    pair-sign matrix has pf 1 for every even size through 10, under every
    engine; and the column expansion matches the matching-sum definition
    for every pivot column through size 6."""
    failures = []
    rng = Random(333)
    sizes = (2, 4, 6, 8)
    for size in sizes:
        for trial in range(200 // len(sizes)):
            s = _random_skew(rng, size, RATIONAL)
            p = pfaffian_eliminate(s)
            if p * p != square_det(s.matrix):
                failures.append(("square", size, trial))
    for size in (2, 4, 6):
        for trial in range(20):
            s = _random_skew(rng, size, RATIONAL)
            b = Matrix(RATIONAL, [[Fraction(rng.randint(-4, 4))
                                   for _ in range(size)] for _ in range(size)])
            y = multiply(multiply(b, s.matrix), transpose(b))
            if pfaffian(SkewMatrix(y)) != square_det(b) * pfaffian(s):
                failures.append(("sandwich", size, trial))
    for size in (2, 4, 6, 8, 10):
        g = SkewMatrix(pair_sign_matrix(tuple(range(1, size + 1)), INTEGER))
        values = {pfaffian_definition(g), pfaffian_laplace(g),
                  pfaffian_fraction_free(g)}
        gq = SkewMatrix(Matrix(RATIONAL, [[Fraction(v) for v in r]
                                          for r in g.matrix.data]))
        if values != {1} or pfaffian_eliminate(gq) != 1:
            failures.append(("ascending unit", size))
    for size in (2, 4, 6):
        for trial in range(20):
            s = _random_skew(rng, size, INTEGER)
            ref = pfaffian_definition(s)
            for col in range(1, size + 1):
                if pfaffian_laplace(s, pivot_col=col) != ref:
                    failures.append(("expansion column", size, col, trial))
    _verdict(capsys, 3, "pfaffian identity suite", failures)


def test_criterion_4_sign_machinery_suite(capsys):
    """pf of the pairwise-sign matrix equals the tuple sign, exhaustively
    for tuples of length 2, 4, 6 over entries 1..6; the matching-sum
    expansion agrees on the same domain; and the permutation matrix
    determinant equals the permutation sign for every permutation, n <= 6."""
    failures = []
    for length in (2, 4, 6):
        for c in product(range(1, 7), repeat=length):
            want = tuple_sign(c)
            got = pfaffian_definition(SkewMatrix(pair_sign_matrix(c, INTEGER)))
            if got != want:
                failures.append(("pairwise sign", c, got, want))
                break
            if matching_sum_sign(c) != want:
                failures.append(("matching sum", c))
                break
    for n in range(1, 7):
        for perm in permutations(range(1, n + 1)):
            if square_det(permutation_matrix(perm, INTEGER)) != tuple_sign(perm):
                failures.append(("permutation matrix", perm))
                break
    _verdict(capsys, 4, "sign machinery suite", failures)


def test_criterion_5_determinant_property_suite(capsys):
    """Seven exact properties, each on at least 100 seeded random integer
    instances: multilinearity in a column, duplicate-column zero,
    column-swap antisymmetry, shear invariance, expansion-column
    independence, the ones-column extension (both parities of rows+cols),
    and the zero-row extension."""
    failures = []
    rng = Random(555)

    def shapes(min_k=1):
        while True:
            n = rng.randint(max(2, min_k), 6)
            k = rng.randint(min_k, n)
            yield n, k

    gen2 = shapes(min_k=2)
    for trial in range(100):
        n, k = next(gen2)
        base = _rand_int_matrix(rng, n, k)
        j = rng.randrange(k)
        u = [rng.randint(-9, 9) for _ in range(n)]
        v = [rng.randint(-9, 9) for _ in range(n)]
        alpha, beta = rng.randint(-4, 4), rng.randint(-4, 4)

        def with_col(col_vals, j=j, base=base, n=n):
            rows = [list(r) for r in base.data]
            for i in range(n):
                rows[i][j] = col_vals[i]
            return Matrix(INTEGER, rows)

        combo = [alpha * u[i] + beta * v[i] for i in range(n)]
        if det(with_col(combo)) != (alpha * det(with_col(u))
                                    + beta * det(with_col(v))):
            failures.append(("multilinearity", trial))

    for trial in range(100):
        n, k = next(gen2)
        x = _rand_int_matrix(rng, n, k)
        j, l = rng.sample(range(k), 2)
        rows = [list(r) for r in x.data]
        for r in rows:
            r[l] = r[j]
        if det(Matrix(INTEGER, rows)) != 0:
            failures.append(("duplicate column", trial))

    for trial in range(100):
        n, k = next(gen2)
        x = _rand_int_matrix(rng, n, k)
        j, l = rng.sample(range(k), 2)
        rows = [list(r) for r in x.data]
        for r in rows:
            r[j], r[l] = r[l], r[j]
        if det(Matrix(INTEGER, rows)) != -det(x):
            failures.append(("column swap", trial))

    for trial in range(100):
        n, k = next(gen2)
        x = _rand_int_matrix(rng, n, k)
        j, l = rng.sample(range(k), 2)
        c = rng.randint(-5, 5)
        rows = [list(r) for r in x.data]
        for r in rows:
            r[j] = r[j] + c * r[l]
        if det(Matrix(INTEGER, rows)) != det(x):
            failures.append(("shear", trial))

    gen1 = shapes()
    for trial in range(100):
        n, k = next(gen1)
        x = _rand_int_matrix(rng, n, k)
        ref = det(x)
        if any(det_by_column_laplace(x, col) != ref for col in range(1, k + 1)):
            failures.append(("expansion column independence", trial))

    odd_done = even_done = 0
    while odd_done < 100 or even_done < 100:
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        x = _rand_int_matrix(rng, n, k)
        if not ones_column_identity_holds(x):
            failures.append(("ones column", n, k))
            break
        if (n + k) % 2:
            odd_done += 1
        else:
            even_done += 1

    for trial in range(100):
        n, k = next(gen1)
        if not zero_row_identity_holds(_rand_int_matrix(rng, n, k)):
            failures.append(("zero row", trial))

    _verdict(capsys, 5, "determinant property suite", failures)


def test_criterion_6_complexity_evidence(capsys):
    """Multiplication counts: the fast route grows like a cubic — doubling
    the shape multiplies the count by at most 10 at (64,32)->(128,64) and
    (128,64)->(256,128) — while the minor-sum oracle at (24,12) costs at
    least 1000x the fast route on the same input (and both agree there)."""
    failures = []
    rng = Random(666)
    with capsys.disabled():
        print("\ncriterion 6: counting fast-route operations at "
              "(64,32), (128,64), (256,128)", flush=True)
    counts = {}
    for n, k in ((64, 32), (128, 64), (256, 128)):
        x = _rand_int_matrix(rng, n, k)
        _, mults, _ = count_operations(x, "fast")
        counts[(n, k)] = mults
    ratio_small = counts[(128, 64)] / counts[(64, 32)]
    ratio_large = counts[(256, 128)] / counts[(128, 64)]
    if ratio_small > 10:
        failures.append(f"(128,64)/(64,32) mult ratio {ratio_small:.2f} > 10")
    if ratio_large > 10:
        failures.append(f"(256,128)/(128,64) mult ratio {ratio_large:.2f} > 10")

    x = _rand_int_matrix(rng, 24, 12)
    fast_value, fast_mults, _ = count_operations(x, "fast")
    with capsys.disabled():
        print(f"criterion 6: fast ratios {ratio_small:.2f}, {ratio_large:.2f}; "
              "counting the minor-sum oracle at (24,12), about 2.7 million "
              "blocks, expected about 8 minutes on one core", flush=True)
    start = time.perf_counter()
    minors_value, minors_mults, _ = count_operations(x, "minors")
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"criterion 6: oracle count finished in {elapsed:.0f}s", flush=True)
    if minors_value != fast_value:
        failures.append("engines disagree at (24,12)")
    if minors_mults < 1000 * fast_mults:
        failures.append(
            f"oracle/fast mult ratio {minors_mults / fast_mults:.0f} < 1000")
    _verdict(capsys, 6, "complexity evidence", failures)


def test_criterion_7_large_shape_smoke(capsys):
    """The fast route finishes a 300x150 float matrix and a 100x50 integer
    matrix in under 60 seconds each and returns a usable value."""
    failures = []
    rng = Random(777)
    x = random_matrix(rng, 300, 150, FLOAT)
    start = time.perf_counter()
    value = det_by_pfaffian(x)
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"float smoke took {elapsed:.1f}s")
    if not isinstance(value, float) or not math.isfinite(value):
        failures.append(f"float smoke returned {value!r}")

    y = random_matrix(rng, 100, 50, INTEGER)
    start = time.perf_counter()
    ivalue = det_by_pfaffian(y)
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"integer smoke took {elapsed:.1f}s")
    if not isinstance(ivalue, int):
        failures.append("integer smoke returned a non-integer")
    _verdict(capsys, 7, "large-shape smoke run", failures)


def test_criterion_8_cli_contract(capsys, tmp_path, monkeypatch):
    """Exit codes 0/2/3 behave as documented, exact output is bit-stable
    across methods, and the bench CSV round-trips under its schema."""
    failures = []

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "cullis", *args],
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    good = tmp_path / "e32.csv"
    good.write_text("1,0\n0,1\n0,0\n")
    code, out, _ = run(["compute", "--input", str(good), "--method", "fast",
                        "--verify"])
    if code != 0 or out != "1\nVERIFY: MATCH\n":
        failures.append(("exit 0", code, out))

    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    code, out, err = run(["compute", "--input", str(bad)])
    if code != 2 or "error:" not in err:
        failures.append(("exit 2", code, err))

    monkeypatch.setattr(cli, "det_by_minors", lambda x: 999)
    code = cli.main(["compute", "--input", str(good), "--verify"])
    captured = capsys.readouterr()
    monkeypatch.undo()
    if code != 3 or "VERIFY: MISMATCH" not in captured.out:
        failures.append(("exit 3", code, captured.out))

    wide = tmp_path / "m.csv"
    wide.write_text("3,-5,2\n7,2,-8\n")
    outputs = set()
    for method in ("auto", "fast", "minors", "injections", "laplace"):
        code, out, _ = run(["compute", "--input", str(wide),
                            "--method", method])
        if code != 0:
            failures.append(("method exit", method, code))
        outputs.add(out)
    if len(outputs) != 1:
        failures.append(("bit stability", sorted(outputs)))

    reports = run_sizes([(6, 3), (8, 4)], INTEGER, Random(2024), repeats=1)
    lines = to_csv(reports).strip().splitlines()
    if lines[0] != "n,k,method,domain,mults,adds,median_seconds":
        failures.append(("csv header", lines[0]))
    for line in lines[1:]:
        n, k, method, domain, mults, adds, seconds = line.split(",")
        try:
            ok_row = (int(n) > 0 and int(k) > 0
                      and method in ("fast", "minors") and domain == "int"
                      and int(mults) >= 0 and int(adds) >= 0
                      and float(seconds) >= 0.0)
        except ValueError:
            ok_row = False
        if not ok_row:
            failures.append(("csv row", line))
    _verdict(capsys, 8, "command-line contract", failures)

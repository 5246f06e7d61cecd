"""File ingestion and the command-line contract."""
import json
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

from cullis import cli
from cullis.determinant import METHODS
from cullis.matio import MatrixInputError, load_matrix_file, parse_matrix_text
from cullis.scalars import FLOAT

E32_CSV = "1,0\n0,1\n0,0\n"


def run_cli(args, tmp_path=None):
    """Run the CLI in a child interpreter; returns (exit, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "cullis", *args],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestCsvParsing:
    def test_integers(self):
        x = parse_matrix_text("1,2\n3,4\n")
        assert x.domain.tag == "int"
        assert x.to_rows() == [[1, 2], [3, 4]]

    def test_cells_are_stripped_and_blank_lines_skipped(self):
        x = parse_matrix_text("  1 , 2 \n\n 3 ,4\n\n")
        assert x.to_rows() == [[1, 2], [3, 4]]

    def test_explicit_rational(self):
        x = parse_matrix_text("1/2\n-2/3\n", "rational")
        assert x.domain.tag == "rational"
        assert x.to_rows() == [[Fraction(1, 2)], [Fraction(-2, 3)]]

    def test_explicit_float(self):
        x = parse_matrix_text("0.5,1e2\n", "float")
        assert x.to_rows() == [[0.5, 100.0]]

    def test_ragged_rows_rejected(self):
        with pytest.raises(MatrixInputError, match="line 2"):
            parse_matrix_text("1,2\n3\n")

    def test_empty_input_rejected(self):
        with pytest.raises(MatrixInputError):
            parse_matrix_text("")
        with pytest.raises(MatrixInputError):
            parse_matrix_text("   \n \n")

    def test_bad_literal_reports_position(self):
        with pytest.raises(MatrixInputError, match=r"entry \(2,1\)"):
            parse_matrix_text("1,2\nx,4\n")

    def test_rational_literal_in_int_domain_rejected(self):
        with pytest.raises(MatrixInputError, match=r"entry \(1,2\)"):
            parse_matrix_text("1,1/2\n")

    def test_integer_literal_past_the_int_str_digit_limit(self):
        x = parse_matrix_text("1" * 4301 + "," + "1" * 4301 + "\n")
        ones = (10**4301 - 1) // 9
        assert x.to_rows() == [[ones, ones]]


class TestJsonParsing:
    def test_document(self):
        doc = json.dumps({"rows": 2, "cols": 1, "domain": "rational",
                          "data": [["1/2"], ["2/3"]]})
        x = parse_matrix_text(doc)
        assert x.domain.tag == "rational"
        assert x.to_rows() == [[Fraction(1, 2)], [Fraction(2, 3)]]

    def test_domain_defaults_to_int(self):
        doc = json.dumps({"rows": 1, "cols": 2, "data": [["3", "-4"]]})
        x = parse_matrix_text(doc)
        assert x.domain.tag == "int"

    def test_numeric_entries_allowed(self):
        doc = json.dumps({"rows": 1, "cols": 2, "data": [[3, -4]]})
        assert parse_matrix_text(doc).to_rows() == [[3, -4]]
        fdoc = json.dumps({"rows": 1, "cols": 2, "domain": "float",
                           "data": [[0.5, 2]]})
        assert parse_matrix_text(fdoc).to_rows() == [[0.5, 2.0]]

    @pytest.mark.parametrize("cell", ["NaN", "Infinity", "1e400", '"1e400"', "1" + "0" * 400])
    def test_non_finite_float_entry_rejected(self, cell):
        doc = '{"rows": 1, "cols": 1, "domain": "float", "data": [[%s]]}' % cell
        with pytest.raises(MatrixInputError, match=r"entry \(1,1\)"):
            parse_matrix_text(doc)

    def test_float_typed_entry_rejected_in_exact_domain(self):
        doc = json.dumps({"rows": 1, "cols": 1, "data": [[1.5]]})
        with pytest.raises(MatrixInputError, match=r"entry \(1,1\)"):
            parse_matrix_text(doc)

    def test_matching_explicit_domain_accepted(self):
        doc = json.dumps({"rows": 1, "cols": 1, "domain": "float", "data": [["2.5"]]})
        assert parse_matrix_text(doc, "float").to_rows() == [[2.5]]

    def test_conflicting_explicit_domain_rejected(self):
        doc = json.dumps({"rows": 1, "cols": 1, "domain": "rational", "data": [["1/2"]]})
        with pytest.raises(MatrixInputError, match="declares domain"):
            parse_matrix_text(doc, "int")

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d.pop("rows"), "missing key"),
        (lambda d: d.update(rows=0), "positive integer"),
        (lambda d: d.update(rows=True), "positive integer"),
        (lambda d: d.update(cols="2"), "positive integer"),
        (lambda d: d.update(domain="decimal"), "unknown domain"),
        pytest.param(lambda d: d.update(domain=["int"]), "unknown domain", id="non-string-domain"),
        (lambda d: d.update(data=[["1"], ["2"]]), "list of"),
        (lambda d: d.update(data=[["1", "2"]]), "list of"),
        (lambda d: d.update(extra=1), "unknown JSON keys"),
        (lambda d: d.update(data=[[None]]), "string literal or a number"),
        (lambda d: d.update(data=[[True]]), "string literal or a number"),
    ])
    def test_malformed_documents(self, mutate, message):
        doc = {"rows": 1, "cols": 1, "domain": "int", "data": [["1"]]}
        mutate(doc)
        with pytest.raises(MatrixInputError, match=message):
            parse_matrix_text(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(MatrixInputError, match="invalid JSON"):
            parse_matrix_text("{not json")
        with pytest.raises(MatrixInputError, match="invalid JSON"):  # after a long integer
            parse_matrix_text('{"data": [[%s], }' % ("1" * 4400))

    def test_non_object_json(self):
        with pytest.raises(MatrixInputError, match="object"):
            parse_matrix_text("[1, 2]")


# Literals outside a domain's grammar that int(), float() or Fraction()
# would still take, and literals with no value in the domain. Each must be
# named by its position with the per-cell parser's own message.
GRAMMAR_GATE = [
    ("int", "+5", "not an integer literal: '+5'"),
    ("int", "1_000", "not an integer literal: '1_000'"),
    ("int", "\u0663", "not an integer literal: '\u0663'"),
    ("int", "0x10", "not an integer literal: '0x10'"),
    ("int", "1.5", "not an integer literal: '1.5'"),
    ("float", "nan", "not a float literal: 'nan'"),
    ("float", "inf", "not a float literal: 'inf'"),
    ("float", "1e400", "float literal out of range: '1e400'"),
    ("float", "1_0.5", "not a float literal: '1_0.5'"),
    ("rational", "1/0", "zero denominator: '1/0'"),
    ("rational", "2/-3", "not a rational literal: '2/-3'"),
]


class TestGrammarGate:
    @pytest.mark.parametrize("tag,cell,message", GRAMMAR_GATE)
    def test_csv(self, tag, cell, message):
        with pytest.raises(MatrixInputError) as info:
            parse_matrix_text("1,2,3\n4,5, %s \n" % cell, tag)
        assert str(info.value) == f"entry (2,3): {message}"

    @pytest.mark.parametrize("tag,cell,message", GRAMMAR_GATE)
    def test_json(self, tag, cell, message):
        doc = json.dumps({"rows": 2, "cols": 3, "domain": tag,
                          "data": [["1", "2", "3"], ["4", "5", cell]]})
        with pytest.raises(MatrixInputError) as info:
            parse_matrix_text(doc)
        assert str(info.value) == f"entry (2,3): {message}"

    @pytest.mark.parametrize("tag,text,rows", [
        ("int", " 1 ,\t2\t\n\n \t \n3,  4\n", [[1, 2], [3, 4]]),
        ("rational", "1/2 ,\t-3\n\n4, 5/6\r\n", [[Fraction(1, 2), -3], [4, Fraction(5, 6)]]),
        ("float", " 0.5 ,\t1e2\n\n.5,3.\n", [[0.5, 100.0], [0.5, 3.0]]),
        ("int", "1,\u00a02\u2003\n3,4\n", [[1, 2], [3, 4]]),
    ])
    def test_blanks_around_cells_and_blank_lines(self, tag, text, rows):
        x = parse_matrix_text(text, tag)
        assert x.to_rows() == rows
        assert all(type(v) is type(x.domain.zero) for row in x.data for v in row)

    @pytest.mark.parametrize("tag", ["int", "rational"])
    def test_one_long_literal_among_other_cells(self, tag):
        x = parse_matrix_text("1, %s ,\t-3\n4,5,6\n" % ("7" * 4400), tag)
        assert x.to_rows() == [[1, (10**4400 - 1) // 9 * 7, -3], [4, 5, 6]]

    def test_one_long_literal_among_float_cells(self):
        x = parse_matrix_text("1, 0.%s ,-3\n" % ("3" * 4400), "float")
        assert x.to_rows() == [[1.0, float("0." + "3" * 4400), -3.0]]

    @pytest.mark.parametrize("tag,cell", [("int", "11"), ("float", "11.5e1"), ("rational", "11/2")])
    def test_long_line_failing_at_its_end(self, tag, cell):
        # a cell grammar with two ways to match "11" would backtrack through
        # every earlier cell of this line before giving up
        with pytest.raises(MatrixInputError) as info:
            parse_matrix_text(", ".join([cell] * 3000) + ", x\n", tag)
        assert str(info.value).startswith("entry (1,3001): not a")

    @pytest.mark.parametrize("tag,data,rows", [
        ("rational", [[1, -2], ["1/2", "3"], ["-4/6", 5]],
         [[1, -2], [Fraction(1, 2), 3], [Fraction(-2, 3), 5]]),
        ("float", [[1, -2.5], ["1e2", "3"], ["-.5", 5]], [[1.0, -2.5], [100.0, 3.0], [-0.5, 5.0]]),
        ("int", [[1, -2], ["12", "3"], ["-4", 5]], [[1, -2], [12, 3], [-4, 5]]),
    ])
    def test_json_rows_of_numbers_of_strings_and_of_both(self, tag, data, rows):
        x = parse_matrix_text(json.dumps({"rows": 3, "cols": 2, "domain": tag, "data": data}))
        assert x.to_rows() == rows
        assert all(type(v) is type(x.domain.zero) for row in x.data for v in row)

    def test_ragged_row_message(self):
        for text in ("1,2\n3\n", "x,1\n3\n"):  # ragged rows are found before bad literals
            with pytest.raises(MatrixInputError) as info:
                parse_matrix_text(text)
            assert str(info.value) == "line 2: expected 2 cells, got 1"


class TestLoadFile:
    def test_reads_utf8_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n", encoding="utf-8")
        assert load_matrix_file(str(p)).to_rows() == [[1, 2], [3, 4]]

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"\xff\xfe1,2\n")
        with pytest.raises(MatrixInputError, match="not UTF-8"):
            load_matrix_file(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixInputError, match="cannot read"):
            load_matrix_file(str(tmp_path / "absent.csv"))


class TestComputeCommand:
    def test_pinned_example_with_verify(self, tmp_path):
        p = tmp_path / "e32.csv"
        p.write_text(E32_CSV)
        code, out, err = run_cli(["compute", "--input", str(p),
                                  "--method", "fast", "--verify"])
        assert code == 0
        assert out == "1\nVERIFY: MATCH\n"

    def test_exact_output_bit_stable_across_methods(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("3,-5\n7,2\n-1,4\n")
        outputs = set()
        for method in ("auto", "fast", "minors", "injections", "laplace"):
            code, out, err = run_cli(["compute", "--input", str(p),
                                      "--method", method])
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_rational_output(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"rows": 2, "cols": 1, "domain": "rational",
                                 "data": [["1/2"], ["2/3"]]}))
        code, out, err = run_cli(["compute", "--input", str(p)])
        assert code == 0 and out == "-1/6\n"

    def test_float_output_format(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("0.5\n0.25\n")
        code, out, err = run_cli(["compute", "--input", str(p),
                                  "--scalar", "float"])
        assert code == 0 and out == "0.25\n"

    def test_malformed_csv_exits_two(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n")
        code, out, err = run_cli(["compute", "--input", str(p)])
        assert code == 2
        assert "error:" in err and out == ""

    def test_missing_file_exits_two(self, tmp_path):
        code, out, err = run_cli(["compute", "--input", str(tmp_path / "no.csv")])
        assert code == 2 and "cannot read" in err

    def test_non_utf8_file_exits_two(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"\xff\xfe1,2\n")
        code, out, err = run_cli(["compute", "--input", str(p)])
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read") and "not UTF-8" in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_method_exits_two(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1\n")
        code, out, err = run_cli(["compute", "--input", str(p),
                                  "--method", "cofactor"])
        assert code == 2

    def test_missing_subcommand_exits_two(self):
        code, out, err = run_cli([])
        assert code == 2

    def test_verify_cap_skip(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n0,1\n0,0\n")
        code = cli.main(["compute", "--input", str(p), "--verify",
                         "--verify-cap", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VERIFY: SKIPPED" in out

    def test_verify_mismatch_exits_three(self, tmp_path, capsys, monkeypatch):
        # Force oracle disagreement; the honest paths agree everywhere, so
        # the mismatch branch is reachable only by breaking the oracle.
        p = tmp_path / "m.csv"
        p.write_text("1,0\n0,1\n0,0\n")
        monkeypatch.setattr(cli, "det_by_minors", lambda x: 999)
        code = cli.main(["compute", "--input", str(p), "--verify"])
        out = capsys.readouterr().out
        assert code == 3
        assert "VERIFY: MISMATCH" in out

    def test_float_overflow_literal_exits_two(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("1e400\n2\n")
        code, out, err = run_cli(["compute", "--input", str(p),
                                  "--scalar", "float"])
        assert code == 2 and out == ""
        assert err.startswith("error: entry (1,1)") and err.count("\n") == 1

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_number_exits_two(self, tmp_path, literal):
        p = tmp_path / "m.json"
        p.write_text('{"rows": 2, "cols": 1, "domain": "float", '
                     f'"data": [[{literal}], [2]]}}')
        code, out, err = run_cli(["compute", "--input", str(p)])
        assert code == 2 and out == ""
        assert err.startswith("error: entry (1,1)") and err.count("\n") == 1

    def test_integer_literal_past_the_int_str_digit_limit(self, tmp_path):
        p = tmp_path / "big.csv"
        p.write_text("1" * 4301 + "," + "1" * 4301 + "\n")
        code, out, err = run_cli(["compute", "--input", str(p)])
        assert (code, out, err) == (0, "0\n", "")

    def test_json_integer_past_the_int_str_digit_limit(self, tmp_path):
        p = tmp_path / "big.json"
        ones = "1" * 4400
        p.write_text('{"rows": 2, "cols": 1, "data": [[%s], [%s]]}' % (ones, ones))
        code, out, err = run_cli(["compute", "--input", str(p)])
        assert (code, out, err) == (0, "0\n", "")

    def test_float_overflow_inside_the_route_exits_four(self, tmp_path):
        # columns near 1e200 and 1e-200: the sandwich overflows to nan
        rng = Random(7)
        rows = [[rng.uniform(-1, 1) * s for s in (1e200, 1e200, 1e-200, 1e-200)]
                for _ in range(6)]
        p = tmp_path / "scaled.csv"
        p.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows))
        code, out, err = run_cli(["compute", "--input", str(p),
                                  "--scalar", "float"])
        assert code == 4 and out == ""
        assert err.startswith("internal error: ScalarError: ") and err.count("\n") == 1
        assert "nan" in err

    @pytest.mark.parametrize("flags", [["--method", m] for m in METHODS] + [["--verify"]],
                             ids=" ".join)
    def test_float_result_out_of_range_exits_four(self, tmp_path, capsys, flags):
        # entries near 1e100: the 4x4 products pass 1e308, so the value is
        # -inf on the pfaffian route and nan in the oracles
        rng = Random(3)
        rows = [[rng.uniform(-1, 1) * 1e100 for _ in range(4)] for _ in range(6)]
        p = tmp_path / "huge.csv"
        p.write_text("".join(",".join(map(repr, r)) + "\n" for r in rows))
        code = cli.main(["compute", "--input", str(p), "--scalar", "float", *flags])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("internal error: ScalarError: ")
        assert captured.err.count("\n") == 1

    def test_result_past_the_int_str_digit_limit_exits_four(self, tmp_path):
        # the 1x1 value is the entry itself, which `format` cannot print yet
        p = tmp_path / "big.csv"
        p.write_text("1" * 4400 + "\n")
        code, out, err = run_cli(["compute", "--input", str(p)])
        assert code == 4 and out == ""
        assert err.startswith("internal error: ValueError: ") and err.count("\n") == 1

    def test_negative_verify_cap_exits_two(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text(E32_CSV)
        code = cli.main(["compute", "--input", str(p), "--verify",
                         "--verify-cap", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --verify-cap must be >= 0, got -1\n"

    def test_verify_float_uses_tolerant_equality(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("0.5,1.25\n-2.5,0.75\n1.5,-0.25\n")
        code = cli.main(["compute", "--input", str(p), "--scalar", "float",
                         "--verify"])
        out = capsys.readouterr().out
        assert code == 0 and "VERIFY: MATCH" in out


    def test_rational_verify_through_the_cleared_oracle(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("1/2,2/3\n3/4,-5/7\n1,1/9\n-2/5,3\n")
        code, out, err = run_cli(["compute", "--input", str(p), "--scalar", "rational",
                                  "--verify"])
        assert (code, out, err) == (0, "2141/630\nVERIFY: MATCH\n", "")


def test_compute_import_path_leaves_out_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize at start-up
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cullis.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_compute_import_path_leaves_out_selftest():
    # selftest loads only when its subcommand runs
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cullis.cli; print('cullis.selftest' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


class TestSelftestCommand:
    def test_passes_in_process(self, capsys):
        code = cli.main(["selftest", "--seed", "5", "--size-cap", "4"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert lines and all(l.startswith("PASS ") for l in lines)

    @pytest.mark.parametrize("cap", [1, 7])
    @pytest.mark.parametrize("seed", range(10))
    def test_passes_across_seeds(self, capsys, seed, cap):
        code = cli.main(["selftest", "--seed", str(seed), "--size-cap", str(cap)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and lines and all(l.startswith("PASS ") for l in lines)

    def test_size_cap_below_one_rejected(self, capsys):
        code = cli.main(["selftest", "--size-cap", "-3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --size-cap must be >= 1, got -3\n"

    def test_reports_failures_nonzero(self, capsys, monkeypatch):
        from cullis import selftest as selftest_mod
        broken = [("deliberately broken check", lambda rng, cap: False)]
        monkeypatch.setattr(selftest_mod, "CHECKS", broken)
        code = cli.main(["selftest"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL deliberately broken check" in out

    def test_crashing_check_fails_and_the_rest_still_run(self, capsys, monkeypatch):
        from cullis import selftest as selftest_mod

        def crash(rng, cap):
            raise ZeroDivisionError("boom")

        checks = [("crashing check", crash), ("later check", lambda rng, cap: True)]
        monkeypatch.setattr(selftest_mod, "CHECKS", checks)
        code = cli.main(["selftest"])
        assert code == 1
        assert capsys.readouterr().out == (
            "FAIL crashing check (ZeroDivisionError: boom)\nPASS later check\n")

    @staticmethod
    def _fails(capsys):
        code = cli.main(["selftest"])
        lines = capsys.readouterr().out.splitlines()
        return code == 1 and any(l.startswith("FAIL ") for l in lines)

    def test_catches_a_packed_slot_off_by_one(self, capsys, monkeypatch):
        from cullis import scalars
        packed = scalars.IntegerDomain.skew_product

        def off_by_one(self, cols):
            rows = packed(self, cols)
            if len(cols) >= scalars._PACK_MIN_COLS:
                rows[0][-1] += 1
                rows[-1][0] -= 1
            return rows

        monkeypatch.setattr(scalars.IntegerDomain, "skew_product", off_by_one)
        assert self._fails(capsys)

    def test_catches_a_doubled_rational_scale(self, capsys, monkeypatch):
        from cullis import determinant
        cleared = determinant.cleared_kernel_sandwich

        def doubled(a):
            y, scales = cleared(a)
            return y, [2 * scales[0], *scales[1:]]

        monkeypatch.setattr(determinant, "cleared_kernel_sandwich", doubled)
        assert self._fails(capsys)


class TestBenchCommand:
    def test_csv_schema_round_trip(self, capsys):
        code = cli.main(["bench", "--sizes", "6x3,8x4", "--repeat", "1"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "n,k,method,domain,mults,adds,median_seconds"
        rows = [l.split(",") for l in lines[1:]]
        assert rows, "bench emitted no data rows"
        for n, k, method, domain, mults, adds, seconds in rows:
            assert int(n) > 0 and int(k) > 0
            assert method in ("fast", "minors")
            assert domain == "int"
            assert int(mults) >= 0 and int(adds) >= 0
            assert float(seconds) >= 0.0
        # one progress line per row on stderr; a method's second shape adds
        # its ratios against the first, and stdout carries none of them
        mults = {(n, method): int(m) for n, k, method, domain, m, *_ in rows}
        progress = captured.err.splitlines()
        assert len(progress) == len(rows)
        for line, (n, k, method, *_) in zip(progress, rows):
            assert line.startswith(f"{n}x{k} {method} ")
            if n == "6":
                assert "vs" not in line
            else:
                ratio = mults["8", method] / mults["6", method]
                assert f"; vs 6x3: mults x{ratio:.2f}, time x" in line
        assert "vs" not in captured.out

    def test_feasibility_skips_minors_on_large_shapes(self, capsys):
        code = cli.main(["bench", "--sizes", "8x4,32x16", "--repeat", "1"])
        captured = capsys.readouterr()
        assert code == 0
        methods = [l.split(",")[:3] for l in captured.out.strip().splitlines()[1:]]
        assert ["8", "4", "fast"] in methods
        assert ["8", "4", "minors"] in methods
        assert ["32", "16", "fast"] in methods
        assert ["32", "16", "minors"] not in methods

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "bench.csv"
        code = cli.main(["bench", "--sizes", "4x2", "--repeat", "1",
                         "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        content = target.read_text()
        assert content.startswith("n,k,method,domain,mults,adds,median_seconds\n")

    def test_bad_sizes_exit_two(self, capsys):
        code = cli.main(["bench", "--sizes", "8x"])
        err = capsys.readouterr().err
        assert code == 2 and "bad size" in err

    def test_zero_repeat_rejected(self, capsys):
        code = cli.main(["bench", "--sizes", "4x2", "--repeat", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --repeat must be >= 1, got 0\n"

    def test_zero_dimension_rejected(self, capsys):
        code = cli.main(["bench", "--sizes", "0x3"])
        err = capsys.readouterr().err
        assert code == 2 and "positive" in err

    def test_float_domain_rows(self, capsys):
        code = cli.main(["bench", "--sizes", "6x3", "--repeat", "1",
                         "--scalar", "float"])
        captured = capsys.readouterr()
        assert code == 0
        for line in captured.out.strip().splitlines()[1:]:
            assert line.split(",")[3] == "float"

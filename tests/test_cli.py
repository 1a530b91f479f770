"""Command-line surface: files, formats, caching, exit codes."""

import csv
import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from diffops.cache import CACHE_ENV_VAR, ResultCache
from diffops.cli import main
from diffops.formats import operator_from_json, poly_from_json, render_poly
from diffops.hierarchy import kdv_sequence
from diffops.polynomials import C_FAMILY, DiffPolynomial, u, y
from helpers import with_equation


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    yield


CLI_FILES = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
)["cli_files"]


def run(*argv) -> int:
    return main(list(argv))


class TestBasisCommand:
    def test_latex_output(self, tmp_path):
        code = run(
            "basis", "--n", "3", "--m", "2", "--format", "latex",
            "--out", str(tmp_path), "--quiet",
        )
        assert code == 0
        content = (tmp_path / "(3_2)[P].tex").read_text(encoding="utf-8")
        assert content.strip() == "\\partial^{2} + \\frac{2}{3}u_2"
        assert (tmp_path / "(3_2)[H_0].tex").exists()
        assert (tmp_path / "(3_2)[H_1].tex").exists()

    def test_divisible_level_writes_zero_polynomials(self, tmp_path):
        assert run("basis", "--n", "3", "--m", "3", "--format", "json",
                   "--out", str(tmp_path), "--quiet") == 0
        for i in (0, 1):
            data = json.loads((tmp_path / f"(3_3)[H_{i}].json").read_text())
            assert not poly_from_json(data)

    def test_json_round_trip(self, tmp_path):
        assert run("basis", "--n", "2", "--m", "3", "--format", "json",
                   "--out", str(tmp_path), "--quiet") == 0
        data = json.loads((tmp_path / "(2_3)[P].json").read_text())
        op = operator_from_json(data)
        assert op.order == 3
        assert op.coefficient_at(1) == DiffPolynomial.constant("3/2") * u(2)

    def test_second_run_is_byte_identical_and_cached(self, tmp_path, monkeypatch):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run("basis", "--n", "3", "--m", "4", "--out", str(out1), "--quiet") == 0

        import diffops.basis as basis_module

        def boom(*args, **kwargs):
            raise AssertionError("expected a cache hit, not a recomputation")

        monkeypatch.setattr(basis_module, "solve_triangular", boom)
        assert run("basis", "--n", "3", "--m", "4", "--out", str(out2), "--quiet") == 0
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_warm_cache_files_match_pinned_digests(self, tmp_path, monkeypatch):
        assert run("basis", "--n", "7", "--m", "13", "--out", str(tmp_path / "cold"),
                   "--quiet") == 0

        import diffops.basis as basis_module

        def boom(*args, **kwargs):
            raise AssertionError("expected a cache hit, not a recomputation")

        monkeypatch.setattr(basis_module, "solve_triangular", boom)
        out = tmp_path / "warm"
        for fmt in ("json", "latex", "text"):
            assert run("basis", "--n", "7", "--m", "13", "--format", fmt,
                       "--out", str(out), "--quiet") == 0
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
        want = {name: digest for name, digest in CLI_FILES.items() if name.startswith("(7_13)")}
        assert len(want) == 21
        assert got == want

    def test_non_utf8_cache_entry_is_recomputed(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run("basis", "--n", "3", "--m", "4", "--out", str(out1), "--quiet") == 0
        path = ResultCache().entry_path(3, 4)
        raw = bytearray(path.read_bytes())
        raw[10:12] = b"\xff\xfe"
        path.write_bytes(bytes(raw))
        assert run("basis", "--n", "3", "--m", "4", "--out", str(out2), "--quiet") == 0
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert ResultCache().get(3, 4) is not None


class TestHierarchyCommand:
    def test_flow_files(self, tmp_path):
        assert run("hierarchy", "--n", "3", "--m", "2", "--format", "text",
                   "--out", str(tmp_path), "--quiet") == 0
        body = (tmp_path / "(3_2)[GD_2].txt").read_text()
        assert body.strip() == "u_2,t = -u2'' + 2*u3'"

    def test_stationary_rendering(self, tmp_path):
        assert run("hierarchy", "--n", "3", "--m", "2", "--stationary",
                   "--format", "text", "--out", str(tmp_path), "--quiet") == 0
        body = (tmp_path / "(3_2)[SGD_2].txt").read_text()
        assert body.strip().endswith("= 0")

    def test_latex_flow_files(self, tmp_path):
        assert run("hierarchy", "--n", "3", "--m", "2", "--format", "latex",
                   "--out", str(tmp_path), "--quiet") == 0
        assert (tmp_path / "(3_2)[GD_2].tex").read_text() == "u_{2,t} = -u_2'' + 2u_3'\n"
        assert (tmp_path / "(3_2)[GD_3].tex").read_text() == (
            "u_{3,t} = -\\frac{2}{3}u_2 u_2' - \\frac{2}{3}u_2''' + u_3''\n"
        )

    def test_latex_stationary_files(self, tmp_path):
        assert run("hierarchy", "--n", "3", "--m", "2", "--stationary", "--format", "latex",
                   "--out", str(tmp_path), "--quiet") == 0
        assert (tmp_path / "(3_2)[SGD_2].tex").read_text() == "-u_2'' + 2u_3' = 0\n"
        assert (tmp_path / "(3_2)[SGD_3].tex").read_text() == (
            "-\\frac{2}{3}u_2 u_2' - \\frac{2}{3}u_2''' + u_3'' = 0\n"
        )

    def test_with_constants_flag(self, tmp_path):
        assert run("hierarchy", "--n", "3", "--m", "2", "--with-constants",
                   "--format", "json", "--out", str(tmp_path), "--quiet") == 0
        data = json.loads((tmp_path / "(3_2)[GD_2].json").read_text())
        rhs = poly_from_json(data["rhs"])
        assert rhs.has_family(C_FAMILY)

    def test_equation_count_n5(self, tmp_path):
        out = tmp_path / "out"
        assert run("hierarchy", "--n", "5", "--m", "4", "--format", "text",
                   "--out", str(out), "--quiet") == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == [f"(5_4)[GD_{i}].txt" for i in (2, 3, 4, 5)]


class TestKdvCommand:
    def test_stdout(self, capsys):
        assert run("kdv", "--m", "1") == 0
        out = capsys.readouterr().out
        assert "kdv_0 = u2'" in out
        assert "kdv_1 = " in out

    def test_files(self, tmp_path):
        assert run("kdv", "--m", "2", "--out", str(tmp_path), "--quiet") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "kdv_0.txt", "kdv_1.txt", "kdv_2.txt",
        ]

    def test_latex_files_are_the_rendered_polynomials(self, tmp_path):
        assert run("kdv", "--m", "3", "--format", "latex", "--out", str(tmp_path),
                   "--quiet") == 0
        for j, poly in enumerate(kdv_sequence(3)):
            content = (tmp_path / f"kdv_{j}.tex").read_text(encoding="utf-8")
            assert content == render_poly(poly, "latex") + "\n"


class TestVerifyCommand:
    # --max-m 1 is a root of depth 0 and the single power Q
    @pytest.mark.parametrize("n, max_m", [(2, 9), (2, 1), (3, 1), (7, 1)])
    def test_small_run_passes(self, capsys, n, max_m):
        assert run("verify", "--n", str(n), "--max-m", str(max_m), "--quiet") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == max_m
        assert "FAIL" not in out

    def test_mismatch_is_reported_and_exits_2(self, capsys, monkeypatch):
        import diffops.cli as cli_module
        from diffops.basis import almost_commuting
        from diffops.operators import DiffOperator

        def tampered(n, m, cache=None):
            result = almost_commuting(n, m, cache=cache)
            if m != 3:
                return result
            # P_3 = D^3 + 3/2*u2*D + 3/4*u2': drop u2' (then only in (Q^3)_+),
            # add u3 (only in P_m) and change the coefficient of u2*D
            drop = DiffPolynomial.constant("3/4") * u(2, 1)
            changed = result.P + DiffOperator.from_dict({0: u(3) - drop, 1: u(2)})
            return dataclasses.replace(result, P=changed)

        monkeypatch.setattr(cli_module, "almost_commuting", tampered)
        assert run("verify", "--n", "2", "--max-m", "4", "--quiet") == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[2].startswith("(n=2, m=3) FAIL")
        assert lines[3] == (
            "  highest differing power d^1; monomials: 1 only in P_m, "
            "1 only in (Q^m)_+, 1 with different coefficients"
        )
        assert sum("PASS" in line for line in lines) == 3
        assert "1/4 mismatches" in captured.err


class TestBenchCommand:
    def test_skip_rule_and_csv(self, tmp_path):
        csv_path = tmp_path / "timings.csv"
        assert run("bench", "--n", "3", "--max-m", "14", "--csv", str(csv_path),
                   "--quiet") == 0
        with open(csv_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["m"]) for r in rows] == [2, 4, 5, 7, 8, 10, 11, 13, 14]
        assert all(float(r["seconds"]) >= 0 for r in rows)
        assert all(int(r["monomials"]) > 0 for r in rows)

    def test_csv_on_stdout(self, capsys):
        assert run("bench", "--n", "3", "--max-m", "5", "--quiet") == 0
        out = capsys.readouterr().out
        assert out.endswith("\r\n")
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["n", "m", "seconds", "monomials"]
        assert [(r[0], r[1], r[3]) for r in rows[1:]] == [
            ("3", "2", "2"), ("3", "4", "7"), ("3", "5", "9"),
        ]
        assert all(float(r[2]) >= 0 for r in rows[1:])


class TestCacheCommand:
    def test_list_and_clear(self, capsys, tmp_path):
        assert run("basis", "--n", "3", "--m", "2", "--out", str(tmp_path), "--quiet") == 0
        assert run("cache", "list") == 0
        assert "(3_2)" in capsys.readouterr().out
        assert run("cache", "clear", "--quiet") == 0
        assert run("cache", "list") == 0
        assert capsys.readouterr().out.strip() == ""

    def test_list_prints_each_key_once(self, capsys, tmp_path):
        assert run("basis", "--n", "3", "--m", "4", "--out", str(tmp_path), "--quiet") == 0
        cache = ResultCache()
        entry = cache.entry_path(3, 4).read_bytes()
        # names that entry_path never writes, one a second spelling of (3, 4)
        for stray in ("(03_4).json", "(\u0663_5).json"):
            (cache.version_dir / stray).write_bytes(entry)
        assert run("cache", "list") == 0
        assert capsys.readouterr().out == "(3_4)\n"


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("basis", "--m", "2")  # --n missing
        assert info.value.code == 1

    def test_invalid_bounds_are_usage_errors(self):
        with pytest.raises(SystemExit) as info:
            run("basis", "--n", "1", "--m", "2")
        assert info.value.code == 1

    def test_computation_failure_is_2(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("occupied")
        code = run("basis", "--n", "3", "--m", "2", "--out", str(blocker / "sub"))
        assert code == 2

    def test_non_triangular_system_is_a_computation_failure(self, tmp_path, capsys, monkeypatch):
        import diffops.basis as basis_module

        build = basis_module.bracket_system
        monkeypatch.setattr(
            basis_module, "bracket_system", lambda n, m: with_equation(build(n, m), 2, y(3))
        )
        out = tmp_path / "out"
        assert run("basis", "--n", "3", "--m", "4", "--out", str(out), "--quiet") == 2
        err = capsys.readouterr().err
        assert "computation failed" in err
        assert "equation for y_2 is not triangular (n=3, m=4): it holds y_3" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["basis", "hierarchy"])
    def test_unwritable_cache_is_reported_and_the_files_written(
        self, tmp_path, capsys, monkeypatch, command
    ):
        argv = (command, "--n", "3", "--m", "4", "--quiet", "--out")
        assert run(*argv, str(tmp_path / "cached")) == 0
        blocker = tmp_path / "cache-file"
        blocker.write_text("occupied")
        monkeypatch.setenv(CACHE_ENV_VAR, str(blocker))
        capsys.readouterr()
        assert run(*argv, str(tmp_path / "uncached")) == 0
        assert f"cache entry {ResultCache(blocker).entry_path(3, 4)} not written" in (
            capsys.readouterr().err
        )
        assert blocker.read_text() == "occupied"
        written = {
            path.name: path.read_bytes() for path in (tmp_path / "uncached").iterdir()
        }
        assert written and written == {
            path.name: path.read_bytes() for path in (tmp_path / "cached").iterdir()
        }

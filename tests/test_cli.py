import argparse
import hashlib
import json
import math
import os
import signal
import stat
import subprocess
import sys

from fractions import Fraction

import pytest

from turantools import cli, spectral
from turantools._realroots import LargestRoot
from turantools.cli import build_parser, main
from turantools.enumeration import generate
from turantools.graphs import to_graph6


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestGen:
    def test_stream_and_count(self, capsys):
        code, out, err = run_cli(["gen", "--n", "5", "--forbid", "K3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 14
        assert "14 classes" in err

    def test_pattern_larger_than_n(self, capsys):
        code, out, err = run_cli(["gen", "--n", "5", "--forbid", "K65"], capsys)
        assert code == 0 and len(out.splitlines()) == 34
        assert "34 classes" in err

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "c.g6"
        path.write_bytes(b"C~\n" * 20)
        code, out, _ = run_cli(["gen", "--n", "4", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert len(path.read_text().splitlines()) == 11
        assert [p.name for p in tmp_path.iterdir()] == ["c.g6"]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_rejected_size_keeps_out_file(self, tmp_path, capsys):
        path = tmp_path / "c.g6"
        path.write_bytes(b"C~\n")
        code, _, err = run_cli(["gen", "--n", "11", "--out", str(path)], capsys)
        assert code == 4 and "size cap" in err
        assert path.read_bytes() == b"C~\n"

    def test_failed_walk_keeps_out_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "c.g6"
        path.write_bytes(b"C~\n")
        written = []

        def failing_to_graph6(g):
            if len(written) == 3:
                raise RuntimeError("walk failed")
            written.append(g)
            return to_graph6(g)

        monkeypatch.setattr(cli, "to_graph6", failing_to_graph6)
        code, _, err = run_cli(["gen", "--n", "4", "--out", str(path)], capsys)
        assert code == 1 and "walk failed" in err
        assert len(written) == 3
        assert path.read_bytes() == b"C~\n"
        assert [p.name for p in tmp_path.iterdir()] == ["c.g6"]

    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "c.g6"
        code, out, err = run_cli(["gen", "--n", "4", "--out", str(path)], capsys)
        assert code == 2 and out == ""
        assert "cannot write --out" in err
        assert list(tmp_path.iterdir()) == []

    def test_out_is_a_directory_exits_2(self, tmp_path, capsys):
        target = tmp_path / "c.g6"
        target.mkdir()
        (target / "kept").write_bytes(b"C~\n")
        code, out, err = run_cli(["gen", "--n", "4", "--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert "cannot write --out" in err
        assert [p.name for p in tmp_path.iterdir()] == ["c.g6"]
        assert [p.name for p in target.iterdir()] == ["kept"]
        assert (target / "kept").read_bytes() == b"C~\n"

    def test_jobs_byte_identical(self, capsys):
        _, out1, _ = run_cli(["gen", "--n", "6", "--forbid", "K3", "--jobs", "1"], capsys)
        _, out2, _ = run_cli(["gen", "--n", "6", "--forbid", "K3", "--jobs", "2"], capsys)
        assert out1 == out2


class TestVerify:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--forbid", "K3", "--n-min", "3", "--n-max", "8"], capsys
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 7  # header + 6 data rows
        assert all("true" in row for row in rows[1:])

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--forbid", "K3", "--n-min", "3", "--n-max", "5", "--json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert [d["n"] for d in data] == [3, 4, 5]
        assert all(d["contained"] for d in data)
        assert data[2]["ex"] == 6

    def test_jobs_byte_identical(self, capsys):
        base = ["verify", "--forbid", "K3", "--n-min", "3", "--n-max", "6", "--json"]
        _, out1, _ = run_cli(base + ["--jobs", "1"], capsys)
        _, out2, _ = run_cli(base + ["--jobs", "2"], capsys)
        assert out1 == out2


class TestSpectral:
    def test_text(self, capsys):
        code, out, _ = run_cli(["spectral", "--g6", "D~{"], capsys)
        assert code == 0
        assert "lambda   4.0000000000" in out

    def test_json_exact(self, capsys):
        code, out, _ = run_cli(["spectral", "--g6", "D~{", "--exact", "--json"], capsys)
        payload = json.loads(out)
        assert payload["lambda"] == pytest.approx(4.0, abs=1e-9)
        assert payload["exact"] is True
        lo, hi = payload["certified_interval"]
        assert lo <= 4.0 <= hi and hi - lo <= 1e-11

    def test_certified_bounds_contain_the_radius(self, capsys):
        # every class on 2..7 vertices with an edge, text and JSON, against
        # an isolating interval of width 1e-40
        def side(x, lo, hi, cp):  # the sign of x - lambda
            if lo < x <= hi:  # only lambda itself comes that close
                assert sum(c * x**i for i, c in enumerate(cp)) == 0
                return 0
            return -1 if x <= lo else 1

        parser, missed, classes = build_parser(), [], 0
        for g in (g for n in range(2, 8) for g in generate(n) if g.m):
            classes += 1
            g6, cp = to_graph6(g), spectral.char_poly_exact(g)
            lo, hi = LargestRoot(cp).refine_to(Fraction(1, 10**40))
            for form in ("text", "json"):
                argv = ["spectral", "--g6", g6, "--exact"] + (["--json"] if form == "json" else [])
                assert cli._cmd_spectral(parser.parse_args(argv)) == 0
                out = capsys.readouterr().out
                if form == "json":
                    bounds = json.loads(out)["certified_interval"]
                else:
                    bounds = out.splitlines()[-1].removeprefix("certified [")[:-1].split(", ")
                if not side(Fraction(bounds[0]), lo, hi, cp) <= 0 <= side(Fraction(bounds[1]), lo, hi, cp):
                    missed.append((g6, form, bounds))
        assert classes == 1245
        assert missed == []

    def test_bad_g6_exits_3(self, capsys):
        code, _, err = run_cli(["spectral", "--g6", "D~"], capsys)
        assert code == 3
        assert "parse error" in err


class TestSecularTuran:
    def test_secular(self, capsys):
        code, out, _ = run_cli(["secular", "--parts", "2,2,1"], capsys)
        assert code == 0
        lam = float(out.splitlines()[0].split()[1])
        assert lam == pytest.approx(1 + math.sqrt(5), abs=1e-9)
        assert "charpoly 0 0 -8 -8 0 1" in out

    def test_secular_bad_parts(self, capsys):
        code, _, err = run_cli(["secular", "--parts", "2,x"], capsys)
        assert code == 3

    @pytest.mark.parametrize(
        "parts,offset",
        [("2_0,1", 0), ("\u0663,2", 0), ("2,,3", 2), ("2,3,", 4), ("", 0),
         ("7, -1", 3), ("+2", 0), ("2,3 4", 2), ("1, 2.0", 3)],
        ids=["underscore", "arabic-indic-digit", "empty-field", "trailing-comma",
             "empty", "minus", "plus", "inner-blank", "decimal-point"],
    )
    def test_secular_parts_are_ascii_digit_fields(self, capsys, parts, offset):
        code, out, err = run_cli(["secular", "--parts", parts], capsys)
        assert code == 3 and out == ""
        assert err.endswith(f"(byte {offset})\n"), err

    def test_secular_parts_allow_blanks_around_fields(self, capsys):
        assert run_cli(["secular", "--parts", "2, 2 ,1"], capsys) == \
            run_cli(["secular", "--parts", "2,2,1"], capsys)

    @pytest.mark.parametrize(
        "argv,line",
        [(["secular", "--parts", "1,10,17,20"], "lambda 31.9977416877"),
         (["turan", "--n", "78", "--r", "51"], "lambda 76.3104367407"),
         (["turan", "--n", "1500000", "--r", "1000000"], "lambda 1499998.3333334816")],
        ids=["secular", "turan", "turan-million-parts"],
    )
    def test_radius_is_correctly_rounded(self, capsys, argv, line):
        # the printed digits round the correctly rounded double
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert line in out.splitlines()

    def test_secular_nonpositive_part_exits_2(self, capsys):
        code, _, _ = run_cli(["secular", "--parts", "2,0"], capsys)
        assert code == 2

    def test_turan(self, capsys):
        code, out, _ = run_cli(["turan", "--n", "7", "--r", "3"], capsys)
        assert code == 0
        assert "edges  16" in out
        assert "lambda 4.6055512755" in out

    def test_turan_invalid_exits_2(self, capsys):
        code, _, _ = run_cli(["turan", "--n", "3", "--r", "9"], capsys)
        assert code == 2

    def test_turan_one_part(self, capsys):
        # T(n, 1) is edgeless: the closed form's divisible case
        code, out, _ = run_cli(["turan", "--n", "6", "--r", "1"], capsys)
        assert code == 0
        assert out.splitlines() == ["parts  6", "edges  0", "lambda 0.0000000000",
                                    "y1     1.0000000000", "y2     1.0000000000"]

    def test_secular_prints_below_the_digit_cap(self, capsys):
        # K_2000: 2 001 coefficients of at most 606 digits each, by the bound
        code, out, _ = run_cli(["secular", "--parts", ",".join(["1"] * 2000)], capsys)
        assert code == 0
        lam, poly = out.splitlines()
        assert lam == "lambda 1999.0000000000"
        assert len(poly.split()) == 1 + 2001


class TestDiagnose:
    def test_text(self, capsys):
        code, out, _ = run_cli(
            ["diagnose", "--g6", "EFz_", "--forbid", "K3", "--a", "0"], capsys
        )
        assert code == 0
        assert out.count("[holds]") == 7

    def test_json(self, capsys):
        code, out, _ = run_cli(
            ["diagnose", "--g6", "EFz_", "--forbid", "K3", "--a", "0", "--json"],
            capsys,
        )
        payload = json.loads(out)
        assert {c["check_id"] for c in payload["checks"]} == {
            "spectral_lower_bound",
            "internal_edges_per_part",
            "internal_vertices_per_part",
            "independent_vertices_fully_joined",
            "perron_entry_floor",
            "internal_minus_missing",
            "part_balance",
        }
        assert payload["partition"]["balanced"] is True
        assert payload["degree_classes"]["heavy_within_low"] is True

    def test_negative_excess_exits_2(self, capsys):
        code, out, err = run_cli(
            ["diagnose", "--g6", "EFz_", "--forbid", "K3", "--a", "-3"], capsys
        )
        assert code == 2 and out == ""
        assert "cannot be negative" in err


class TestEnvOverrides:
    def test_tol_env_is_ignored(self, monkeypatch, capsys):
        monkeypatch.delenv("TOL", raising=False)
        plain = run_cli(["spectral", "--g6", "D~{"], capsys)
        monkeypatch.setenv("TOL", "nan")
        assert run_cli(["spectral", "--g6", "D~{"], capsys) == plain
        assert plain[0] == 0

    def test_jobs_env_sets_default(self, monkeypatch):
        from turantools.cli import build_parser

        monkeypatch.setenv("JOBS", "3")
        args = build_parser().parse_args(["gen", "--n", "4"])
        assert args.jobs == 3

    @pytest.mark.parametrize(
        "name,value,argv",
        [
            ("JOBS", "abc", ["gen", "--n", "4"]),
            ("JOBS", "0", ["extremal", "--n", "4", "--forbid", "K3"]),
        ],
    )
    def test_bad_env_value_exits_2(self, monkeypatch, capsys, name, value, argv):
        monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"--{name.lower()}" in capsys.readouterr().err


class TestOptionInventory:
    """Every option of every subcommand; a new setting is added here."""

    OPTIONS = {
        "gen": {"--n", "--forbid", "--out", "--jobs"},
        "extremal": {"--n", "--forbid", "--json", "--jobs"},
        "verify": {"--forbid", "--n-min", "--n-max", "--json", "--jobs"},
        "spectral": {"--g6", "--tol", "--exact", "--json"},
        "secular": {"--parts"},
        "turan": {"--n", "--r"},
        "diagnose": {"--g6", "--forbid", "--a", "--theta", "--epsilon", "--json"},
    }

    def test_subcommand_options(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.OPTIONS)
        for name, command in sub.choices.items():
            got = {s for a in command._actions for s in a.option_strings}
            assert got == self.OPTIONS[name] | {"-h", "--help"}, name

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--forbid", "K3", "--n-min", "3", "--n-max", "4", "--tol", "1e-4"],
            ["extremal", "--n", "4", "--forbid", "K3", "--tol", "1e-4"],
            ["secular", "--parts", "2,2", "--tol", "1e-4"],
        ],
        ids=["verify", "extremal", "secular"],
    )
    def test_scan_tolerance_is_not_an_option(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestExitCodes:
    def test_size_cap_exits_4(self, capsys):
        code, _, err = run_cli(["gen", "--n", "11"], capsys)
        assert code == 4
        assert "size cap" in err

    def test_size_only_pattern_over_the_pair_cap_exits_4(self, capsys):
        code, out, err = run_cli(["verify", "--forbid", "F2,3000", "--n-min", "3",
                                  "--n-max", "4"], capsys)
        assert (code, out) == (4, "")
        assert "size cap" in err and "'F2,3000'" in err

    @pytest.mark.parametrize("token", ["K" + "9" * 5000, "F" + "9" * 5000, "F2," + "9" * 5000],
                             ids=["K", "Fk", "Fks"])
    def test_size_only_pattern_past_int_digits_exits_4(self, capsys, token):
        # past 4 300 digits int() itself refuses the run (exit 2, with
        # advice about an interpreter setting); the digit count comes first
        code, out, err = run_cli(["verify", "--forbid", token, "--n-min", "3", "--n-max", "4"],
                                 capsys)
        assert (code, out) == (4, "")
        assert err.startswith("size cap: ") and "a size with 5000 digits" in err

    @pytest.mark.parametrize("token", ["K0003", "K" + "0" * 5000 + "3"], ids=["4", "5001"])
    def test_zero_padded_size_is_read_as_its_value(self, capsys, token):
        argv = ["verify", "--n-min", "3", "--n-max", "5", "--forbid"]
        k3 = run_cli(argv + ["K3"], capsys)
        assert run_cli(argv + [token], capsys) == k3
        assert k3[0] == 0

    @pytest.mark.parametrize(
        "parts", ["10000000,1", "99999999999999999999,1", ",".join(["1"] * 65000)],
        ids=["zeros", "past-2^53", "digits"])
    def test_size_capped_parts_exit_4_before_allocating(self, parts):
        # the grandchild's peak RSS, in KiB, read by its only parent
        probe = ("import resource, subprocess, sys\n"
                 "proc = subprocess.run([sys.executable, '-m', 'turantools', *sys.argv[1:]],"
                 " capture_output=True)\n"
                 "print(proc.returncode, len(proc.stdout),"
                 " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        proc = subprocess.run([sys.executable, "-c", probe, "secular", "--parts", parts],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, stdout_bytes, maxrss_kib = map(int, proc.stdout.split())
        assert (code, stdout_bytes) == (4, 0)
        assert maxrss_kib < 100 * 1024

    def test_usage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen"])  # missing --n
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "4", "--jobs", "0"],
            ["gen", "--n", "4", "--jobs", "-2"],
            ["spectral", "--g6", "C~", "--tol", "oops"],
            ["gen", "--n", "4", "--jobs", "oops"],
            ["spectral", "--g6", "C~", "--exact", "--tol", "oops"],
        ],
    )
    def test_bad_jobs_or_tol_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "1e-20", "-1"])
    def test_tol_out_of_range_exits_2(self, tol, capsys):
        # spectral_radius refuses it before any output
        code, out, err = run_cli(["spectral", "--g6", "C~", "--exact", "--tol", tol], capsys)
        assert (code, out) == (2, "")
        assert "tol" in err

    def test_stalled_power_iteration_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "ITERATION_CAP", 1)
        code, _, err = run_cli(["extremal", "--n", "5", "--forbid", "K3"], capsys)
        assert code == 1
        assert err.startswith("error: power iteration stalled on")

    def test_extremal_command(self, capsys):
        code, out, _ = run_cli(["extremal", "--n", "5", "--forbid", "K3", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ex"] == 6 and payload["excess"] == 0
        assert payload["edge_extremal"] == payload["spectral_extremal"] == ["DFw"]

    def test_extremal_below_r_vertices(self, capsys):
        code, out, _ = run_cli(["extremal", "--n", "2", "--forbid", "K4", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["ex"] == payload["turan_edges"] == 1 and payload["excess"] == 0


class TestPinnedOutputs:
    """Exact-layer outputs recorded before the integer-only rewrite of
    that layer; a drift in sample points, Sturm chains or verdicts
    changes them.  The power-iteration floats are pinned only in
    ``test_spectral_json``, since BLAS rounding may differ between
    machines."""

    @pytest.mark.parametrize(
        "g6,interval",
        [
            ("Dhc", [1.9999999999993936, 2.0000000000003033]),
            ("C~", [2.999999999999394, 3.0000000000003033]),
            ("IheA@GUAo", [2.999999999999394, 3.0000000000001896]),
            ("K?~vfb~~v}^w", [7.99999999999928, 8.000000000000218]),
            ("QpwuLhyp~i^hdRrVcRsMvpywT\\w", [10.41608049815137, 10.416080498151997]),
            # the nearest double to lo, 2.7964374026209575, is above lambda
            ("ECzo", [2.796437402620957, 2.796437402621469]),
        ],
        ids=["C5", "K4", "Petersen", "T(12,3)", "G(18,1/2)", "ECzo-lo-moved-out"],
    )
    def test_spectral_certified_interval(self, capsys, g6, interval):
        code, out, _ = run_cli(["spectral", "--g6", g6, "--exact", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["certified_interval"] == interval

    def test_certified_text_bound_moved_out(self, capsys):
        # the nearest 13-decimal lo, 3.6457513110646, is above
        # lambda = 3.64575131106459...
        code, out, _ = run_cli(["spectral", "--g6", "D^{", "--exact"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "certified [3.6457513110645, 3.6457513110651]"

    def test_verify_c5_free(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--forbid", "g6:Dhc", "--n-min", "4", "--n-max", "7", "--json"],
            capsys,
        )
        assert code == 0
        got = [
            (d["n"], d["ex"], d["edge_extremal"], d["spectral_extremal"],
             d["contained"], d["lambda_exact"])
            for d in json.loads(out)
        ]
        assert got == [
            (4, 6, ["C~"], ["C~"], True, False),
            (5, 7, ["DF{", "DJ{"], ["DJ{"], True, False),
            (6, 9, ["E?~w", "EFz_", "E`Nw"], ["E?~w"], True, False),
            (7, 12, ["F?~v_", "FJaNw"], ["F?B~w"], False, False),
        ]

    @pytest.mark.parametrize(
        "g6,digest",
        [
            ("D~{", "f59fa459e04d1fe27eec00931a1a2c538f1b69a9992a2a38329e00a7ad75cffe"),
            ("DwC", "cd0fcdc2c4d977cf8c641a320df88ed2ca6c57253ae326aa6aab1db11dec9602"),
            ("G?~vf_", "e9a05a1337bd5d9e9b773aa3c4490930fa51cd7c6e89e8c93c88443e9e8d52de"),
            ("G?`cr_", "ce7989b11b2783a0a4e16a30f8c5f78b279c1a20872e4a1fdd557390b648436b"),
        ],
        ids=["K5-1-sweep", "K3+K2", "K44", "F2-free-197-sweeps"],
    )
    def test_spectral_json(self, capsys, g6, digest):
        # every float repr, the Perron vector's zero padding and the sweep
        # count; recorded with numpy 2.4.6 and its bundled OpenBLAS on x86-64
        code, out, _ = run_cli(["spectral", "--g6", g6, "--json"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["diagnose", "--g6", "K_~vfb~~v}^w", "--forbid", "K4", "--a", "1", "--json"],
             "21b4ac7e2201238606f6d3cf2e8f685d12574b8d34fdc73997434ab2c2aa6141"),
            (["diagnose", "--g6", "L_~vf~}~f~~}~{", "--forbid", "K5", "--a", "1", "--json"],
             "f8e7d55e2ce0498657b1e9c5d544d04e01708533fa2388fa0f0c2fb24edc111d"),
            (["secular", "--parts", "30,20,10,7,3,1"],
             "5a75eeba32d3fdc6afae2c862c60417484b869de4fe4e4ba3d5c3a35556c769d"),
            (["turan", "--n", "7", "--r", "3"],
             "24bdd2f36d58e94e7b0ae8714e6db06c3d30e88ecf62c46651644ed066581eab"),
            (["spectral", "--g6", "G?~vf_", "--exact", "--json"],
             "18effb6b73878f6ed4822b38e19d313d02505bb10e829e9aa1814718b80dc50c"),
            (["verify", "--forbid", "K4", "--n-min", "4", "--n-max", "8", "--json"],
             "2a1639d08aeb3c1df830d7583d5a2545a93ea5979fa36d58b14ca33d2020cbf4"),
            (["extremal", "--n", "8", "--forbid", "g6:DUW", "--json"],
             "ad5d76649badf88b776dfcb90f8feba790b8c8317afcafe6888c41d40b6b4795"),
        ],
        ids=["diagnose-T(12,3)+e-certified", "diagnose-T(13,4)+e-local",
             "secular", "turan", "spectral-K44-exact", "verify-K4-4-8", "extremal-C5-8"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        # T(12,3) plus a part edge is searched exhaustively; T(13,4) plus a
        # part edge has 4^13 > AUTO_EXHAUSTIVE_BUDGET r-assignments, so it
        # takes the seeded local search.  The 2-walk bound spares about
        # 95% of the classes power iteration in the two scans; C5-free at
        # n = 8 has an exact tie
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_closed_stdout_ends_quietly():
    # a reader that stops after one line (``| head -1``): exit 0, nothing
    # on stderr, and no worker of the pool left behind.  The run has its
    # own process group, which is empty once every process in it is gone.
    proc = subprocess.Popen(
        [sys.executable, "-m", "turantools", "gen", "--n", "8", "--jobs", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        assert proc.stdout.readline() == b"G?????\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        assert proc.stderr.read() == b""  # EOF: no process holds stderr open
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stderr.close()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "turantools", "turan", "--n", "4", "--r", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "edges  4" in proc.stdout

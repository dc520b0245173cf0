"""CLI contract tests: determinism, schema, exit codes, recomputability."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frspectra
from frspectra.cli import (
    MAX_VALUES,
    UserInputError,
    _format_csv_value,
    _sanitize_json,
    _sweep_combos,
    build_parser,
    main,
    parse_range,
)
from frspectra.basis import CorrectionFamily
from frspectra.operator import SchemeConfig, StretchedStencil
from frspectra.spectrum import dispersion_sweep


def run_cli(args, capsys=None):
    code = main(args)
    return code


class TestRangeParsing:
    def test_single_value(self):
        assert parse_range("3") == [3.0]
        assert parse_range("3", integer=True) == [3]

    def test_inclusive_when_step_divides(self):
        assert parse_range("0:90:45") == [0.0, 45.0, 90.0]
        assert parse_range("1:2:0.25") == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_open_end_when_step_does_not_divide(self):
        assert parse_range("0:1:0.4") == [0.0, 0.4, 0.8]

    def test_bad_ranges(self):
        from frspectra.cli import UserInputError

        for text in (
            "a", "1:2", "1:2:0", "1:2:3:4", "2:1:1",
            "nan", "inf", "-inf", "0:inf:1", "nan:1:0.5", "0:1:inf", "0:1e308:1e-308",
        ):
            with pytest.raises(UserInputError):
                parse_range(text)
        for text in ("2:3:0.5", "2.7"):
            with pytest.raises(UserInputError):
                parse_range(text, integer=True)

    def test_range_longer_than_the_cap_is_rejected(self):
        assert len(parse_range("0:999999:1")) == MAX_VALUES
        with pytest.raises(UserInputError, match="more than 1000000 values"):
            parse_range("0:1:1e-6")  # 1,000,001 values


class TestUserErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["dispersion", "--khat", "nan"],
            ["dispersion", "--alpha", "inf"],
            ["dispersion", "--gx", "nan"],
            ["fully-discrete", "--tau", "-1"],
            ["fully-discrete", "--tau", "nan"],
            ["fully-discrete", "--tau", "inf"],
            ["verify", "--khat", "nan"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_non_finite_or_non_positive_input_exits_1(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "frspectra:" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cfl", "--d", "1", "--rk", "foo"],
            ["fully-discrete", "--d", "1", "--tau", "0.1", "--rk", "foo"],
            ["verify", "--rk", "foo"],
            ["verify", "--tol", "-1"],
            ["verify", "--tol", "0"],
            ["verify", "--tol", "nan"],
            ["verify", "--tol", "inf"],
            ["verify", "--d", "2", "--theta", "120"],
            ["verify", "--d", "2", "--theta", "-5"],
            ["verify", "--d", "1", "--theta", "30"],
            ["mesh", "--dims", "0"],
            ["mesh", "--extent", "-1"],
            ["mesh", "--extent", "nan"],
            ["mesh", "--extent", "inf"],
            ["mesh", "--jitter", "-0.5"],
            ["mesh", "--jitter", "nan"],
            ["verify", "--p", "0"],
            ["verify", "--alpha", "2"],
            ["verify", "--family", "osfr"],
            ["verify", "--p", "2:3:1"],
            ["verify", "--khat", "0.5:1:0.5"],
            ["verify", "--alpha", "0.5:1:0.5"],
            ["verify", "--d", "2", "--theta", "0:30:30"],
            ["verify", "--family", "osfr", "--iota", "0.1:0.2:0.1"],
            ["verify", "--khat", "0"],
            ["verify", "--khat", "-1"],
            ["verify", "--khat", "20"],
            ["verify", "--khat", "3.2"],
            ["dispersion", "--d", "1", "--khat", "0:1:0.5"],
            ["condition", "--d", "1", "--khat", "-1"],
            ["fully-discrete", "--d", "1", "--tau", "0.1", "--khat", "0"],
            ["dispersion", "--dx", "0"],
            ["dispersion", "--dy", "0"],
            ["dispersion", "--d", "3", "--dz", "0"],
            ["cfl", "--dx", "0"],
            ["cfl", "--dy", "0"],
            ["cfl", "--dz", "0"],
            ["fully-discrete", "--tau", "0.1", "--dx", "0"],
            ["fully-discrete", "--tau", "0.1", "--dy", "0"],
            ["fully-discrete", "--tau", "0.1", "--dz", "0"],
            ["dispersion", "--dx", "-1"],
            ["cfl", "--dx", "-1:1:1"],
            ["dispersion", "--gx", "0"],
            ["cfl", "--gy", "-0.5"],
            ["fully-discrete", "--tau", "0.1", "--d", "3", "--gz", "0"],
            ["dispersion", "--p", "0"],
            ["cfl", "--p", "0:2:1"],
            ["fully-discrete", "--tau", "0.1", "--p", "-1"],
            ["dispersion", "--d", "1", "--threads", "0"],
            ["cfl", "--d", "1", "--threads", "-1"],
            ["fully-discrete", "--d", "1", "--tau", "0.1", "--threads", "0"],
            ["condition", "--d", "1", "--threads", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_bad_scheme_or_parameter_exits_1(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "frspectra:" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["dispersion", "--d", "1", "--p", "3", "--khat", "4"],
            ["fully-discrete", "--d", "1", "--p", "3", "--tau", "0.1", "--khat", "4"],
            ["condition", "--d", "1", "--khat", "0.5:3.5:1"],
            ["dispersion", "--d", "1", "--khat", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_khat_outside_zero_to_pi_exits_1(self, argv, capsys):
        # above pi the wave aliases, as verify already reports
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("frspectra: --khat:")

    def test_sweep_larger_than_the_cap_exits_1(self, capsys):
        # 1000 x 1001 combos, each range well within the range cap
        argv = ["cfl", "--d", "2", "--theta", "45", "--gx", "1:1000:1", "--gy", "1:1001:1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "frspectra: the sweep has more than 1000000 combinations\n"

    @pytest.mark.parametrize(
        "argv",
        [["dispersion", "--d", "1", "--p", "2", "--khat", "1"], ["mesh", "--dims", "2"]],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_output_exits_1(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out.txt"
        assert main(argv + ["-o", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"frspectra: cannot write {path}: No such file or directory\n"

    def test_rk_name_is_case_insensitive(self, capsys):
        argv = ["cfl", "--d", "1", "--p", "1"]
        assert main(argv + ["--rk", "RK44"]) == 0
        upper = capsys.readouterr().out
        assert main(argv + ["--rk", "rk44"]) == 0
        assert upper == capsys.readouterr().out


class TestVerify:
    @staticmethod
    def lines(argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        return [line for line in out if line.startswith(("wavenumber", "predicted"))]

    def test_grid_aligned_angles_reduce_to_1d(self, capsys):
        # cos(pi/2) = 6.1e-17 is a direction the wave does not move in, as
        # sin(0) = 0 is: both angles must run the 1D problem
        at_0 = self.lines(["verify", "--d", "2", "--theta", "0"], capsys)
        at_90 = self.lines(["verify", "--d", "2", "--theta", "90"], capsys)
        assert at_90 == at_0
        assert at_90 == [
            "wavenumber: k = 3.14159 (khat = 1.0472)",
            "predicted rate 2*Im(omega): -5.800481066466e-01",
        ]

    def test_config_line_holds_plain_floats(self, capsys):
        assert main(["verify", "--d", "2", "--theta", "45", "--p", "3", "--alpha", "0.5"]) == 0
        assert "np.float64" not in capsys.readouterr().out


class TestParserReuse:
    COMMANDS = [
        ["fully-discrete", "--d", "2", "--p", "2", "--theta", "30", "--tau", "0.18",
         "--khat", "0.5:1.5:0.5"],
        ["cfl", "--d", "2", "--p", "2", "--theta", "30"],
        ["dispersion", "--d", "2", "--p", "2", "--theta", "30", "--khat", "0.5:1.5:0.5"],
    ]

    @staticmethod
    def comparable(argv, out):
        if "json" not in argv:
            return out
        doc = json.loads(out)
        del doc["metadata"]["created"]
        return doc

    def test_back_to_back_commands_match_lone_runs(self, capsys):
        # each command alone in a fresh process, then all in this one: a leaked
        # default or --tau would change the rows or the JSON spec echo
        src = str(Path(frspectra.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        runs = [argv + fmt for argv in self.COMMANDS for fmt in ([], ["--format", "json"])]
        alone = [
            subprocess.run(
                [sys.executable, "-m", "frspectra.cli", *argv],
                env=env, capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for argv in runs
        ]
        build_parser.cache_clear()
        together = []
        for argv in runs:
            assert main(argv) == 0
            together.append(capsys.readouterr().out)
        assert build_parser.cache_info().misses == 1
        for argv, lone, shared in zip(runs, alone, together):
            assert self.comparable(argv, shared) == self.comparable(argv, lone)


class TestSweepCombos:
    def test_canonical_order(self):
        args = build_parser().parse_args([
            "dispersion", "--d", "3", "--p", "2:3:1", "--family", "dg,osfr",
            "--iota", "0:0.1:0.1", "--alpha", "0.5:1:0.5", "--gx", "1:1.1:0.1",
            "--dz", "1:2:1", "--theta", "0:90:90", "--phi", "0:45:45",
        ])
        expected = [
            (p, fam, iota, alpha, gx, dz, theta, phi)
            for p in (2, 3)
            for fam, iota in (("dg", None), ("osfr", 0.0), ("osfr", 0.1))
            for alpha in (0.5, 1.0)
            for gx in (1.0, 1.1)
            for dz in (1.0, 2.0)
            for theta in (0.0, 90.0)
            for phi in (0.0, 45.0)
        ]
        got = [
            (c["p"], c["family"], c["iota"], c["alpha"], c["gx"], c["dz"], c["theta"], c["phi"])
            for c in _sweep_combos(args)
        ]
        assert got == expected


class TestDispersionCommand:
    def test_csv_deterministic_and_recomputable(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = [
            "dispersion", "--d", "1", "--p", "3", "--family", "huynh",
            "--alpha", "1", "--gx", "1.1", "--theta", "0",
            "--khat", "0.5:1.5:0.5", "-o",
        ]
        assert run_cli(args + [str(out1)]) == 0
        assert run_cli(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        lines = out1.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["p", "family", "iota", "alpha"]
        assert lines[1:], "expected data rows"
        row = dict(zip(header, lines[1].split(",")))
        # recompute through the library
        scheme = SchemeConfig(3, CorrectionFamily.huynh_g2(3), 1.0, 1)
        stencil = StretchedStencil(1, (1.0,), (1.1,))
        sweep = dispersion_sweep(scheme, stencil, k_hat=np.array([0.5, 1.0, 1.5]))
        assert float(row["re_omega_hat"]) == sweep.omega_hat_physical[0].real
        assert float(row["im_omega_hat"]) == sweep.omega_hat_physical[0].imag
        assert float(row["kappa"]) == sweep.kappa[0]

    def test_threads_do_not_change_bytes(self, tmp_path):
        base = [
            "dispersion", "--d", "2", "--p", "2", "--family", "dg",
            "--theta", "0:90:45", "--khat", "1.0", "--format", "csv", "-o",
        ]
        one = tmp_path / "t1.csv"
        four = tmp_path / "t4.csv"
        assert run_cli(base + [str(one), "--threads", "1"]) == 0
        assert run_cli(base + [str(four), "--threads", "4"]) == 0
        assert one.read_bytes() == four.read_bytes()

    def test_pool_starts_no_more_workers_than_cpus_or_combos(self, monkeypatch):
        import concurrent.futures

        class Started(Exception):
            pass

        sizes = []

        def recording_pool(max_workers=None):
            sizes.append(max_workers)
            raise Started  # start no thread and no sweep

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        base = ["dispersion", "--d", "2", "--p", "2", "--khat", "1.0"]
        with pytest.raises(Started):  # 9001 combos
            run_cli(base + ["--theta", "0:90:0.01", "--threads", "100000"])
        with pytest.raises(Started):  # 2 combos
            run_cli(base + ["--theta", "0:90:90", "--threads", "8"])
        assert sizes == [3, 2]

    def test_one_available_cpu_runs_inline(self, tmp_path, monkeypatch):
        import concurrent.futures

        base = [
            "dispersion", "--d", "2", "--p", "2", "--family", "dg",
            "--theta", "0:90:45", "--khat", "1.0", "-o",
        ]
        assert run_cli(base + [str(tmp_path / "t1.csv")]) == 0

        def no_pool(max_workers=None):
            pytest.fail(f"started a pool of {max_workers} on one CPU")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert run_cli(base + [str(tmp_path / "t4.csv"), "--threads", "4"]) == 0
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t4.csv").read_bytes()

    def test_json_mirror_matches_csv(self, tmp_path):
        args = [
            "dispersion", "--d", "1", "--p", "2", "--family", "dg",
            "--theta", "0", "--khat", "0.8",
        ]
        csv_path = tmp_path / "o.csv"
        json_path = tmp_path / "o.json"
        assert run_cli(args + ["-o", str(csv_path)]) == 0
        assert run_cli(args + ["--format", "json", "-o", str(json_path)]) == 0
        doc = json.loads(json_path.read_text())
        assert doc["command"] == "dispersion"
        assert "created" in doc["metadata"]
        assert doc["metadata"]["spec"]["p"] == "2"
        header = csv_path.read_text().splitlines()[0].split(",")
        assert doc["columns"] == header
        csv_row = csv_path.read_text().splitlines()[1].split(",")
        json_row = doc["rows"][0]
        i = header.index("re_omega_hat")
        assert float(csv_row[i]) == json_row[i]

    def test_json_determinism_modulo_timestamp(self, tmp_path):
        args = [
            "dispersion", "--d", "1", "--p", "1", "--family", "dg",
            "--theta", "0", "--khat", "1.0", "--format", "json", "-o",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(args + [str(a)]) == 0
        assert run_cli(args + [str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da["metadata"].pop("created")
        db["metadata"].pop("created")
        assert da == db

    def test_condition_is_dispersion_by_another_name(self, capsys):
        args = ["--d", "2", "--p", "2", "--gx", "1.1", "--theta", "0:90:45", "--khat", "0.5:1:0.5"]
        csv = []
        for command in ("dispersion", "condition"):
            assert main([command, *args]) == 0
            csv.append(capsys.readouterr().out)
        assert csv[0] and csv[0] == csv[1]
        assert main(["condition", *args, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == "condition"

    def test_osfr_requires_iota(self, capsys):
        code = run_cli(["dispersion", "--d", "1", "--family", "osfr", "--theta", "0"])
        assert code == 1
        assert "iota" in capsys.readouterr().err

    def test_unknown_family_is_user_error(self, capsys):
        code = run_cli(["dispersion", "--family", "radau"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--family" in err and "radau" in err

    def test_row_error_marker_and_exit_2(self, tmp_path, capsys):
        # iota below the stable bound fails during computation, not parsing:
        # the sweep continues and exits with the numerical-failure code
        out = tmp_path / "o.csv"
        code = run_cli(
            [
                "dispersion", "--d", "1", "--p", "3", "--family", "osfr",
                "--iota", "-100.0", "--theta", "0", "--khat", "1.0",
                "-o", str(out),
            ]
        )
        assert code == 2
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "error:ValueError" in lines[1]


@pytest.mark.parametrize(
    "value, text",
    [
        (None, ""),
        (True, "1"),
        (np.True_, "1"),
        (np.False_, "0"),
        (3, "3"),
        (np.int64(3), "3"),
        (1.5, "1.50000000000000000e+00"),
        (np.float64(1.5), "1.50000000000000000e+00"),
        (np.float32(1.5), "1.50000000000000000e+00"),
        (np.float32(0.1), "1.00000001490116119e-01"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        ("ok", "ok"),
    ],
    ids=repr,
)
def test_csv_value_bytes(value, text):
    assert _format_csv_value(value) == text


@pytest.mark.parametrize(
    "value, text",
    [
        (np.True_, "1"),
        (np.False_, "0"),
        (True, "1"),
        (np.int64(3), "3"),
        (np.float64("nan"), "null"),
        (np.float64(0.5), "0.5"),
    ],
    ids=repr,
)
def test_json_value_matches_the_csv_spelling(value, text):
    # a boolean is 1/0 in both formats; a non-finite float is null
    assert json.dumps(_sanitize_json(value)) == text


class TestRowErrors:
    @pytest.mark.parametrize(
        "argv, khats",
        [
            (["cfl"], [""]),
            (["fully-discrete", "--tau", "0.01", "--khat", "0.5:1.5:0.5"], [0.5, 1.0, 1.5]),
        ],
        ids=["cfl", "fully-discrete"],
    )
    def test_error_row_per_khat_and_exit_2(self, argv, khats, capsys):
        # the dispersion case is test_row_error_marker_and_exit_2
        osfr = ["--d", "1", "--p", "3", "--family", "osfr", "--iota", "-100.0", "--theta", "0"]
        assert main(argv + osfr) == 2
        header, *lines = capsys.readouterr().out.splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert [row["status"] for row in rows] == ["error:ValueError"] * len(khats)
        assert [row["khat"] and float(row["khat"]) for row in rows] == khats


class TestCflCommand:
    def test_cfl_row_schema(self, tmp_path):
        out = tmp_path / "cfl.csv"
        code = run_cli(
            [
                "cfl", "--d", "2", "--p", "2", "--family", "huynh",
                "--rk", "rk44", "--theta", "0:90:90", "-o", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        for col in ("cfl_limit", "cfl_crossing", "tau_limit", "worst_k", "stable"):
            assert col in header
        assert len(lines) == 3
        row0 = dict(zip(header, lines[1].split(",")))
        row90 = dict(zip(header, lines[2].split(",")))
        assert float(row0["cfl_limit"]) > 0
        # grid-aligned symmetry of the square grid
        assert abs(float(row0["cfl_limit"]) - float(row90["cfl_limit"])) < 1e-3


class TestFullyDiscreteCommand:
    def test_requires_tau(self, capsys):
        code = run_cli(["fully-discrete", "--d", "1", "--theta", "0"])
        assert code == 1

    def test_runs(self, tmp_path):
        out = tmp_path / "fd.csv"
        code = run_cli(
            [
                "fully-discrete", "--d", "1", "--p", "2", "--family", "huynh",
                "--theta", "0", "--tau", "0.05", "--khat", "0.5:1.5:0.5",
                "-o", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_idle_direction_prints_the_2d_rows(self, capsys):
        # at theta = 0 the wave does not move in y, so the 3D sweep at phi = 45
        # is the 2D one at theta = 45; tracked over the repeated modes of y,
        # it printed error:ModeAmbiguityError in every row
        common = ["--p", "4", "--alpha", "0.75", "--tau", "0.05", "--khat", "0.5:3:0.5"]
        rows = {}
        for d, angles in ((3, ["--theta", "0", "--phi", "45"]), (2, ["--theta", "45"])):
            assert main(["fully-discrete", "--d", str(d), *angles, *common]) == 0
            header, *lines = capsys.readouterr().out.splitlines()
            rows[d] = [dict(zip(header.split(","), line.split(","))) for line in lines]
        fields = ("khat", "re_omega_hat", "im_omega_hat", "kappa", "status")
        assert len(rows[3]) == 6 and {row["status"] for row in rows[3]} == {"ok"}
        assert [[row[f] for f in fields] for row in rows[3]] == [
            [row[f] for f in fields] for row in rows[2]
        ]


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        code = run_cli(
            ["verify", "--p", "2", "--d", "1", "--family", "dg", "--khat", "1.0"]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[-1] == "PASS"
        assert "'nsteps': 16" in out[0]
        assert out[2].startswith("predicted rate")
        residual = out[-2]
        assert residual.startswith("amplification residual: ")
        assert residual.endswith(" (bound 1.0e-12)")
        assert float(residual.split()[2]) <= 1e-12

    def test_verify_2d_theta30(self, capsys):
        code = run_cli(
            [
                "verify", "--p", "2", "--d", "2", "--theta", "30",
                "--khat", "1.0", "--family", "huynh",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out


class TestMeshCommand:
    def test_mesh_writes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "mesh.txt"
        code = run_cli(
            ["mesh", "--dims", "4", "--jitter", "0.3", "--seed", "11", "-o", str(out)]
        )
        assert code == 0
        assert "q_h mean=" in capsys.readouterr().out
        from frspectra.mesh import generate, write_mesh

        expected = tmp_path / "expected.txt"
        write_mesh(generate(4, 1.0, 0.3, 11), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_mesh_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert run_cli(
                ["mesh", "--dims", "4", "--jitter", "0.5", "--seed", "3", "-o", str(path)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

"""End-to-end tests of the command-line interface.

main() is invoked in process; outputs go to tmp_path files or are
captured from stdout.  Exit codes: 0 success, 1 parameter problems,
2 I/O failures, 3 validation failures.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from cbs2.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def after_default_path(expression):
    """The value of expression, printed by a fresh interpreter after it has
    imported cbs2.cli, as every `cbs2` command does, and run the
    enhancement, spectrum and Monte-Carlo paths, and the spline paths: the
    windowed weights and the filtered enhancement of a grid without
    quadrature weights."""
    code = (
        "import dataclasses, sys, numpy as np\n"
        "import cbs2.cli\n"
        "from cbs2.analysis import filtered_enhancement, window_stats\n"
        "from cbs2.average import AverageSpec, mc_average\n"
        "from cbs2.geometry import Configuration, PhysParams\n"
        "from cbs2.perturbation import numeric_enhancement\n"
        "from cbs2.spectrum import SpectrumEngine, oracle_spectrum_result\n"
        "params, cfg = PhysParams(omega=1.0), Configuration()\n"
        "numeric_enhancement(params, cfg)\n"
        "SpectrumEngine(params, cfg).densities(np.linspace(-5.0, 5.0, 41))\n"
        "mc_average(AverageSpec(samples=1000))\n"
        "spec = dataclasses.replace(oracle_spectrum_result(100.0), quad_weights=None)\n"
        "window_stats(spec, 'crossed', 50.0, 25.0)\n"
        "filtered_enhancement(spec, 100.0, 25.0)\n"
        f"print({expression})\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.strip()


def test_import_leaves_out_scipy_interpolate():
    # numpy is the package's only runtime dependency: importing
    # scipy.interpolate would be most of a CLI call's time and about 50 MiB
    # of its memory.  In a fresh interpreter, neither the default paths nor
    # the spline paths load any scipy module.
    modules = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    assert after_default_path(modules) == "[]"


def test_default_path_leaves_out_numpy_ma():
    # np.unique and np.union1d import numpy.ma on their first call, which
    # costs about 20 ms per process; the same paths must not load it
    assert after_default_path("'numpy.ma' in sys.modules") == "False"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "cbs2" in capsys.readouterr().out


def test_unknown_flag_exits_1(capsys):
    code, _, err = run(capsys, "enhancement-curve", "--bananas")
    assert code == 1
    assert "error" in err.lower()


def test_enhancement_curve_output(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "enhancement-curve", "--s-min", "0.001", "--s-max", "1000",
        "--points", "7", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,alpha_analytic,alpha_numeric,abs_diff"
    assert len(lines) == 8
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1e-3)
    assert float(first[1]) == pytest.approx(2.0 - 0.25e-3, abs=1e-5)
    for line in lines[1:]:
        fields = line.split(",")
        # numeric and analytic columns agree to many digits
        assert float(fields[3]) < 1e-8
        # at least 12 significant digits are printed
        assert len(fields[1].replace(".", "").replace("-", "").lstrip("0")) >= 12


def test_enhancement_curve_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(
            capsys, "enhancement-curve", "--points", "3", "--out", str(out)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_enhancement_curve_linear_spacing(capsys):
    code, out, _ = run(
        capsys, "enhancement-curve", "--no-log-spacing", "--s-min", "1",
        "--s-max", "3", "--points", "3",
    )
    assert code == 0
    s_column = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    assert s_column == [1.0, 2.0, 3.0]


def test_enhancement_curve_bad_parameters(capsys):
    assert run(capsys, "enhancement-curve", "--s-min", "-1")[0] == 1
    assert run(capsys, "enhancement-curve", "--points", "1")[0] == 1
    assert run(capsys, "enhancement-curve", "--s-min", "3", "--s-max", "1")[0] == 1


def test_spectrum_oracle_weak_csv(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--omega", "0.2", "--method", "oracle_weak",
        "--nu-min", "-3", "--nu-max", "3", "--points", "7", "--raw",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "nu_over_gamma,ladder_inel,crossed_inel"
    rows = [line for line in lines if not line.startswith("#")]
    meta = [line for line in lines if line.startswith("#")]
    assert len(rows) == 8
    center = rows[4].split(",")
    assert float(center[0]) == 0.0
    assert float(center[1]) == pytest.approx(0.2**4 / np.pi, rel=1e-12)
    assert any("method = oracle_weak" in m for m in meta)
    assert any("normalization = raw" in m for m in meta)
    assert any("ladder_inelastic_total" in m for m in meta)


def test_spectrum_normalization_scale(capsys):
    args = ["spectrum", "--omega", "0.2", "--method", "oracle_weak",
            "--nu-min", "-2", "--nu-max", "2", "--points", "5"]
    code, raw_out, _ = run(capsys, *args, "--raw")
    assert code == 0
    code, norm_out, _ = run(capsys, *args, "--normalized")
    assert code == 0

    def grid_values(text):
        return np.array(
            [
                [float(f) for f in line.split(",")]
                for line in text.strip().split("\n")[1:]
                if not line.startswith("#")
            ]
        )

    raw = grid_values(raw_out)
    norm = grid_values(norm_out)
    total = 7.0 / 16.0 * 0.2**4
    assert np.allclose(norm[:, 1:], raw[:, 1:] / total, rtol=1e-12)


def test_spectrum_numeric_matches_engine(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--omega", "1", "--method", "numeric",
        "--nu-min", "0", "--nu-max", "2", "--points", "3", "--raw",
    )
    assert code == 0
    from cbs2.geometry import Configuration, PhysParams
    from cbs2.spectrum import SpectrumEngine

    engine = SpectrumEngine(PhysParams(omega=1.0), Configuration())
    want_l, want_c = engine.densities(np.linspace(0.0, 2.0, 3))
    rows = [
        [float(f) for f in line.split(",")]
        for line in out.strip().split("\n")[1:]
        if not line.startswith("#")
    ]
    got = np.array(rows)
    assert np.allclose(got[:, 1], want_l, rtol=1e-12)
    assert np.allclose(got[:, 2], want_c, rtol=1e-12)


def test_spectrum_oracle_strong_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--omega", "100", "--method", "oracle_strong")
    assert code == 0
    lines = out.strip().split("\n")
    meta = [line for line in lines if line.startswith("#")]
    assert "# method = oracle_strong" in meta
    # 14/3 omega^-2
    assert "# ladder_inelastic_total = 0.000466666666666667" in meta
    got = np.array(
        [[float(f) for f in line.split(",")] for line in lines[1:] if not line.startswith("#")]
    )
    from cbs2 import oracle

    want_l, want_c = oracle.strong_field_spectra(got[:, 0], 100.0)
    total = 14.0 / 3.0 / 100.0**2
    assert np.allclose(got[:, 1], want_l / total, rtol=1e-12, atol=0.0)
    assert np.allclose(got[:, 2], want_c / total, rtol=1e-12, atol=0.0)


def test_spectrum_method_preconditions(capsys):
    assert run(capsys, "spectrum", "--omega", "0.5", "--method", "oracle_weak")[0] == 1
    assert run(capsys, "spectrum", "--omega", "5", "--method", "oracle_strong")[0] == 1
    assert run(capsys, "spectrum", "--omega", "-1")[0] == 1
    assert run(capsys, "spectrum", "--omega", "1", "--nu-min", "3",
               "--nu-max", "-3")[0] == 1


def test_validate_single_group_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys, "validate", "--profile", "quick", "--only", "elastic",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["profile"] == "quick"
    assert report["all_pass"] is True
    assert report["n_checks"] == len(report["checks"]) == 1
    row = report["checks"][0]
    assert row["check"] == "elastic-terms-match"
    assert row["tol"] == 1e-8
    assert row["pass"] is True
    assert "PASS" in err


def test_validate_enhancement_group(capsys):
    code, out, _ = run(
        capsys, "validate", "--profile", "quick", "--only", "enhancement"
    )
    assert code == 0
    report = json.loads(out)
    by_name = {row["check"]: row for row in report["checks"]}
    at_s1 = by_name["enhancement-at-s1"]
    assert at_s1["expected"] == pytest.approx(1.759758, abs=1e-12)
    assert at_s1["tol"] == 1e-6
    assert at_s1["actual"] == pytest.approx(1.7597581088510172, abs=1e-6)
    assert by_name["enhancement-curve-match"]["pass"] is True


def test_validate_unmatched_filter_exits_1(capsys):
    assert run(capsys, "validate", "--only", "banana")[0] == 1


def test_mc_average_output_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(
            capsys, "mc-average", "--samples", "20000", "--seed", "3",
            "--theta", "1e-4", "--ell-k0", "1000", "--out", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0].startswith("theta,mean,std_error")
    fields = lines[1].split(",")
    mean, sem = float(fields[1]), float(fields[2])
    crossed = float(fields[3])
    # the exact average of the drawn shell at k ell theta = 0.1, w = 0.5
    assert crossed == pytest.approx(0.133024049505664, abs=1e-15)
    assert abs(mean - crossed) < 5.0 * sem


def test_mc_average_bad_parameters(capsys):
    assert run(capsys, "mc-average", "--samples", "0")[0] == 1
    assert run(capsys, "mc-average", "--theta", "-1")[0] == 1
    assert run(capsys, "mc-average", "--width-frac", "1.5")[0] == 1
    # one sample has no spread, so its standard error would be nan
    assert run(capsys, "mc-average", "--samples", "1")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("mc-average", "--samples", "10", "--theta", "nan"),
        ("mc-average", "--samples", "10", "--theta", "inf"),
        ("mc-average", "--samples", "10", "--ell-k0", "nan"),
        ("mc-average", "--samples", "10", "--width-frac", "nan"),
        ("spectrum", "--omega", "inf"),
        ("spectrum", "--omega", "nan"),
        ("spectrum", "--omega", "1", "--nu-max", "inf"),
        ("enhancement-curve", "--s-max", "inf"),
    ],
    ids=[
        "mc-theta-nan", "mc-theta-inf", "mc-ell-nan", "mc-width-nan",
        "spectrum-omega-inf", "spectrum-omega-nan", "spectrum-nu-max-inf", "curve-s-max-inf",
    ],
)
def test_non_finite_parameters_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "cbs2: error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--omega", "1e300"),
        ("spectrum", "--omega", "1e200", "--method", "oracle_strong"),
    ],
    ids=["numeric", "oracle-strong"],
)
def test_spectrum_omega_beyond_float_saturation_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("cbs2: error: saturation overflows a float at omega = 1e+")


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "points = 4\n"
        "s-min = 0.01\n"
        "s_max = 10\n"
        "\n"
    )
    code, out, _ = run(capsys, "enhancement-curve", "--config", str(cfg))
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 4
    assert float(rows[0].split(",")[0]) == pytest.approx(0.01)
    # explicit flags win over the config file
    code, out, _ = run(
        capsys, "enhancement-curve", "--config", str(cfg), "--points", "2"
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 3


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bananas = 1\n")
    code, _, err = run(capsys, "enhancement-curve", "--config", str(cfg))
    assert code == 1
    assert "banana" in err


def test_config_usage_errors_and_position(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 4\n")
    # without a value, and without a subcommand to apply the file to
    for argv in (("enhancement-curve", "--config"), ("--config", str(cfg))):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "cbs2: error:" in err
    # --config=path before the subcommand, an explicit flag after it
    code, out, _ = run(capsys, f"--config={cfg}", "enhancement-curve", "--points", "2")
    assert code == 0
    assert len(out.strip().split("\n")) == 3


@pytest.mark.parametrize(
    "line, flag",
    [
        ("normalized = true", "--normalized"),
        ("normalized = false", "--raw"),
        ("raw = true", "--raw"),
        ("raw = false", "--normalized"),
    ],
)
def test_config_normalization_keys(tmp_path, capsys, line, flag):
    # both keys take both values; false picks the other normalization
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    args = ["spectrum", "--omega", "0.2", "--method", "oracle_weak",
            "--nu-min", "-2", "--nu-max", "2", "--points", "5"]
    code, out, err = run(capsys, args[0], "--config", str(cfg), *args[1:])
    assert (code, err) == (0, "")
    assert (code, out) == run(capsys, *args, flag)[:2]


@pytest.mark.parametrize(
    "line, flag",
    [
        ("normalized = false", "--normalized"),
        ("raw = true", "--normalized"),
        ("normalized = true", "--raw"),
        ("raw = false", "--raw"),
    ],
)
def test_config_normalization_key_is_overridden(tmp_path, capsys, line, flag):
    # the command-line flag wins over the opposite config entry
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    args = ["spectrum", "--omega", "0.2", "--method", "oracle_weak",
            "--nu-min", "-2", "--nu-max", "2", "--points", "5"]
    code, out, err = run(capsys, args[0], "--config", str(cfg), *args[1:], flag)
    assert (code, err) == (0, "")
    assert (code, out) == run(capsys, *args, flag)[:2]


def test_config_file_missing(capsys):
    code, _, _ = run(capsys, "enhancement-curve", "--config", "/no/such/file.cfg")
    assert code == 2


def test_outdir_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CBS2_OUTDIR", str(tmp_path))
    code, _, _ = run(
        capsys, "enhancement-curve", "--points", "2", "--out", "sub.csv"
    )
    assert code == 0
    assert (tmp_path / "sub.csv").exists()


def test_unwritable_output_exits_2(capsys):
    code, _, _ = run(
        capsys, "enhancement-curve", "--points", "2",
        "--out", "/nonexistent-dir/x.csv",
    )
    assert code == 2

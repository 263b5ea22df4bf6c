"""CLI: in-process invocations of fluxtube.cli.main.

Determinism matters here: CSV floats go through %.12g and JSON is dumped
with sorted keys, so repeated runs must be byte-identical.
"""

import csv
import io
import json

import pytest

from fluxtube.cli import main, run_verification


def run_cli(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# --- spectrum ----------------------------------------------------------------

def test_spectrum_landau_limit(capsys):
    rc, out, _ = run_cli(["spectrum", "--alpha", "0", "--emax", "2.5",
                          "--m", "0..1"], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[:5] == ["energy[hbar*omega]", "n", "m", "sigma[hbar]",
                          "m_plus_sigma"]
    energies = [float(r[0]) for r in rows]
    assert energies == sorted(energies)
    assert all(e == round(e) for e in energies)  # pure Landau: integers


def test_spectrum_m_plus_sigma_column(capsys):
    rc, out, _ = run_cli(["spectrum", "--alpha", "0.5", "--emax", "1.6",
                          "--m", "0"], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    i_m = header.index("m")
    i_s = header.index("sigma[hbar]")
    i_ms = header.index("m_plus_sigma")
    for r in rows:
        assert float(r[i_ms]) == float(r[i_m]) + float(r[i_s])


def test_spectrum_negative_m_range_needs_equals_form(capsys):
    rc, out, _ = run_cli(["spectrum", "--alpha", "0.5", "--emax", "1.2",
                          "--m=-2..2"], capsys)
    assert rc == 0
    _, rows = parse_csv(out)
    ms = {int(r[2]) for r in rows}
    assert ms == {-2, -1, 0}  # only these m reach E <= 1.2


def test_spectrum_si_columns(capsys):
    rc, out, _ = run_cli(["spectrum", "--alpha", "0.5", "--emax", "1.6",
                          "--m", "0", "--si", "1.0"], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[-2:] == ["energy[J]", "energy[meV]"]
    for r in rows:
        e, joule, mev = float(r[0]), float(r[-2]), float(r[-1])
        if e > 0:
            assert joule / e == pytest.approx(1.8548020145e-23, rel=1e-9)
            assert mev / e == pytest.approx(0.11576763605, rel=1e-9)


def test_spectrum_vacancy_marks_missing_family(capsys):
    rc, out, _ = run_cli(["spectrum", "--alpha", "1", "--emax", "2.5",
                          "--m=-2..0", "--compare-vacancy"], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header[-1] == "under_vanishing_bc"
    absent = [(int(r[1]), int(r[2]), float(r[3]), float(r[0]))
              for r in rows if r[-1] == "absent"]
    # exactly the repelled-spin tower on m + alpha = 0
    assert absent == [(0, -1, 0.5, 1.0), (1, -1, 0.5, 2.0)]
    assert all(r[-1] in ("present", "absent") for r in rows)


def test_spectrum_vacancy_rejects_noninteger_alpha(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--alpha", "0.5", "--compare-vacancy"])
    assert exc.value.code == 2


def test_spectrum_bad_m_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--alpha", "0.5", "--m", "3..1"])
    assert exc.value.code == 2


# --- wavefunction -------------------------------------------------------------

def test_wavefunction_csv_and_partner_column(capsys):
    rc, out, _ = run_cli(["wavefunction", "--alpha", "0.5", "--n", "0",
                          "--m", "0", "--superpartner", "--points", "50"],
                         capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["r[lambda]", "psi[1/lambda]", "psi_partner[1/lambda]"]
    assert len(rows) == 50
    rs = [float(r[0]) for r in rows]
    assert rs == sorted(rs) and rs[0] > 0.0


def test_wavefunction_json_norm_metadata(capsys):
    rc, out, _ = run_cli(["wavefunction", "--alpha", "0.5", "--n", "1",
                          "--m", "0", "--superpartner", "--format", "json",
                          "--points", "40"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["norm_quadrature"] == pytest.approx(1.0, abs=1e-10)
    assert doc["meta"]["partner"]["norm_quadrature"] == pytest.approx(1.0, abs=1e-10)
    assert doc["meta"]["partner"]["energy"] == doc["meta"]["energy"]
    assert doc["meta"]["partner"]["sigma"] == -0.5
    assert len(doc["rows"]) == 40


def test_wavefunction_json_norms_at_high_n(capsys):
    rc, out, _ = run_cli(["wavefunction", "--alpha", "0.5", "--n", "9",
                          "--m", "0", "--superpartner", "--format", "json"],
                         capsys)
    assert rc == 0
    meta = json.loads(out)["meta"]
    assert meta["norm_quadrature"] == pytest.approx(1.0, abs=1e-10)
    assert meta["partner"]["norm_quadrature"] == pytest.approx(1.0, abs=1e-10)


def test_wavefunction_zero_mode(capsys):
    rc, out, _ = run_cli(["wavefunction", "--alpha", "0.5", "--m", "0",
                          "--zero-mode", "--format", "json", "--points", "30"],
                         capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["energy"] == 0.0
    assert doc["meta"]["label"]["tag"] == "zero_mode"
    assert doc["meta"]["exponent"] == -0.5


def test_zero_mode_at_integer_flux_prints_the_regular_bytes(capsys):
    # alpha = -1, m = 1: the zero mode is psi_regular(0, 1, -1), exponent 0.0 both ways
    args = ["wavefunction", "--alpha", "-1", "--m", "1", "--format", "json", "--points", "9"]
    rc, zero, _ = run_cli(args + ["--zero-mode"], capsys)
    assert rc == 0
    rc, regular, _ = run_cli(args + ["--n", "0"], capsys)
    assert rc == 0
    assert zero == regular
    assert '"exponent": 0.0,' in zero


def test_wavefunction_zero_mode_bound_cited_in_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["wavefunction", "--alpha", "0.5", "--m", "1", "--zero-mode"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "m + alpha < 1" in err


def test_wavefunction_usage_errors(capsys):
    # neither --n nor --zero-mode
    with pytest.raises(SystemExit) as exc:
        main(["wavefunction", "--alpha", "0.5", "--m", "0"])
    assert exc.value.code == 2
    # --zero-mode excludes --n
    with pytest.raises(SystemExit) as exc:
        main(["wavefunction", "--alpha", "0.5", "--m", "0", "--zero-mode",
              "--n", "1"])
    assert exc.value.code == 2
    # wrong sigma for the regular branch at alpha >= 0
    with pytest.raises(SystemExit) as exc:
        main(["wavefunction", "--alpha", "0.5", "--m", "0", "--n", "0",
              "--sigma", "-"])
    assert exc.value.code == 2


# --- regularize ----------------------------------------------------------------

def test_regularize_table(capsys):
    rc, out, _ = run_cli(["regularize", "--alpha", "0.5", "--m", "0",
                          "--R", "0.2,0.1", "--nmax", "1"], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["R[lambda]", "n", "xi", "energy[hbar*omega]",
                      "deviation", "residual", "note"]
    assert len(rows) == 4
    dev = {(float(r[0]), int(r[1])): abs(float(r[4])) for r in rows}
    for n in (0, 1):
        assert dev[(0.1, n)] < dev[(0.2, n)]


def test_regularize_with_oracle_verification(capsys):
    rc, out, _ = run_cli(["regularize", "--alpha", "0.5", "--m", "0",
                          "--R", "0.2", "--nmax", "1", "--verify"], capsys)
    assert rc == 0
    header, rows = parse_csv(out)
    i, j = header.index("match_minus_oracle"), header.index("deviation")
    for r in rows:
        assert r[-1] == ""  # no notes
        assert abs(float(r[i])) <= 1e-6
        # printed to the absolute tolerances of the oracle (1e-12) and of the roots (1e-13)
        assert float(r[i]) == round(float(r[i]), 12) and float(r[j]) == round(float(r[j]), 13)


def test_regularize_out_of_range_shell_is_an_error(capsys):
    rc, out, err = run_cli(["regularize", "--alpha", "0.4", "--m", "1",
                            "--R", "30", "--nmax", "0"], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: kummer_m")


def test_regularize_bad_radii(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["regularize", "--alpha", "0.5", "--m", "0", "--R", "0,-1"])
    assert exc.value.code == 2


# --- verify --------------------------------------------------------------------

def test_verify_single_suite_passes(capsys):
    rc, out, _ = run_cli(["verify", "--only", "susy"], capsys)
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines and all(ln.startswith("PASS") for ln in lines)
    assert out.splitlines()[-1].endswith("checks passed")


def test_verify_impossible_tolerance_fails_cleanly(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc, out, _ = run_cli(["verify", "--only", "specfun",
                          "--tolerance", "1e-15",
                          "--output", str(report)], capsys)
    assert rc == 1
    assert "FAIL" in out
    doc = json.loads(report.read_text())
    assert doc["all_passed"] is False
    assert any(not c["passed"] for c in doc["checks"])


def test_verify_rejects_nonpositive_tolerance(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--tolerance", "0"])
    assert exc.value.code == 2


def test_run_verification_rejects_nonpositive_scale():
    with pytest.raises(ValueError, match="scale"):
        run_verification(scale=0)


# --- usage errors --------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["spectrum", "--alpha", "nan"],
    ["spectrum", "--alpha", "0.5", "--emax", "nan"],
    ["spectrum", "--alpha", "0.5", "--emax", "inf"],
    ["spectrum", "--alpha", "0.5", "--si", "nan"],
    ["wavefunction", "--alpha", "-inf", "--n", "0", "--m", "0"],
    ["wavefunction", "--alpha", "0.5", "--n", "0", "--m", "0", "--rmax", "nan"],
    ["wavefunction", "--alpha", "0.5", "--n", "0", "--m", "0", "--points", "0"],
    ["regularize", "--alpha", "inf", "--m", "0", "--R", "0.5"],
    ["regularize", "--alpha", "0.5", "--m", "0", "--R", "inf"],
    ["regularize", "--alpha", "0.5", "--m", "0", "--R", "0.5,nan"],
    ["verify", "--tolerance", "nan"],
])
def test_non_finite_numbers_and_empty_grid_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--alpha", "0.5", "--si", "-1"], "field strength must be positive"),
    (["spectrum", "--alpha", "0.5", "--si", "0"], "field strength must be positive"),
    (["spectrum", "--alpha", "0.5", "--m=3..1"], "empty m window: [3, 1]"),
    (["spectrum", "--alpha", "0.5", "--m=x"], "integer or A..B range, got 'x'"),
    (["spectrum", "--alpha", "0.5", "--compare-vacancy"],
     "vacancy line exists only at integer alpha"),
    (["regularize", "--alpha", "0.5", "--m", "0", "--R", "0.5", "--nmax", "-1"],
     "n_max must be >= 0"),
    (["wavefunction", "--alpha", "0.5", "--n", "0", "--m", "0", "--points", "0"],
     "npoints must be >= 1"),
    (["wavefunction", "--alpha", "0.5", "--m", "0", "--zero-mode", "--n", "1"],
     "--zero-mode does not take --n"),
    (["wavefunction", "--alpha", "0.5", "--m", "0", "--zero-mode", "--sigma", "+"],
     "zero modes carry sigma = -1/2"),
    (["wavefunction", "--alpha", "0.5", "--n", "0", "--m", "0", "--sigma", "-"],
     "the regular branch carries sigma = +0.5"),
    (["wavefunction", "--alpha", "0.5", "--m", "0", "--zero-mode", "--superpartner"],
     "zero modes are annihilated, not paired"),
])
def test_rejected_arguments_are_usage_errors_with_the_library_message(argv, message,
                                                                      capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"usage: fluxtube {argv[0]} " in err
    assert message in err


# --- output plumbing -----------------------------------------------------------

def test_csv_output_with_sidecar(tmp_path, capsys):
    out_file = tmp_path / "spec.csv"
    rc = main(["spectrum", "--alpha", "0.5", "--emax", "2", "--m", "0..1",
               "--output", str(out_file)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    text = out_file.read_text()
    assert "\r" not in text
    sidecar = json.loads((tmp_path / "spec.csv.json").read_text())
    assert sidecar["row_count"] == len(text.splitlines()) - 1
    assert sidecar["meta"]["alpha"] == 0.5
    assert sidecar["columns"][0] == "energy[hbar*omega]"


def test_repeated_runs_are_byte_identical(tmp_path):
    args = ["regularize", "--alpha", "0.5", "--m", "0", "--R", "0.3,0.1",
            "--nmax", "2"]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        assert main(args + ["--output", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()

    jargs = ["spectrum", "--alpha", "-0.5", "--emax", "3", "--m=-2..2",
             "--format", "json"]
    jpaths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in jpaths:
        assert main(jargs + ["--output", str(p)]) == 0
    assert jpaths[0].read_bytes() == jpaths[1].read_bytes()


def test_outdir_env_resolves_relative_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FLUXTUBE_OUTDIR", str(tmp_path))
    rc = main(["spectrum", "--alpha", "0", "--emax", "1.5", "--m", "0",
               "--output", "sub/landau.csv"])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "sub" / "landau.csv").exists()
    assert (tmp_path / "sub" / "landau.csv.json").exists()


def test_json_document_shape(capsys):
    rc, out, _ = run_cli(["spectrum", "--alpha", "0.5", "--emax", "1.6",
                          "--m", "0", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "columns", "rows"}
    for row in doc["rows"]:
        assert set(row) == set(doc["columns"])


def test_unknown_subcommand_and_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectralize"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--alpha", "0.5", "--frobnicate"])
    assert exc.value.code == 2

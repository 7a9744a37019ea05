"""Scenario loading, validation, and the command-line entry point."""

import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

import passiveqkd
from passiveqkd import cli
from passiveqkd.cli import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    bundled_scenarios,
    main,
    run_scenario,
    validate_scenario_dict,
)

GOOD_TRUSTED = {
    "mode": "trusted-bb84",
    "scheme": {"t_B": 0.5, "t_D": 1.0, "lam": 0.002, "mu": 100.0},
    "channel": {"eta_B": 1.0, "alpha_prime": 0.21, "Y0": 0.0, "e_det": 0.0},
    "sweep": {"L_start": 0.0, "L_end": 5.0, "L_step": 1.0},
}


def write_scenario(tmp_path, data, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_bundled_scenarios_present():
    names = set(bundled_scenarios())
    assert {"ideal-apn", "ideal-trusted", "realistic-pna", "decoy-gaussian-noise"} <= names


def test_list_scenarios_command(capsys):
    assert main(["list-scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ideal-apn" in out


def test_validate_bundled_scenarios():
    for name in bundled_scenarios():
        assert main(["validate", name]) == EXIT_OK, name


def test_validate_rejects_unknown_keys():
    data = dict(GOOD_TRUSTED, typo_key=1)
    report = validate_scenario_dict(data)
    assert not report.ok
    assert any(e["field"] == "typo_key" for e in report.errors)


def test_validate_rejects_unknown_section_keys():
    data = dict(GOOD_TRUSTED, scheme=dict(GOOD_TRUSTED["scheme"], bogus=1.0))
    report = validate_scenario_dict(data)
    assert any(e["field"] == "scheme.bogus" for e in report.errors)


def test_validate_rejects_bad_mode():
    report = validate_scenario_dict({"mode": "nonsense"})
    assert any(e["field"] == "mode" for e in report.errors)


def test_validate_rejects_unphysical_attenuator():
    data = dict(GOOD_TRUSTED, scheme={"t_B": 0.3, "t_D": 0.5, "lam": 0.9, "mu": 1.0})
    report = validate_scenario_dict(data)
    assert any("lambda_A" in e["message"] for e in report.errors)


def test_validate_rejects_decoy_ordering():
    data = {
        "mode": "trusted-decoy",
        "channel": GOOD_TRUSTED["channel"],
        "decoy": {"nu_s": 0.1, "nu_d": 0.5},
        "sweep": GOOD_TRUSTED["sweep"],
    }
    report = validate_scenario_dict(data)
    assert any(e["field"] == "decoy.nu_d" for e in report.errors)


def test_validate_requires_window_for_exact_pna():
    data = {
        "mode": "pna-bb84",
        "scheme": {"t_B": 0.9, "t_D": 0.76, "lam": 1e-6, "mu": 1e6},
        "channel": GOOD_TRUSTED["channel"],
        "sweep": GOOD_TRUSTED["sweep"],
        "window": "auto-minmax",
    }
    report = validate_scenario_dict(data)
    assert any(e["field"] == "window" for e in report.errors)


def test_validate_command_exit_code(tmp_path, capsys):
    bad = write_scenario(tmp_path, dict(GOOD_TRUSTED, typo=1))
    assert main(["validate", bad]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False


def test_missing_file_is_io_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.yaml")]) == EXIT_IO
    assert main(["validate", str(tmp_path / "nope.yaml")]) == EXIT_IO


@pytest.mark.parametrize("command", ["run", "validate"])
def test_malformed_yaml_is_io_error_naming_file_line_and_column(tmp_path, capsys, command):
    path = tmp_path / "bad.yaml"
    path.write_text("mode: trusted-bb84\nscheme:\n  t_B: [0.5\n  mu: 1\n", encoding="utf-8")
    assert main([command, str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "malformed YAML" in err and str(path) in err
    assert re.search(r"line \d+, column \d+", err)


@pytest.mark.parametrize("command", ["run", "validate"])
def test_scenario_that_is_not_a_mapping_is_io_error(tmp_path, capsys, command):
    path = tmp_path / "list.yaml"
    path.write_text("- mode\n- trusted-bb84\n", encoding="utf-8")
    assert main([command, str(path)]) == EXIT_IO
    assert capsys.readouterr().err == "I/O error: scenario must be a mapping\n"


def test_load_scenario_gives_the_pure_python_loaders_mapping():
    # yaml.safe_load, PyYAML's pure-Python loader, is the oracle; repr also
    # tells an int from an equal float
    for name, path in bundled_scenarios().items():
        expected = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        assert repr(cli.load_scenario(name)) == repr(expected), name


def test_run_trusted_sweep(tmp_path, capsys):
    path = write_scenario(tmp_path, GOOD_TRUSTED)
    assert main(["run", path]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 6  # L = 0..5 km
    first = lines[0].split("\t")
    assert float(first[0]) == 0.0
    assert float(first[1]) > 0.0  # positive rate at zero distance
    assert "max_secure_distance_km" in out


def test_run_writes_output_file(tmp_path, capsys):
    path = write_scenario(tmp_path, GOOD_TRUSTED)
    target = tmp_path / "table.tsv"
    assert main(["run", path, "--output", str(target)]) == EXIT_OK
    text = target.read_text()
    assert text.startswith("# passiveqkd")
    assert "columns: L_km" in text


def test_run_rejects_invalid_scenario(tmp_path):
    path = write_scenario(tmp_path, dict(GOOD_TRUSTED, typo=1))
    assert main(["run", path]) == EXIT_VALIDATION


def test_run_mc_pipeline_mode(tmp_path, capsys):
    data = {
        "mode": "mc-pipeline",
        "scheme": {"t_B": 0.9, "t_D": 0.76, "lam": 3.42e-7, "mu": 1000.0},
        "window": "auto-minmax",
        "alpha": 1e-6,
        "M": 100000,
        "seed": 5,
    }
    path = write_scenario(tmp_path, data)
    assert main(["run", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "untagged_lower" in out


def test_run_seed_override_changes_result(tmp_path, capsys):
    data = {
        "mode": "mc-pipeline",
        "scheme": {"t_B": 0.9, "t_D": 0.76, "lam": 3.42e-7, "mu": 1000.0},
        "window": {"m1": 600.0, "m2": 760.0},
        "alpha": 0.01,
        "M": 50000,
        "seed": 5,
    }
    path = write_scenario(tmp_path, data)
    assert main(["run", path]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["run", path, "--seed", "6"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first != second


GOOD_MC = {
    "mode": "mc-pipeline",
    "scheme": {"t_B": 0.9, "t_D": 0.76, "lam": 3.42e-7, "mu": 1000.0},
    "window": "auto-minmax",
    "alpha": 1e-6,
    "M": 1000,
    "seed": 5,
}


def changed(data, section, **updates):
    """A copy of ``data`` with keys of one section set, or deleted when None."""
    block = {k: v for k, v in dict(data[section], **updates).items() if v is not None}
    return dict(data, **{section: block})


def bundled(name):
    return yaml.safe_load(Path(bundled_scenarios()[name]).read_text(encoding="utf-8"))


INF, NAN = math.inf, math.nan
# decoy-gaussian-noise with a fixed window and no pipeline
PNA_DECOY = {
    **{k: v for k, v in bundled("decoy-gaussian-noise").items()
       if k not in ("noise", "alpha", "M", "seed")},
    "delta_source": "exact",
    "window": {"m1": 9.9e6, "m2": 1.01e7},
}
GAUSSIAN_NOISE = {"type": "gaussian", "sigma2": 1e9}


@pytest.mark.parametrize(
    "data, flags, field",
    [
        pytest.param(changed(GOOD_TRUSTED, "channel", eta_B=None), [], "channel.eta_B",
                     id="missing-eta_B"),
        pytest.param(changed(GOOD_TRUSTED, "scheme", mu=None), [], "scheme.mu", id="missing-mu"),
        pytest.param(changed(GOOD_TRUSTED, "channel", e_det=0.5), [], "channel.e_det",
                     id="e_det-0.5"),
        pytest.param(changed(GOOD_TRUSTED, "channel", Y0=1.5), [], "channel.Y0", id="Y0-1.5"),
        pytest.param(dict(GOOD_MC, seed=2**70), [], "seed", id="seed-2**70"),
        pytest.param(dict(bundled("mc-pipeline-demo"), M=1), [], "M", id="auto-minmax-M1"),
        pytest.param(changed(GOOD_MC, "scheme", lam="optimized"), [], "scheme.lam",
                     id="mc-pipeline-lam-optimized"),
        pytest.param(GOOD_MC, ["--seed", "-1"], "seed", id="seed-flag-negative"),
        pytest.param(GOOD_MC, ["--alpha", "2"], "alpha", id="alpha-flag-2"),
        pytest.param(changed(GOOD_TRUSTED, "sweep", L_end=INF), [], "sweep.L_end",
                     id="L_end-inf"),
        pytest.param(changed(GOOD_TRUSTED, "sweep", L_start=NAN), [], "sweep.L_start",
                     id="L_start-nan"),
        pytest.param(changed(GOOD_TRUSTED, "sweep", L_step=NAN), [], "sweep.L_step",
                     id="L_step-nan"),
        pytest.param(changed(bundled("ideal-apn"), "scheme", mu=INF), [], "scheme.mu",
                     id="apn-mu-inf"),
        pytest.param(changed(bundled("lowtrans-pna"), "window", m2=INF), [], "window.m2",
                     id="pna-m2-inf"),
        pytest.param(changed(bundled("ideal-apn"), "scheme", mu=NAN), [], "scheme.mu",
                     id="apn-mu-nan"),
        pytest.param(changed(GOOD_TRUSTED, "channel", alpha_prime=NAN), [],
                     "channel.alpha_prime", id="alpha_prime-nan"),
        pytest.param(changed(bundled("decoy-trusted"), "decoy", nu_s=INF), [], "decoy.nu_s",
                     id="decoy-nu_s-inf"),
        pytest.param(dict(GOOD_TRUSTED, f_ec=INF), [], "f_ec", id="f_ec-inf"),
        pytest.param(changed(GOOD_TRUSTED, "sweep", L_start=-1.0), [], "sweep.L_start",
                     id="L_start-negative"),
        pytest.param(changed(GOOD_TRUSTED, "sweep", L_step=0.0), [], "sweep.L_step",
                     id="L_step-0"),
        pytest.param(changed(GOOD_TRUSTED, "sweep", L_start=6.0), [], "sweep.L_end",
                     id="L_end-below-L_start"),
        pytest.param(changed(GOOD_TRUSTED, "sweep", L_end=1e12, L_step=1.0), [], "sweep.L_step",
                     id="sweep-1e12-points"),
        pytest.param(changed(GOOD_TRUSTED, "sweep", L_end=1e308, L_step=1e-308), [],
                     "sweep.L_step", id="sweep-points-overflow"),
        pytest.param(dict(bundled("decoy-trusted"), f_ec=1.9), [], "f_ec",
                     id="trusted-decoy-top-level-f_ec"),
        pytest.param(dict(PNA_DECOY, f_ec=1.9), [], "f_ec", id="pna-decoy-top-level-f_ec"),
        pytest.param(dict(bundled("ideal-apn"), noise=GAUSSIAN_NOISE), [], "noise",
                     id="apn-noise"),
        pytest.param(dict(bundled("lowtrans-pna"), noise=GAUSSIAN_NOISE), [], "noise",
                     id="exact-pna-noise"),
        pytest.param(changed(PNA_DECOY, "scheme", lam="optimized"), [], "scheme.lam",
                     id="pna-decoy-lam-optimized"),
        pytest.param(dict(bundled("decoy-trusted"), scheme=GOOD_TRUSTED["scheme"]), [],
                     "scheme", id="trusted-decoy-scheme"),
        # trusted-decoy never reads the attenuators, valid or not
        pytest.param(changed(bundled("decoy-trusted"), "decoy", lambda_s=2.0), [],
                     "decoy.lambda_s", id="trusted-decoy-lambda_s"),
        pytest.param(changed(bundled("decoy-trusted"), "decoy", lambda_d=6.84e-8), [],
                     "decoy.lambda_d", id="trusted-decoy-lambda_d"),
        pytest.param(dict(bundled("ideal-apn"), window={"m1": 40.0, "m2": 60.0}), [], "window",
                     id="apn-window"),
        pytest.param(dict(bundled("ideal-apn"), delta_source="pipeline"), [], "delta_source",
                     id="apn-delta-source"),
        pytest.param(dict(bundled("ideal-trusted"), window="auto-minmax"), [], "window",
                     id="trusted-window"),
        pytest.param(dict(bundled("ideal-trusted"), delta_source="pipeline"), [],
                     "delta_source", id="trusted-delta-source"),
        pytest.param({k: v for k, v in bundled("decoy-gaussian-noise").items() if k != "window"},
                     [], "window", id="pipeline-pna-decoy-no-window"),
        pytest.param(dict(bundled("ideal-apn"), seed=3), [], "seed", id="apn-seed"),
        pytest.param(dict(bundled("lowtrans-pna"), M="abc"), [], "M", id="exact-pna-M"),
        pytest.param(bundled("lowtrans-pna"), ["--seed", "3"], "seed", id="exact-pna-seed-flag"),
        pytest.param(bundled("ideal-apn"), ["--alpha", "0.5"], "alpha", id="apn-alpha-flag"),
        pytest.param(dict(bundled("mc-pipeline-demo"), f_ec=1.22), [], "f_ec",
                     id="mc-pipeline-f_ec"),
        pytest.param(dict(bundled("mc-pipeline-demo"), channel=GOOD_TRUSTED["channel"]), [],
                     "channel", id="mc-pipeline-channel"),
        pytest.param(dict(bundled("mc-pipeline-demo"), delta_source="exact"), [],
                     "delta_source", id="mc-pipeline-delta-source"),
        # t_B t_D underflows to 0
        pytest.param(changed(bundled("ideal-apn"), "scheme", t_D=5e-324), [], "scheme.t_D",
                     id="apn-t_D-xi-underflow"),
        pytest.param(changed(bundled("ideal-trusted"), "scheme", t_D=5e-324), [], "scheme.t_D",
                     id="trusted-t_D-xi-underflow"),
        pytest.param(dict(PNA_DECOY, delta_source="exactly"), [], "delta_source",
                     id="delta-source-exactly"),
        pytest.param(dict(GOOD_TRUSTED, output=5), [], "output", id="output-not-a-string"),
        pytest.param(dict(GOOD_TRUSTED, channel=[1]), [], "channel", id="channel-not-a-mapping"),
        pytest.param(dict(GOOD_MC, window="auto"), [], "window", id="window-bad-string"),
        pytest.param(dict(GOOD_MC, noise={"type": "dark"}), [], "noise.type",
                     id="noise-type-dark"),
        # t_B = t_D = 0.5 gives lambda_A = lambda_s (1 - t_B) / (t_B t_D) = 1.8
        pytest.param(changed(changed(PNA_DECOY, "scheme", t_B=0.5, t_D=0.5), "decoy",
                             lambda_s=0.9), [], "decoy.lambda_s", id="pna-decoy-lambda_A-1.8"),
    ],
)
def test_bad_input_exits_2_naming_the_field(tmp_path, capsys, data, flags, field):
    path = write_scenario(tmp_path, data)
    if not flags:
        assert main(["validate", path]) == EXIT_VALIDATION
        report = json.loads(capsys.readouterr().out)
        assert field in [e["field"] for e in report["errors"]]
    assert main(["run", path, *flags]) == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().err)
    assert field in [e["field"] for e in report["errors"]]


def test_non_finite_number_is_named_as_such():
    report = validate_scenario_dict(changed(GOOD_TRUSTED, "scheme", mu=INF))
    assert report.errors == [{"field": "scheme.mu", "message": "must be a finite number"}]


def test_top_level_f_ec_in_a_decoy_mode_points_to_decoy_f_ec():
    assert validate_scenario_dict(PNA_DECOY).ok
    report = validate_scenario_dict(dict(PNA_DECOY, f_ec=1.9))
    assert report.errors == [{"field": "f_ec", "message": "not read by mode pna-decoy: "
                                                          "set decoy.f_ec"}]


def test_key_a_mode_does_not_read_is_named_with_the_mode():
    data = dict(bundled("decoy-trusted"), scheme=GOOD_TRUSTED["scheme"])
    report = validate_scenario_dict(data)
    assert report.errors == [{"field": "scheme", "message": "not read by mode trusted-decoy"}]
    data = dict(bundled("ideal-apn"), window={"m1": 40.0, "m2": 60.0}, delta_source="pipeline")
    assert validate_scenario_dict(data).errors == [
        {"field": key, "message": "not read by mode apn-bb84"}
        for key in ("window", "delta_source")
    ]


def test_auto_minmax_run_whose_readings_all_tie_exits_3_naming_the_value(tmp_path, capsys):
    # mean reading 0.0068: every one of the five readings is 0, so the
    # smallest and largest make no window
    data = dict(GOOD_MC, scheme=dict(GOOD_MC["scheme"], mu=0.01), M=5)
    path = write_scenario(tmp_path, data)
    assert main(["validate", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["run", path]) == EXIT_DEGENERATE
    assert capsys.readouterr().err == (
        "error: all 5 readings are 0: an auto-minmax window needs two distinct readings\n")


@pytest.mark.parametrize("section, key", [("noise", "gamma"), ("scheme", "mu")])
def test_poisson_noise_run_at_mean_1e300_exits_3_naming_the_tied_reading(
        tmp_path, capsys, section, key):
    # a Poisson reading of mean 1e300 has sd 1e150, far under one ulp of the
    # mean, so both extremes of the 1e8 readings round to one float; the
    # quantile search must still end, not overflow an int range
    data = changed(bundled("decoy-poisson-noise"), "sweep", L_end=2.0)
    data = changed(data, section, **{key: 1e300})
    assert run_scenario(write_scenario(tmp_path, data)) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert err.startswith("error: all 100000000 readings are ") and err.count("\n") == 1, err
    assert err.endswith("an auto-minmax window needs two distinct readings\n"), err


def test_apn_source_whose_mean_is_past_the_worst_case_peak_runs(tmp_path, capsys):
    # mean output mu * eta = 25: the worst case is all mass on k = mu, whose
    # multiphoton probability is about 1, so every row has rate 0
    data = dict(GOOD_TRUSTED, mode="apn-bb84", scheme=dict(GOOD_TRUSTED["scheme"], lam=0.5))
    assert main(["run", write_scenario(tmp_path, data)]) == EXIT_OK
    rows = [l.split("\t") for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(rows) == 6 and all(row[1] == "0" for row in rows)


@pytest.mark.parametrize("name", ["decoy-gaussian-noise", "decoy-poisson-noise"])
def test_decoy_attenuator_whose_c_passes_the_float_range_gives_rate_0(tmp_path, capsys, name):
    # lambda_s 0.5 makes c = exp(2 ln r + m2 (...)) overflow at m2 ~ 1e7
    data = changed(bundled(name), "decoy", lambda_s=0.5)
    assert main(["run", write_scenario(tmp_path, data)]) == EXIT_OK
    rows = [l.split("\t") for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(rows) == 151 and all(row[1] == "0" for row in rows)


@pytest.mark.parametrize("name", ["decoy-gaussian-noise", "decoy-poisson-noise"])
def test_decoy_subnormal_attenuator_gives_rate_0(tmp_path, capsys, name):
    # lambda_d 1e-310 gives a subnormal lambda_A, whose 1 / lambda_A is inf;
    # a decoy that carries almost no photon bounds no single-photon yield
    data = changed(bundled(name), "decoy", lambda_d=1e-310)
    assert main(["run", write_scenario(tmp_path, data)]) == EXIT_OK
    rows = [l.split("\t") for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(rows) == 151 and all(row[1] == "0" for row in rows)


@pytest.mark.parametrize("name", ["lowtrans-pna", "realistic-pna"])
def test_integer_threshold_past_int64_prints_the_float_table(tmp_path, capsys, name):
    tables = []
    for m2 in (10**30, 1e30):
        assert main(["run", write_scenario(tmp_path, changed(bundled(name), "window", m2=m2))]) \
            == EXIT_OK
        tables.append([l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")])
    assert tables[0] == tables[1] and tables[0]


def test_trusted_decoy_needs_no_attenuators():
    data = {
        "mode": "trusted-decoy",
        "channel": GOOD_TRUSTED["channel"],
        "decoy": {"nu_s": 0.5, "nu_d": 0.1},
        "sweep": GOOD_TRUSTED["sweep"],
    }
    assert validate_scenario_dict(data).ok


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.tsv")))
def test_bundled_scenario_table_matches_golden(name):
    # the golden files change only with an intended output change, named in CHANGES.md
    out = io.StringIO()
    assert run_scenario(name, stream=out) == EXIT_OK
    assert out.getvalue() == (GOLDEN / f"{name}.tsv").read_text(encoding="utf-8")


def test_scenario_header_line_is_valid_input():
    # the header records the scenario as run, so it can be run again
    for name in bundled_scenarios():
        lines = (GOLDEN / f"{name}.tsv").read_text(encoding="utf-8").splitlines()
        [line] = [l for l in lines if l.startswith("# scenario: ")]
        report = validate_scenario_dict(json.loads(line.removeprefix("# scenario: ")))
        assert report.ok, (name, report.errors)


def test_readme_mode_table_matches_modes():
    # the README's table of the keys each mode reads is the one users see
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.splitlines()
    start = lines.index(next(l for l in lines if l.startswith("| mode | requires |")))
    header, rows = lines[start], itertools.takewhile(str.strip, lines[start + 2:])
    names = lambda cell: tuple(re.findall(r"`([^`:]+)`", cell))
    pipeline_keys = names(header.split("|")[4])
    assert pipeline_keys == cli._PIPELINE_REQUIRES + cli._PIPELINE_READS
    table = {}
    for row in rows:
        mode, requires, reads, pipeline = (c.strip() for c in row.strip("|").split("|"))
        table[names(mode)[0]] = (names(requires), names(reads), pipeline)
    assert table == {
        mode: (requires, reads, "always" if mode == "mc-pipeline" else
               "with `delta_source: pipeline`" if "delta_source" in reads else "never")
        for mode, (requires, reads, _) in cli.MODES.items()
    }


@pytest.mark.parametrize(
    "name, per_distance", [("ideal-apn", False), ("lowtrans-apn", False), ("realistic-apn", True)]
)
def test_worst_case_bound_is_computed_once_per_scheme(monkeypatch, name, per_distance):
    # a fixed lam gives one scheme for the whole sweep, an optimized lam one per distance
    calls = []
    original = passiveqkd.cli.maximize_ratio
    monkeypatch.setattr(passiveqkd.cli, "maximize_ratio",
                        lambda *args: calls.append(args) or original(*args))
    assert run_scenario(name, stream=io.StringIO()) == EXIT_OK
    points = validate_scenario_dict(bundled(name)).scenario.points
    assert len(calls) == (len(points) if per_distance else 1)


def test_gaussian_pipeline_at_tiny_sigma2_warns_nothing(tmp_path):
    # at sigma2 = 1e-300 the quantile solver's z^2 passes the float range, and
    # exp(-inf) = 0 is the density it needs: no warning, and the table of
    # sigma2 = 1e-30 apart from the scenario line and R_SN_g
    data, tables = bundled("mc-pipeline-demo"), {}
    for sigma2 in (1e-300, 1e-30):
        data["noise"]["sigma2"] = sigma2
        out = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_scenario(write_scenario(tmp_path, data), stream=out) == EXIT_OK
        tables[sigma2] = [line for line in out.getvalue().splitlines()
                          if not line.startswith(("# scenario:", "# R_SN_g:"))]
    assert tables[1e-300] == tables[1e-30]
    assert "# window: [9.98497e+06, 1.00146e+07]" in tables[1e-30]


@pytest.mark.parametrize("m1", [0, -5])
def test_exact_window_from_zero_or_below_counts_nothing_below(tmp_path, capsys, m1):
    # a lower edge <= 0 leaves no Poisson mass below the window, so the table
    # is that of lowtrans-pna, whose window already holds all but ~1e-11 of it
    data = yaml.safe_load(Path(bundled_scenarios()["lowtrans-pna"]).read_text())
    data["window"]["m1"] = m1
    assert main(["run", write_scenario(tmp_path, data)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    golden = (GOLDEN / "lowtrans-pna.tsv").read_text(encoding="utf-8").splitlines()
    scenario = [i for i, line in enumerate(golden) if line.startswith("# scenario:")]
    assert [l for i, l in enumerate(lines) if i not in scenario] == [
        l for i, l in enumerate(golden) if i not in scenario
    ]


def test_library_imports_no_scipy_stats_or_optimize():
    # at runtime the library uses scipy.special only; tests and bench/ keep
    # scipy.stats and scipy.optimize as their independent oracles
    env = dict(os.environ, PYTHONPATH=str(Path(passiveqkd.__file__).parents[1]))
    code = (
        "import sys, passiveqkd, passiveqkd.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'stats'], ['scipy', 'optimize'])))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # scipy.special loads on the first call that needs it; only the last command makes one
    lazy = [
        None, ["validate", "ideal-apn"], ["list-scenarios"], ["run", "ideal-apn"],
        ["run", "realistic-trusted"], ["run", "realistic-pna"],
    ]
    for argv in lazy:
        code = (
            "import contextlib, os, sys, passiveqkd, passiveqkd.cli\n"
            f"argv = {argv!r}\n"
            "with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
            "    status = 0 if argv is None else passiveqkd.cli.main(argv)\n"
            "print(status, 'scipy.special' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        # the analyzer's untagged fraction is a Poisson window mass: pdtr
        loaded = argv == ["run", "realistic-pna"]
        assert proc.stdout.split() == ["0", str(loaded)], (argv, proc.stdout)


def test_numpy_loads_on_the_first_array_call():
    # the apn and trusted rate modes are closed forms in math; validate computes nothing
    env = dict(os.environ, PYTHONPATH=str(Path(passiveqkd.__file__).parents[1]))
    names = list(bundled_scenarios())
    math_only = [n for n in names if cli.load_scenario(n)["mode"] in
                 ("apn-bb84", "trusted-bb84", "trusted-decoy")]
    assert len(math_only) == 7
    commands = [
        [],
        [["validate", n] for n in names] + [["list-scenarios"]],
        [["run", n] for n in math_only] + [["run", "realistic-pna"]],
    ]
    for argvs in commands:
        code = (
            "import contextlib, os, sys, passiveqkd, passiveqkd.cli\n"
            "print(0, 'numpy' in sys.modules)\n"
            f"for argv in {argvs!r}:\n"
            "    with open(os.devnull, 'w') as out, contextlib.redirect_stdout(out):\n"
            "        status = passiveqkd.cli.main(argv)\n"
            "    print(status, 'numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        expected = ["0 False"] + [f"0 {argv == ['run', 'realistic-pna']}" for argv in argvs]
        assert proc.stdout.splitlines() == expected


def test_lazy_module_binds_each_name_at_its_first_lookup(monkeypatch):
    import numpy
    import scipy.special

    from passiveqkd._special import _Lazy, np, special

    for shared, module, name in ((np, numpy, "exp"), (special, scipy.special, "pdtr")):
        assert getattr(shared, name) is vars(shared)[name] is getattr(module, name)
        lazy = _Lazy(module.__name__)
        assert vars(lazy) == {"_module": module.__name__}
        assert getattr(lazy, name) is vars(lazy)[name] is getattr(module, name)
        with monkeypatch.context() as m:
            m.setattr(_Lazy, "__getattr__", lambda self, name: pytest.fail(name))
            assert getattr(lazy, name) is getattr(module, name)
        with pytest.raises(AttributeError):
            lazy.no_such_name
        assert vars(lazy).keys() == {"_module", name}


@pytest.mark.parametrize(
    "command",
    [["run", "ideal-apn"], ["list-scenarios"], ["validate", "ideal-apn"]],
    ids=["run", "list-scenarios", "validate"],
)
def test_run_into_closed_pipe_ends_quietly(command):
    # the read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE, as under `passiveqkd run ideal-apn | head -2`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(passiveqkd.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "passiveqkd.cli", *command],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""

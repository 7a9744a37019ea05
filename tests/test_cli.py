"""Scenario loading, validation, and the command-line entry point."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import passiveqkd
from passiveqkd.cli import (
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
        "decoy": {"nu_s": 0.1, "nu_d": 0.5, "lambda_s": 3.42e-7, "lambda_d": 6.84e-8},
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
        pytest.param(changed(GOOD_MC, "scheme", lam="optimized"), [], "scheme.lam",
                     id="mc-pipeline-lam-optimized"),
        pytest.param(GOOD_MC, ["--seed", "-1"], "seed", id="seed-flag-negative"),
        pytest.param(GOOD_MC, ["--alpha", "2"], "alpha", id="alpha-flag-2"),
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


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_run_rejects_thread_count_below_one(tmp_path, threads):
    path = write_scenario(tmp_path, GOOD_MC)
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--threads", threads])
    assert exc.value.code == EXIT_VALIDATION


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

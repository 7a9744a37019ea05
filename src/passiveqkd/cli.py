"""Scenario-driven command line: validate and run analyses, emit curve tables.

A scenario is one YAML file naming an analysis mode plus the physical
parameters it needs, parsed once into the library's own types, whose
constructors make the physics checks.  ``run`` executes it (distance sweep
or single point) and writes a '#'-commented delimited table; ``validate``
makes the same parse without computing; ``list-scenarios`` shows the
bundled files that reproduce the reference figures.

Exit codes: 0 ok, 2 validation error, 3 numerical degeneracy, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import yaml

from . import __version__
from .keyrate import (
    ChannelParams,
    DecoySettings,
    decoy_rate_trusted,
    decoy_rate_untagged,
    pna_rate_bb84,
    poisson_multiphoton,
    tagged_rate,
)
# not called here: bench/workloads.py traces these names on this module
from .keyrate import channel_gain_qber, gllp_rate, trusted_delta_bar  # noqa: F401
from .montecarlo import PoissonianSource, RunConfig, run_pipeline
from .noise_bounds import GaussianNoise, PoissonNoise, ThresholdWindow, poisson_window_mass
from .photon_stats import PassiveSchemeParams
from .worstcase import maximize_ratio

_SECTIONS = ("scheme", "channel", "decoy", "noise", "window", "sweep")
_MAX_SWEEP_POINTS = 100_000
# the modes whose rate reads scheme.lam at each distance, so it may be 'optimized'
_LAM_OPTIMIZED = ("apn-bb84", "pna-bb84", "trusted-bb84")
_NOISE = {"poisson": PoissonNoise, "gaussian": GaussianNoise, "none": None}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4


class ScenarioError(Exception):
    pass


@dataclass
class ValidationReport:
    errors: list[dict] = field(default_factory=list)
    scenario: SimpleNamespace | None = None  # the parsed objects ``run`` uses

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, fieldname: str, message: str) -> None:
        self.errors.append({"field": fieldname, "message": message})

    def to_json(self) -> str:
        return json.dumps({"ok": self.ok, "errors": self.errors}, indent=2)


def bundled_scenarios() -> dict[str, str]:
    """Names and paths of the scenario files shipped with the package."""
    root = importlib.resources.files("passiveqkd") / "scenarios"
    return {
        p.name.removesuffix(".yaml"): str(p)
        for p in sorted(root.iterdir())
        if p.name.endswith(".yaml")
    }


def load_scenario(name_or_path: str) -> dict:
    path = bundled_scenarios().get(name_or_path, name_or_path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # libyaml's parser where PyYAML was built with it; the same mapping either way
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"malformed YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a mapping")
    return data


def _mistyped(value) -> str | None:
    """Why ``value`` cannot fill a float field, or None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be a number"
    if not abs(value) <= sys.float_info.max:  # inf, nan, or past any float
        return "must be a finite number"
    return None


def _build(report, section, cls, spec, skip=(), **given):
    """``cls(**spec, **given)``, or None with every problem in the report.

    ``spec`` may and must hold the fields of ``cls`` less ``skip`` and
    ``given``; a float field takes a finite number, and an integer given
    for it arrives as a float.  Any other field is left to the
    constructor's own check.  Callables in ``given`` get the checked
    ``spec``.  Library messages start with the offending field's name.  An
    absent section (``spec`` None) gives None.
    """
    if spec is None:
        return None
    fields = [f for f in dataclasses.fields(cls) if f.name not in (*skip, *given)]
    kinds = {f.name: f.type for f in fields}
    problems = [(k, "unknown key" if k not in kinds else kinds[k] == "float" and _mistyped(v))
                for k, v in spec.items()]
    problems += [(f.name, "required") for f in fields if f.name not in spec
                 and f.default is f.default_factory is dataclasses.MISSING]
    problems = [(k, message) for k, message in problems if message]
    if not problems:
        spec = {k: float(v) if kinds[k] == "float" else v for k, v in spec.items()}
        given = {k: v(spec) if callable(v) else v for k, v in given.items()}
        try:
            return cls(**spec, **given)
        except ValueError as exc:
            key = str(exc).split()[0]
            problems = [(key if key in kinds else "", str(exc))]
    for key, message in problems:
        report.add(f"{section}.{key}" if section and key else section or key, message)
    return None


@dataclass(frozen=True)
class _Sweep:
    """The distances L_start, L_start + L_step, ... up to L_end, in km."""

    L_start: float
    L_end: float
    L_step: float

    def __post_init__(self):
        if not self.L_start >= 0.0:
            raise ValueError("L_start must be >= 0")
        if not self.L_step > 0.0:
            raise ValueError("L_step must be > 0")
        if not self.L_end >= self.L_start:
            raise ValueError("L_end must be >= L_start")
        # counted as a float before any list is built: an infinite count fails too
        if not (self.L_end - self.L_start) / self.L_step + 1e-9 < _MAX_SWEEP_POINTS:
            raise ValueError(f"L_step must leave at most {_MAX_SWEEP_POINTS} sweep points")

    @property
    def points(self) -> list[float]:
        steps = int((self.L_end - self.L_start) / self.L_step + 1e-9)
        return [self.L_start + i * self.L_step for i in range(steps + 1)]


def _optimized_lam(mu: float, t_B: float, ch: ChannelParams) -> float:
    # choose the attenuator so the source-to-encoder transmittance
    # equals eta_B * eta_f / mu at this distance (inf when mu = 0 or
    # t_B = 1, which the scheme's constructor then names)
    denom = mu * (1.0 - t_B)
    return ch.eta_B * ch.eta_f / denom if denom else math.inf


def validate_scenario_dict(data: dict) -> ValidationReport:
    """Parse a scenario into the library's types; performs no computation.

    Every error, the constructors' own included, becomes a ``{field,
    message}`` entry.  ``report.scenario`` holds the objects ``run`` uses.
    """
    report = ValidationReport()
    mode = data.get("mode")
    if not isinstance(mode, str) or mode not in MODES:
        report.add("mode", f"must be one of {', '.join(MODES)}")
        return report
    requires, reads, _ = MODES[mode]
    source = "pipeline" if mode == "mc-pipeline" else None
    if "delta_source" in reads:
        source = data.get("delta_source", "exact")
        if source not in ("exact", "pipeline"):
            report.add("delta_source", "must be 'exact' or 'pipeline'")
    if source == "pipeline":
        requires, reads = requires + _PIPELINE_REQUIRES, reads + _PIPELINE_READS
    for key in data:
        if key not in _TOP_KEYS:
            report.add(key, "unknown key")
        elif key not in (*requires, *reads, *_EVERY_MODE):
            hint = ": set decoy.f_ec" if key == "f_ec" and "decoy" in requires else ""
            report.add(key, f"not read by mode {mode}{hint}")
    for key in requires:
        if data.get(key) is None:
            report.add(key, f"required for mode {mode}")
    if source == "exact" and not isinstance(data.get("window"), dict):
        report.add("window", "delta_source 'exact' needs a fixed {m1, m2} window")
    f_ec = data.get("f_ec", 1.0)
    if "f_ec" in reads and (_mistyped(f_ec) or not f_ec >= 1.0):
        report.add("f_ec", "must be a finite number >= 1")
    if data.get("output") is not None and not isinstance(data["output"], str):
        report.add("output", "must be a path string")

    blocks = {}
    for section in _SECTIONS:
        block = data.get(section)
        if isinstance(block, dict):
            blocks[section] = block
        elif section == "window" and block not in (None, "auto-minmax"):
            report.add(section, "must be 'auto-minmax' or a {m1, m2} mapping")
        elif section != "window" and block is not None:
            report.add(section, "must be a mapping")
    # channel.L stays an unknown key: the sweep sets L
    channel = _build(report, "channel", ChannelParams, blocks.get("channel"), skip=("L",))
    sweep = _build(report, "sweep", _Sweep, blocks.get("sweep"))
    noise = None
    if "noise" in blocks:
        rest = dict(blocks["noise"])
        ntype = rest.pop("type", None)
        cls = _NOISE.get(ntype, False) if isinstance(ntype, str) else False
        if cls is False or (cls is None and rest):
            report.add("noise.type", "must be poisson, gaussian, or none (with no other key)")
        elif cls is not None:
            noise = _build(report, "noise", cls, rest)
    window = _build(report, "window", ThresholdWindow, blocks.get("window"))
    # trusted-decoy never reads the attenuators: they are given an admissible
    # stand-in, so that the constructor checks the rest and a supplied one is
    # an unknown key
    stand_in = {"lambda_s": 1.0, "lambda_d": 0.5} if mode == "trusted-decoy" else {}
    decoy = _build(report, "decoy", DecoySettings, blocks.get("decoy"), **stand_in)
    scheme = None
    optimized = "scheme" in blocks and blocks["scheme"].get("lam") == "optimized"
    if not optimized:
        scheme = _build(report, "scheme", PassiveSchemeParams, blocks.get("scheme"))
    elif mode not in _LAM_OPTIMIZED:
        report.add("scheme.lam", f"'optimized' is read only by the *-bb84 modes, not by {mode}")
    elif channel is not None and sweep is not None:
        # lam is largest at the first distance, so the constructor's upper
        # bounds checked there hold for the whole sweep
        ch0 = channel.at_distance(sweep.L_start)
        spec = {k: v for k, v in blocks["scheme"].items() if k != "lam"}
        scheme = _build(report, "scheme", PassiveSchemeParams, spec,
                        lam=lambda spec: _optimized_lam(spec["mu"], spec["t_B"], ch0))
    if mode == "pna-decoy" and scheme is not None and decoy is not None:
        try:
            replace(scheme, lam=decoy.lambda_s)
        except ValueError as exc:
            report.add("decoy.lambda_s", str(exc))

    # alpha, M and seed are read, and so checked, only where the pipeline runs
    alpha, config = data.get("alpha"), None
    if source == "pipeline" and report.ok:
        if _mistyped(alpha) or not 0.0 < alpha < 1.0:
            report.add("alpha", "must be a finite number in (0, 1)")
        spec = {key: data[key] for key in ("M", "seed")}
        config = _build(report, "", RunConfig, spec, source=PoissonianSource(scheme.mu),
                        scheme=scheme, noise=noise, window=window)
    report.scenario = SimpleNamespace(
        mode=mode, scheme=scheme, optimized=optimized, channel=channel, decoy=decoy,
        noise=noise, window=window, points=sweep.points if sweep else None, delta_source=source,
        config=config, alpha=alpha, f_ec=f_ec,
    )
    return report


def _apn_rate(s, scheme, window, untagged):
    p_multi = maximize_ratio(scheme.eta, scheme.mu).p_multi_upper
    return lambda ch: tagged_rate(scheme.mu * scheme.eta, p_multi, ch, s.f_ec)


def _trusted_rate(s, scheme, window, untagged):
    mu_p2 = scheme.mu * scheme.eta
    p_multi = poisson_multiphoton(mu_p2)
    return lambda ch: tagged_rate(mu_p2, p_multi, ch, s.f_ec)


def _pna_rate(s, scheme, window, untagged):
    return lambda ch: pna_rate_bb84(scheme, ch, window, untagged, s.f_ec)


def _pna_decoy_rate(s, scheme, window, untagged):
    return lambda ch: decoy_rate_untagged(scheme, ch, s.decoy, window, untagged, untagged)


def _trusted_decoy_rate(s, scheme, window, untagged):
    return lambda ch: decoy_rate_trusted(ch, s.decoy.nu_s, s.decoy.nu_d, s.decoy.f_ec)


# mode -> (top-level keys it requires, keys it may also read, its rate):
# given the parsed scenario, one scheme, the window and the untagged
# fraction, the rate makes the terms that do not depend on distance once and
# returns the rate at a channel.  mc-pipeline has no sweep, its result is the
# untagged-fraction bound itself
MODES = {
    "apn-bb84": (("scheme", "channel", "sweep"), ("f_ec",), _apn_rate),
    "pna-bb84": (("scheme", "channel", "sweep", "window"), ("f_ec", "delta_source"), _pna_rate),
    "trusted-bb84": (("scheme", "channel", "sweep"), ("f_ec",), _trusted_rate),
    "pna-decoy": (("scheme", "channel", "decoy", "sweep", "window"), ("delta_source",),
                  _pna_decoy_rate),
    "trusted-decoy": (("channel", "decoy", "sweep"), (), _trusted_decoy_rate),
    "mc-pipeline": (("scheme", "window"), (), None),
}
# where the pipeline runs (mode mc-pipeline, or delta_source 'pipeline') a
# mode also requires these keys and may read these
_PIPELINE_REQUIRES, _PIPELINE_READS = ("alpha", "M", "seed"), ("noise",)
_EVERY_MODE = ("mode", "description", "output")
_TOP_KEYS = {*_EVERY_MODE, *_PIPELINE_REQUIRES, *_PIPELINE_READS,
             *(key for requires, reads, _ in MODES.values() for key in requires + reads)}


def _format_row(L, rate, Q, E, delta_bar, untagged) -> str:
    values = (L, rate, Q, E, delta_bar, untagged)
    return "\t".join(["" if x is None else f"{x:.10g}" for x in values])


def _run(s):
    """(rows, summary, degenerate) of a parsed scenario.

    Where an untagged fraction is needed, 'exact' takes the analytic
    Poissonian mass of the fixed window, and 'pipeline' runs the Monte Carlo
    monitoring experiment and its confidence/noise bound chain, which also
    sets the window; with noise the summary ends with the monitor's R_SN.
    The monitor sees xi = t_B * t_D independent of the attenuator, so one
    value covers every distance and both decoy intensities.
    """
    window, untagged, degenerate = s.window, None, False
    if s.delta_source is not None:  # every mode that reads one has a scheme
        mean_m = s.scheme.mu * s.scheme.xi
    if s.config is not None:
        result = run_pipeline(s.config, s.alpha)
        window, untagged, degenerate = (
            result.effective_window, result.untagged_lower, result.degenerate)
    elif s.delta_source is not None:
        untagged = float(poisson_window_mass(window.m1, window.m2, mean_m))
    mode_rate = MODES[s.mode][2]
    if mode_rate is None:
        rows = [_format_row(None, None, None, None, None, untagged)]
        summary = {"untagged_lower": untagged, "window": f"[{window.m1:g}, {window.m2:g}]"}
    else:
        rows, max_secure, rate, scheme = [], None, None, s.scheme
        for L in s.points:
            ch = s.channel.at_distance(L)
            # with lam fixed the scheme, and so the rate's multiphoton bound,
            # serves every distance; an optimized lam gives a new scheme at each
            if s.optimized:
                scheme = PassiveSchemeParams(
                    scheme.t_B, scheme.t_D, _optimized_lam(scheme.mu, scheme.t_B, ch), scheme.mu)
            if rate is None or s.optimized:
                rate = mode_rate(s, scheme, window, untagged)
            p = rate(ch)
            rows.append(_format_row(L, p.rate, p.Q, p.E, p.delta_bar, untagged))
            if p.rate > 0.0:
                max_secure = L
        summary = {"max_secure_distance_km": max_secure if max_secure is not None else "none"}
    if isinstance(s.noise, PoissonNoise):  # a noise model only where the pipeline ran
        summary["R_SN_p"] = mean_m / s.noise.gamma
    elif s.noise is not None:
        summary["R_SN_g"] = mean_m / s.noise.sigma2
    return rows, summary, degenerate


def run_scenario(
    name_or_path: str,
    seed: int | None = None,
    output: str | None = None,
    alpha: float | None = None,
    stream=None,
) -> int:
    """Execute a scenario and write its table; returns the process exit code.

    The overrides replace the scenario's own values before validation.
    """
    stream = stream if stream is not None else sys.stdout
    try:
        data = load_scenario(name_or_path)
    except ScenarioError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    for key, value in (("seed", seed), ("alpha", alpha), ("output", output)):
        if value is not None:
            data[key] = value
    report = validate_scenario_dict(data)
    if not report.ok:
        print(report.to_json(), file=sys.stderr)
        return EXIT_VALIDATION
    s = report.scenario

    try:
        rows, summary, degenerate = _run(s)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE

    lines = [
        f"# passiveqkd {__version__}",
        f"# scenario: {json.dumps(data, sort_keys=True)}",
        "# columns: L_km\trate\tQ\tE\tdelta_bar\tuntagged_lower",
    ]
    if degenerate:
        lines.append("# note: untagged bound degenerate (noise saturates the window)")
    lines.extend(rows)
    text = "\n".join(lines) + "\n"

    out_path = data.get("output")
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            stream.write(text)
    except BrokenPipeError:
        raise  # the reader left; main ends quietly
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO

    for key, value in summary.items():
        print(f"# {key}: {value}", file=stream if not out_path else sys.stdout)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="passiveqkd",
        description="Untrusted-source QKD security analysis scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("scenario", help="bundled scenario name or YAML path")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--output", default=None)
    p_run.add_argument("--alpha", type=float, default=None)

    p_val = sub.add_parser("validate", help="check a scenario without running it")
    p_val.add_argument("scenario")

    sub.add_parser("list-scenarios", help="show bundled scenarios")

    args = parser.parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name in bundled_scenarios():
                print(name)
            status = EXIT_OK
        elif args.command == "validate":
            report = validate_scenario_dict(load_scenario(args.scenario))
            print(report.to_json())
            status = EXIT_OK if report.ok else EXIT_VALIDATION
        else:
            status = run_scenario(
                args.scenario,
                seed=args.seed,
                output=args.output,
                alpha=args.alpha,
            )
        sys.stdout.flush()
    except ScenarioError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenPipeError:
        # reader gone (`... | head`): end quietly; stdout on devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())

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
from scipy import stats

from . import __version__
from .keyrate import (
    ChannelParams,
    DecoySettings,
    RatePoint,
    channel_gain_qber,
    decoy_rate_trusted,
    decoy_rate_untagged,
    gllp_rate,
    pna_rate_bb84,
    trusted_delta_bar,
)
from .montecarlo import PoissonianSource, RunConfig, run_pipeline
from .noise_bounds import GaussianNoise, PoissonNoise, ThresholdWindow
from .photon_stats import PassiveSchemeParams
from .worstcase import InfeasibleError, maximize_ratio

_SECTIONS = ("scheme", "channel", "decoy", "noise", "window", "sweep")
_PIPELINE_KEYS = ("alpha", "M", "seed")
_TOP_KEYS = {*_SECTIONS, *_PIPELINE_KEYS, "mode", "description", "f_ec", "delta_source", "output"}
_SWEEP_KEYS = ("L_start", "L_end", "L_step")
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
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"malformed YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a mapping")
    return data


def _mistyped(value, kind) -> str | None:
    """Why ``value`` cannot fill a field annotated ``kind``, or None."""
    if isinstance(value, bool) or not isinstance(value, {"int": int}.get(kind, (int, float))):
        return "must be an integer" if kind == "int" else "must be a number"
    return None


def _key_problems(spec: dict, kinds: dict, required) -> list[tuple[str, str]]:
    """Unknown, mistyped and missing keys of one scenario mapping."""
    problems = [(k, _mistyped(v, kinds[k]) if k in kinds else "unknown key")
                for k, v in spec.items()]
    problems += [(k, "required") for k in kinds if k in required and k not in spec]
    return [(k, message) for k, message in problems if message]


def _build(report, section, cls, spec, skip=(), **given):
    """``cls(**spec, **given)``, or None with every problem in the report.

    ``spec`` may and must hold the fields of ``cls`` less ``skip`` and
    ``given``, with their types; callables in ``given`` get the checked
    ``spec``.  Library messages start with the offending field's name.
    An absent section (``spec`` None) gives None.
    """
    if spec is None:
        return None
    fields = [f for f in dataclasses.fields(cls) if f.name not in (*skip, *given)]
    kinds = {f.name: f.type for f in fields}
    required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}
    problems = _key_problems(spec, kinds, required)
    if not problems:
        given = {k: v(spec) if callable(v) else v for k, v in given.items()}
        try:
            return cls(**spec, **given)
        except ValueError as exc:
            key = str(exc).split()[0]
            problems = [(key if key in kinds else "", str(exc))]
    for key, message in problems:
        report.add(f"{section}.{key}" if section and key else section or key, message)
    return None


def _parse_sweep(report, spec):
    """The sweep's distances in km; the sweep has no library type."""
    problems = _key_problems(spec, dict.fromkeys(_SWEEP_KEYS, "float"), _SWEEP_KEYS)
    if not problems:
        l0, l1, step = (spec[key] for key in _SWEEP_KEYS)
        bounds = (("L_start", l0 < 0, ">= 0"), ("L_step", step <= 0, "> 0"),
                  ("L_end", l1 < l0, ">= L_start"))
        problems = [(key, f"must be {bound}") for key, wrong, bound in bounds if wrong]
    for key, message in problems:
        report.add(f"sweep.{key}", message)
    if problems:
        return None
    n = int(math.floor((l1 - l0) / step + 1e-9)) + 1
    return [l0 + i * step for i in range(n)]


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
    for key in data:
        if key not in _TOP_KEYS:
            report.add(key, "unknown key")
    mode = data.get("mode")
    if not isinstance(mode, str) or mode not in MODES:
        report.add("mode", f"must be one of {', '.join(MODES)}")
        return report
    if data.get("delta_source") not in (None, "exact", "pipeline"):
        report.add("delta_source", "must be 'exact' or 'pipeline'")
    source = data.get("delta_source", "exact") if mode.startswith("pna-") else None
    source = "pipeline" if mode == "mc-pipeline" else source
    for key in MODES[mode][0] + (_PIPELINE_KEYS if source == "pipeline" else ()):
        if data.get(key) is None:
            report.add(key, f"required for mode {mode}")
    if source == "exact" and not isinstance(data.get("window"), dict):
        report.add("window", "delta_source 'exact' needs a fixed {m1, m2} window")
    if "f_ec" in data and (_mistyped(data["f_ec"], "float") or not data["f_ec"] >= 1.0):
        report.add("f_ec", "must be a number >= 1")
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
    points = _parse_sweep(report, blocks["sweep"]) if "sweep" in blocks else None
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
    decoy = None
    if "decoy" in blocks:
        # trusted-decoy never reads the attenuators: absent ones get an
        # admissible stand-in so that the constructor checks the rest
        stand_in = {"lambda_s": 1.0, "lambda_d": 0.5} if mode == "trusted-decoy" else {}
        decoy = _build(report, "decoy", DecoySettings, {**stand_in, **blocks["decoy"]})
    scheme = None
    optimized = "scheme" in blocks and blocks["scheme"].get("lam") == "optimized"
    if "scheme" in blocks and not optimized:
        scheme = _build(report, "scheme", PassiveSchemeParams, blocks["scheme"])
    elif optimized and "channel" not in MODES[mode][0]:
        report.add("scheme.lam", f"'optimized' needs a channel, and mode {mode} has none")
    elif optimized and channel is not None and points is not None:
        # lam is largest at the first distance, so the constructor's upper
        # bounds checked there hold for the whole sweep
        ch0 = channel.at_distance(points[0])
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
        if _mistyped(alpha, "float") or not 0.0 < alpha < 1.0:
            report.add("alpha", "must be a number in (0, 1)")
        spec = {key: data[key] for key in ("M", "seed")}
        config = _build(report, "", RunConfig, spec, source=PoissonianSource(scheme.mu),
                        scheme=scheme, noise=noise, window=window)
    report.scenario = SimpleNamespace(
        mode=mode, scheme=scheme, optimized=optimized, channel=channel, decoy=decoy,
        noise=noise, window=window, points=points, delta_source=source, config=config,
        alpha=alpha, f_ec=data.get("f_ec", 1.0),
        untagged=None,  # 1 - delta, set by the run for the modes that read it
        p_multi={},  # worst-case multiphoton bound by eta, filled during one run
    )
    return report


def _scheme_at(s, ch: ChannelParams) -> PassiveSchemeParams:
    if s.optimized:
        return replace(s.scheme, lam=_optimized_lam(s.scheme.mu, s.scheme.t_B, ch))
    return s.scheme


def _apn_point(s, ch) -> RatePoint:
    scheme = _scheme_at(s, ch)
    # eta is fixed unless lam is optimized: one maximize_ratio call (up to
    # ~36 ms) then serves the whole sweep
    if scheme.eta not in s.p_multi:
        s.p_multi[scheme.eta] = maximize_ratio(scheme.eta, scheme.mu).p_multi_upper
    Q, E = channel_gain_qber(scheme.mu * scheme.eta, ch)
    delta_bar = s.p_multi[scheme.eta] / Q
    return RatePoint(ch.L, gllp_rate(Q, E, min(1.0, delta_bar), s.f_ec), delta_bar, Q, E)


def _trusted_point(s, ch) -> RatePoint:
    scheme = _scheme_at(s, ch)
    mu_p2 = scheme.mu * scheme.eta
    delta_bar = trusted_delta_bar(mu_p2, ch)
    Q, E = channel_gain_qber(mu_p2, ch)
    return RatePoint(ch.L, gllp_rate(Q, E, min(1.0, delta_bar), s.f_ec), delta_bar, Q, E)


def _pna_point(s, ch) -> RatePoint:
    return pna_rate_bb84(_scheme_at(s, ch), ch, s.window, s.untagged, s.f_ec)


def _pna_decoy_point(s, ch) -> RatePoint:
    return decoy_rate_untagged(_scheme_at(s, ch), ch, s.decoy, s.window, s.untagged, s.untagged)


def _trusted_decoy_point(s, ch) -> RatePoint:
    return decoy_rate_trusted(ch, s.decoy.nu_s, s.decoy.nu_d, s.decoy.f_ec)


# mode -> (keys it requires, its rate at one distance); mc-pipeline has no
# sweep, its result is the untagged-fraction bound itself
MODES = {
    "apn-bb84": (("scheme", "channel", "sweep"), _apn_point),
    "pna-bb84": (("scheme", "channel", "sweep", "window"), _pna_point),
    "trusted-bb84": (("scheme", "channel", "sweep"), _trusted_point),
    "pna-decoy": (("scheme", "channel", "decoy", "sweep"), _pna_decoy_point),
    "trusted-decoy": (("channel", "decoy", "sweep"), _trusted_decoy_point),
    "mc-pipeline": (("scheme", "window"), None),
}


def _untagged_fraction(s, threads: int):
    """Resolve (window, one_minus_delta, pipeline_degenerate_flag).

    'exact' uses the analytic Poissonian windowed mass; 'pipeline' runs the
    Monte Carlo monitoring experiment and its confidence/noise bound chain.
    The monitor branch sees xi = t_B * t_D independent of the attenuator, so
    one value covers every distance and both decoy intensities.
    """
    if s.config is not None:
        result = run_pipeline(s.config, s.alpha, threads=threads)
        return result.effective_window, result.untagged_lower, result.degenerate
    w, mean_m = s.window, s.scheme.mu * s.scheme.xi
    omd = float(
        stats.poisson.cdf(math.floor(w.m2), mean_m)
        - stats.poisson.cdf(math.ceil(w.m1) - 1, mean_m)
    )
    return w, omd, False


def _format_row(L, rate, Q, E, delta_bar, untagged) -> str:
    def fmt(x):
        return "" if x is None else f"{x:.10g}"

    return "\t".join(fmt(v) for v in (L, rate, Q, E, delta_bar, untagged))


def _run(s, threads: int):
    """(rows, summary, degenerate) of a parsed scenario."""
    degenerate = False
    if s.delta_source is not None:
        s.window, s.untagged, degenerate = _untagged_fraction(s, threads)
    point = MODES[s.mode][1]
    if point is None:
        rows = [_format_row(None, None, None, None, None, s.untagged)]
        window = f"[{s.window.m1:g}, {s.window.m2:g}]"
        return rows, {"untagged_lower": s.untagged, "window": window}, degenerate
    rows, max_secure = [], None
    for L in s.points:
        p = point(s, s.channel.at_distance(L))
        rows.append(_format_row(L, p.rate, p.Q, p.E, p.delta_bar, s.untagged))
        if p.rate > 0.0:
            max_secure = L
    summary = {"max_secure_distance_km": max_secure if max_secure is not None else "none"}
    return rows, summary, degenerate


def run_scenario(
    name_or_path: str,
    seed: int | None = None,
    threads: int = 1,
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
    if s.mode == "mc-pipeline":
        data["delta_source"] = "pipeline"

    try:
        rows, summary, degenerate = _run(s, threads)
    except (InfeasibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE

    if s.scheme is not None and s.noise is not None:
        mean_m = s.scheme.mu * s.scheme.t_B * s.scheme.t_D
        if isinstance(s.noise, PoissonNoise):
            summary["R_SN_p"] = mean_m / s.noise.gamma
        else:
            summary["R_SN_g"] = mean_m / s.noise.sigma2

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


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="passiveqkd",
        description="Untrusted-source QKD security analysis scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("scenario", help="bundled scenario name or YAML path")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--threads", type=_thread_count, default=1)
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
            try:
                report = validate_scenario_dict(load_scenario(args.scenario))
            except ScenarioError as exc:
                print(f"I/O error: {exc}", file=sys.stderr)
                return EXIT_IO
            print(report.to_json())
            status = EXIT_OK if report.ok else EXIT_VALIDATION
        else:
            status = run_scenario(
                args.scenario,
                seed=args.seed,
                threads=args.threads,
                output=args.output,
                alpha=args.alpha,
            )
        sys.stdout.flush()
    except BrokenPipeError:
        # reader gone (`... | head`): end quietly; stdout on devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())

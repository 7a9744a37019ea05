"""The three benchmark workloads: curves, records and monitoring.

A workload runs in whole rounds.  Each round makes its inputs from the
seed and the round number, times only the calls into passiveqkd, and then
checks every output (see ``checks.py``) outside the timed part.  Library
functions are reached through the ``api`` namespace, so the tracer can wrap
the benchmark's own calls the same way it wraps the package's internal
ones.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml
from scipy import stats

import checks
from passiveqkd import (
    ChannelParams,
    DecoySettings,
    ExplicitSource,
    GaussianNoise,
    PassiveSchemeParams,
    PhotonNumberDistribution,
    PoissonianSource,
    PoissonNoise,
    RunConfig,
    ThresholdWindow,
    bernoulli_transform,
    clopper_pearson,
    cli,
    decoy_rate_trusted,
    decoy_rate_untagged,
    keyrate,
    maximize_ratio,
    montecarlo,
    noise_bounds,
    poisson_pnd,
    run_pipeline,
    untagged_lower_bound_gaussian,
    untagged_lower_bound_poisson,
)

# Failure reasons that come from the known Poisson-noise fault: the untagged
# bracket is taken in m' = m + d space without the dark-count shift, so the
# bound is degenerate and the criterion-7 reach claim cannot hold.
KNOWN_FAULT = ("poisson-degenerate", "poisson-reach")

DISTANCES = np.arange(0.0, 151.0, 1.0)  # km, every decoy curve
GYS = ChannelParams(eta_B=0.045, alpha_prime=0.21, Y0=1.7e-6, e_det=0.033)
TABLE2 = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=3.42e-7, mu=1.462e7)
TABLE2_DECOY = DecoySettings(nu_s=0.5, nu_d=0.1, lambda_s=3.42e-7, lambda_d=6.84e-8, f_ec=1.22)
LOWTRANS = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=1e-6, mu=1e6)
LOWTRANS_CH = ChannelParams(eta_B=0.5, alpha_prime=0.21, Y0=1.7e-6, e_det=0.033)
LOWTRANS_DECOY = DecoySettings(nu_s=0.1, nu_d=0.02, lambda_s=1e-6, lambda_d=2e-7, f_ec=1.22)


def make_api() -> SimpleNamespace:
    return SimpleNamespace(
        run_scenario=cli.run_scenario,
        maximize_ratio=maximize_ratio,
        clopper_pearson=clopper_pearson,
        untagged_lower_bound_gaussian=untagged_lower_bound_gaussian,
        untagged_lower_bound_poisson=untagged_lower_bound_poisson,
        decoy_rate_untagged=decoy_rate_untagged,
        run_pipeline=run_pipeline,
        poisson_pnd=poisson_pnd,
        bernoulli_transform=bernoulli_transform,
    )


def _source_kind(config: RunConfig) -> str:
    if isinstance(config.source, ExplicitSource):
        return "explicit"
    return "poisson" if isinstance(config.noise, PoissonNoise) else "gaussian"


def _run_note(args, kwargs, result):
    config = args[0]
    return {"pulses": config.M, "kind": _source_kind(config)}


def _bound_note(args, kwargs, result):
    return {"degenerate": bool(result.degenerate)}


def trace_sites(api):
    """Every (namespace, attribute) through which a layer is called."""
    sites = [
        (api, name, _bound_note if name.startswith("untagged_lower_bound") else None)
        for name in vars(api)
    ]
    sites += [(cli, name, None) for name in (
        "load_scenario", "validate_scenario_dict", "maximize_ratio", "channel_gain_qber",
        "gllp_rate", "pna_rate_bb84", "trusted_delta_bar", "decoy_rate_trusted",
        "decoy_rate_untagged", "run_pipeline",
    )]
    sites += [(keyrate, "maximize_ratio", None), (keyrate, "coefficient_a", None)]
    sites += [
        (montecarlo, "run", _run_note),
        (montecarlo, "clopper_pearson", None),
        (montecarlo, "untagged_lower_bound_gaussian", _bound_note),
        (montecarlo, "untagged_lower_bound_poisson", _bound_note),
    ]
    sites += [
        (noise_bounds, name, None) for name in ("poisson_bbar", "poisson_b", "gaussian_b123")
    ]
    return sites


@dataclass
class Op:
    """One operation of a round and what its checks found."""

    name: str
    reasons: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    @property
    def expected(self) -> bool:
        return all(r.split(":", 1)[0] in KNOWN_FAULT for r in self.reasons)


class Clock:
    """Accumulates the time spent inside ``with clock:`` blocks."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t0


def _rng(seed: int, workload: int, round_: int) -> np.random.Generator:
    return np.random.default_rng([seed & (2**64 - 1), workload, round_])


# ------------------------------------------------------------------ curves


class Curves:
    """Bundled scenarios through cli.run_scenario, plus the APN eta table."""

    index = 0
    SCENARIOS = (
        "decoy-trusted", "ideal-apn", "ideal-trusted", "lowtrans-apn", "lowtrans-pna",
        "lowtrans-trusted", "mc-pipeline-demo", "realistic-apn", "realistic-pna",
        "realistic-trusted",
    )
    ETA_EXPONENTS = np.arange(-8.0, -1.75, 0.5)  # 1e-8 ... 1e-2, two per decade
    ANCHOR = 10  # eta = 1e-3 exactly, the paper's maximize_ratio(1e-3, 100)
    FAMILIES = (("ideal", ("apn", "trusted")), ("lowtrans", ("apn", "pna", "trusted")),
                ("realistic", ("apn", "pna", "trusted")))

    def __init__(self, api, seed: int, threads: int):
        self.api, self.seed = api, seed
        self.records_per_round = 1  # mc-pipeline-demo analyses one simulated record
        self.pulses_per_round = 0
        self.rows_per_round = 0

    def round(self, r: int, clock: Clock) -> list[Op]:
        rng = _rng(self.seed, self.index, r)
        pipeline_seed = int(rng.integers(0, 2**63))
        ops, tables = [], {}
        for name in self.SCENARIOS:
            op, out = Op(name), io.StringIO()
            seed = pipeline_seed if name == "mc-pipeline-demo" else None
            with clock:
                code = self.api.run_scenario(name, seed=seed, stream=out)
            ops.append(op)
            if code != 0:
                op.reasons.append(f"exit code {code}")
                continue
            data, rows, summary = checks.parse_table(out.getvalue())
            tables[name] = (op, rows)
            op.reasons += checks.check_table(data, rows)
            if data["mode"] == "mc-pipeline":
                op.reasons += checks.check_pipeline_row(rows, summary)
                if data.get("seed") != pipeline_seed:
                    op.reasons.append("scenario seed override not applied")
                self.pulses_per_round = data["M"]
        for family, kinds in self.FAMILIES:
            for lo, hi in zip(kinds, kinds[1:]):
                a, b = tables.get(f"{family}-{lo}"), tables.get(f"{family}-{hi}")
                if a and b:
                    bad = checks.check_ordering(a[1], b[1], f"{family} {lo} <= {hi}")
                    a[0].reasons += bad
                    b[0].reasons += bad
        if "ideal-apn" in tables:
            tables["ideal-apn"][0].reasons += checks.check_reach(
                tables["ideal-apn"][1], 24.7, 0.2)
        if "ideal-trusted" in tables:
            tables["ideal-trusted"][0].reasons += checks.check_reach(
                tables["ideal-trusted"][1], 63.0, 0.5)

        jitter = np.exp(rng.uniform(-0.01, 0.01, size=self.ETA_EXPONENTS.size))
        for i, exponent in enumerate(self.ETA_EXPONENTS):
            eta = 1e-3 if i == self.ANCHOR else float(10.0**exponent * jitter[i])
            mu = 0.1 / eta  # mean output intensity 0.1, as in the paper
            op = Op(f"maximize_ratio eta={eta:.4g}")
            with clock:
                worst = self.api.maximize_ratio(eta, mu)
            op.reasons += checks.check_worst_case(eta, mu, worst.p_multi_upper)
            if i == self.ANCHOR:
                op.reasons += checks.check_worst_case_anchor(worst.p_multi_upper)
            ops.append(op)
        table_rows = sum(len(rows) for _, rows in tables.values())
        self.rows_per_round = table_rows + len(self.ETA_EXPONENTS)
        return ops


# ----------------------------------------------------------------- records


@dataclass(frozen=True)
class RecordSpec:
    label: str
    scheme: PassiveSchemeParams
    channel: ChannelParams
    decoy: DecoySettings
    noise: GaussianNoise | PoissonNoise


class Records:
    """Analysis of measured monitor records: no simulation, M = 1e8 each."""

    index = 1
    M = 10**8
    ALPHA = 1e-6
    Z = 5.3  # window half-width in standard deviations of m'
    SPECS = (
        *(RecordSpec(f"table2 sigma2={s:g}", TABLE2, GYS, TABLE2_DECOY, GaussianNoise(s))
          for s in (1e9, 1e10, 7e10)),
        *(RecordSpec(f"table2 gamma={g:g}", TABLE2, GYS, TABLE2_DECOY, PoissonNoise(g))
          for g in (1e6, 4e6, 7e6)),
        RecordSpec("lowtrans R_SN=10", LOWTRANS, LOWTRANS_CH, LOWTRANS_DECOY,
                   PoissonNoise(LOWTRANS.mu * LOWTRANS.xi / 10.0)),
    )

    def __init__(self, api, seed: int, threads: int):
        self.api, self.seed = api, seed
        self.channels = {
            spec.channel: [spec.channel.at_distance(L) for L in DISTANCES] for spec in self.SPECS
        }
        self.analysed = 0
        self.records_per_round = len(self.SPECS)
        self.rows_per_round = len(self.SPECS) * DISTANCES.size
        self.pulses_per_round = len(self.SPECS) * self.M

    def make_record(self, spec: RecordSpec, rng, u: float):
        """Window and count of one record; k' is drawn from the exact hit law.

        Every record in a round uses the same uniform u (common random
        numbers), so the comparison of reaches across noise levels is not
        decided by which record happened to draw more misses.  M drops by
        one per record so no two clopper_pearson calls share inputs.
        """
        signal = spec.scheme.mu * spec.scheme.xi
        if isinstance(spec.noise, PoissonNoise):
            mean, var = signal + spec.noise.gamma, signal + spec.noise.gamma
        else:
            mean, var = signal, signal + spec.noise.sigma2
        sd = math.sqrt(var)
        j1, j2 = rng.integers(0, 64, size=2)
        m1 = math.floor(mean - self.Z * sd) - int(j1)
        m2 = math.ceil(mean + self.Z * sd) + int(j2)
        if isinstance(spec.noise, PoissonNoise):
            # signal plus Poisson noise is Poisson with the summed mean
            p_miss = float(stats.poisson.cdf(m1 - 1, mean) + stats.poisson.sf(m2, mean))
        else:
            sd_s = math.sqrt(signal)
            m = np.arange(math.floor(signal - 12 * sd_s), math.ceil(signal + 12 * sd_s) + 1)
            sigma = math.sqrt(spec.noise.sigma2)
            miss = stats.norm.cdf((m1 - m) / sigma) + stats.norm.sf((m2 - m) / sigma)
            p_miss = float(stats.poisson.pmf(m, signal) @ miss)
        M = self.M - self.analysed
        self.analysed += 1
        k = M - int(stats.binom.ppf(u, M, p_miss))
        return ThresholdWindow(float(m1), float(m2)), k, M

    def round(self, r: int, clock: Clock) -> list[Op]:
        rng = _rng(self.seed, self.index, r)
        u = float(rng.uniform(0.0, 1.0))
        ops, gaussian_reach = [], []
        for spec in self.SPECS:
            w, k, M = self.make_record(spec, rng, u)
            op = Op(spec.label)
            chs = self.channels[spec.channel]
            with clock:
                cp = self.api.clopper_pearson(k, M, self.ALPHA)
                if isinstance(spec.noise, PoissonNoise):
                    bound = self.api.untagged_lower_bound_poisson(cp.lower, w, spec.noise.gamma)
                else:
                    bound = self.api.untagged_lower_bound_gaussian(cp.lower, w, spec.noise.sigma2)
                rates = [
                    self.api.decoy_rate_untagged(
                        spec.scheme, ch, spec.decoy, w, bound.value, bound.value).rate
                    for ch in chs
                ]
            km = checks.reach(list(zip(DISTANCES, rates)))
            op.reasons += checks.check_clopper_pearson(k, M, self.ALPHA, cp.lower, cp.upper)
            mass = checks.window_mass(spec.scheme.mu * spec.scheme.xi, w.m1, w.m2)
            op.reasons += checks.check_bound_sound(bound.value, mass)
            if any(not rate >= 0.0 for rate in rates):
                op.reasons.append("negative decoy rate")
            if isinstance(spec.noise, GaussianNoise):
                op.reasons += checks.check_gaussian_bound(
                    bound.value, cp.lower, w.m1, w.m2, spec.noise.sigma2)
                if spec.noise.sigma2 == 1e9:
                    op.reasons += checks.check_min_reach(km, 100.0)
                gaussian_reach.append((op, km))
            else:
                if bound.degenerate:
                    op.reasons.append("poisson-degenerate: untagged bound is degenerate")
                if spec.scheme is TABLE2 and spec.noise.gamma == 1e6 and not (km or 0) > 100.0:
                    op.reasons.append(f"poisson-reach: decoy reach {km} km, expected > 100 km")
            ops.append(op)
        bad = checks.check_reach_order([km for _, km in gaussian_reach], "table2 Gaussian")
        for op, _ in gaussian_reach:
            op.reasons += bad
        return ops


# -------------------------------------------------------------- monitoring


def _load_scenario(name: str) -> dict:
    """A bundled scenario file, read directly rather than through the CLI."""
    path = Path(cli.__file__).parent / "scenarios" / f"{name}.yaml"
    with open(path, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


class Monitoring:
    """Monte Carlo monitoring runs through run_pipeline, then their decoy curves."""

    index = 2
    M = 1 << 24  # pulses per scenario run, a whole number of 2^20 blocks
    M_EXPLICIT = 1 << 23
    MU_EXPLICIT = 1.5e3
    WINDOW_EXPLICIT = ThresholdWindow(919.0, 1134.0)  # thinned mean 1026 -+ 1 sd

    def __init__(self, api, seed: int, threads: int):
        self.api, self.seed, self.threads = api, seed, threads
        self.runs = []
        for name in ("decoy-gaussian-noise", "decoy-poisson-noise"):
            d = _load_scenario(name)
            scheme = PassiveSchemeParams(**d["scheme"])
            ch = ChannelParams(**d["channel"])
            decoy = DecoySettings(**d["decoy"])
            n = d["noise"]
            gaussian = n["type"] == "gaussian"
            noise = GaussianNoise(n["sigma2"]) if gaussian else PoissonNoise(n["gamma"])
            chs = [ch.at_distance(L) for L in DISTANCES]
            trusted = [decoy_rate_trusted(c, decoy.nu_s, decoy.nu_d, decoy.f_ec).rate for c in chs]
            self.runs.append((name, scheme, decoy, noise, d["alpha"], chs, trusted))
        self.explicit_scheme = PassiveSchemeParams(
            t_B=0.9, t_D=0.76, lam=3.42e-7, mu=self.MU_EXPLICIT)
        self.records_per_round = len(self.runs) + 1
        self.rows_per_round = len(self.runs) * DISTANCES.size
        self.pulses_per_round = len(self.runs) * self.M + self.M_EXPLICIT
        self.single_thread_ns = []  # Gaussian run repeated on one thread, traced rounds only
        self.last_gaussian = None

    def round(self, r: int, clock: Clock) -> list[Op]:
        rng = _rng(self.seed, self.index, r)
        ops = []
        for name, scheme, decoy, noise, alpha, chs, trusted in self.runs:
            config = RunConfig(M=self.M, seed=int(rng.integers(0, 2**63)),
                               source=PoissonianSource(scheme.mu), scheme=scheme,
                               noise=noise, window=None)
            op = Op(name)
            with clock:
                res = self.api.run_pipeline(config, alpha, threads=self.threads)
                w = res.effective_window
                rates = [
                    self.api.decoy_rate_untagged(
                        scheme, ch, decoy, w, res.untagged_lower, res.untagged_lower).rate
                    for ch in chs
                ]
            if res.k_prime != self.M:
                op.reasons.append(f"k' = {res.k_prime} under auto-minmax, expected M = {self.M}")
            mass = checks.window_mass(scheme.mu * scheme.xi, w.m1, w.m2)
            op.reasons += checks.check_bound_sound(res.untagged_lower, mass)
            op.reasons += checks.check_curve_below(rates, trusted, "PNA decoy <= trusted decoy")
            km = checks.reach(list(zip(DISTANCES, rates)))
            if isinstance(noise, PoissonNoise):
                if res.degenerate:
                    op.reasons.append("poisson-degenerate: untagged bound is degenerate")
                if not (km or 0) > 100.0:
                    op.reasons.append(f"poisson-reach: decoy reach {km} km, expected > 100 km")
            else:
                if res.degenerate:
                    op.reasons.append("Gaussian untagged bound is degenerate")
                op.reasons += checks.check_min_reach(km, 100.0)
                self.last_gaussian = config
            ops.append(op)
        ops.append(self._explicit(rng, clock))
        return ops

    def _explicit(self, rng, clock: Clock) -> Op:
        """50/50 mixture of Poissons at 0.9 mu and 1.1 mu, fixed window, no noise.

        mu is the same every round: poisson_pnd rejects about a quarter of
        the means between 1e3 and 3e3 (its normalization tolerance), so a
        mean drawn per round would fail on some seeds and not on others.
        """
        mu = self.MU_EXPLICIT
        xi = self.explicit_scheme.xi
        w = self.WINDOW_EXPLICIT
        m1, m2 = int(w.m1), int(w.m2)
        config_seed = int(rng.integers(0, 2**63))
        op = Op("explicit mixture")
        with clock:
            low, high = self.api.poisson_pnd(0.9 * mu), self.api.poisson_pnd(1.1 * mu)
            probs = 0.5 * high.probs
            probs[: low.probs.size] += 0.5 * low.probs
            pnd = PhotonNumberDistribution(probs, 0.5 * (low.tail_mass + high.tail_mass))
            p_hit_lib = float(self.api.bernoulli_transform(pnd, xi).probs[m1 : m2 + 1].sum())
            config = RunConfig(M=self.M_EXPLICIT, seed=config_seed, source=ExplicitSource(pnd),
                               scheme=self.explicit_scheme, noise=None, window=w)
            res = self.api.run_pipeline(config, 1e-6, threads=self.threads)
        p_hit = checks.thinned_window_probability(pnd.probs, xi, m1, m2)
        op.reasons += checks.check_explicit(res.k_prime, self.M_EXPLICIT, p_hit, p_hit_lib)
        op.reasons += checks.check_bound_sound(res.untagged_lower, p_hit)
        return op

    def after_traced_round(self):
        """Repeat the round's Gaussian run on one thread, untraced."""
        t0 = time.perf_counter()
        montecarlo.run(self.last_gaussian, threads=1)
        self.single_thread_ns.append(1e9 * (time.perf_counter() - t0) / self.last_gaussian.M)


WORKLOADS = {"curves": Curves, "records": Records, "monitoring": Monitoring}

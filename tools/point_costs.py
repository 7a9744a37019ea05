"""Time the per-distance calls of a key-rate curve, in microseconds per point.

Each function runs over the 151 distances 0..150 km of the GYS channel
(Gobby-Yuan-Shields detection: eta_B = 0.045, 0.21 dB/km, Y0 = 1.7e-6,
e_det = 0.033) with the Table-2 passive scheme and decoy settings, and a
+-4 sqrt(m) window about the monitor's mean.  A measurement is the best of
``--repeat`` timings of a whole curve, so that a point's cost is its
arithmetic, not the machine's noise; the decoy brackets are cached by then,
as they are on every curve after its first point.

Usage: ``PYTHONPATH=src python tools/point_costs.py [--repeat N]``.  Point
``PYTHONPATH`` at another checkout's ``src`` to time that one on the same
machine.
"""

from __future__ import annotations

import argparse
import math
import timeit

from passiveqkd import (
    ChannelParams,
    DecoySettings,
    PassiveSchemeParams,
    ThresholdWindow,
    cli,
    decoy_rate_trusted,
    decoy_rate_untagged,
    pna_rate_bb84,
    tagged_rate,
)

GYS = ChannelParams(eta_B=0.045, alpha_prime=0.21, Y0=1.7e-6, e_det=0.033)
TABLE2 = PassiveSchemeParams(t_B=0.9, t_D=0.76, lam=3.42e-7, mu=1.462e7)
TABLE2_DECOY = DecoySettings(nu_s=0.5, nu_d=0.1, lambda_s=3.42e-7, lambda_d=6.84e-8, f_ec=1.22)


def curves():
    """(name, callable of one distance's channel and rate point) per timed call."""
    mean_m = TABLE2.mu * TABLE2.xi
    w = ThresholdWindow(round(mean_m - 4.0 * math.sqrt(mean_m)),
                        round(mean_m + 4.0 * math.sqrt(mean_m)))
    mu_p2 = TABLE2.mu * TABLE2.eta
    return [
        ("ChannelParams.at_distance", lambda ch, p: GYS.at_distance(ch.L)),
        ("tagged_rate", lambda ch, p: tagged_rate(mu_p2, 1e-9, ch, 1.22)),
        ("pna_rate_bb84", lambda ch, p: pna_rate_bb84(TABLE2, ch, w, 0.999, 1.22)),
        ("decoy_rate_untagged",
         lambda ch, p: decoy_rate_untagged(TABLE2, ch, TABLE2_DECOY, w, 0.999, 0.999)),
        ("decoy_rate_trusted", lambda ch, p: decoy_rate_trusted(ch, 0.5, 0.1, 1.22)),
        ("cli._format_row", lambda ch, p: cli._format_row(p.L, p.rate, p.Q, p.E, p.delta_bar, 0.999)),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=200, help="timings per function")
    args = parser.parse_args()
    channels = [GYS.at_distance(float(L)) for L in range(151)]
    points = [decoy_rate_trusted(ch, 0.5, 0.1, 1.22) for ch in channels]
    pairs = list(zip(channels, points))
    for name, call in curves():
        def curve(call=call):
            for ch, p in pairs:
                call(ch, p)

        curve()  # fill the caches
        best = min(timeit.repeat(curve, number=1, repeat=args.repeat))
        print(f"{best / len(pairs) * 1e6:8.2f}  {name}")


if __name__ == "__main__":
    main()

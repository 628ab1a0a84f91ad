#!/usr/bin/env python3
"""Reservoir memory demo: load four signals into one network and replay them.

Prints the free-memory quota after each load and the replay NRMSE of every
stored pattern, then shows how little memory a near-duplicate consumes.
"""

import argparse

import numpy as np

from uavcache import cesn
from uavcache.config import EsnConfig, RandomSource

SIGNALS = {
    "sine (period 8)": lambda t: np.sin(2 * np.pi * t / 8.0),
    "sine (period 13)": lambda t: np.sin(2 * np.pi * t / 13.0),
    "constant": lambda t: np.full_like(t, 0.6),
    "shuttle": lambda t: 2 * np.abs(2 * ((t % 10.0) / 10.0) - 1) - 1,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--reservoir", type=int, default=200)
    parser.add_argument("--aperture", type=float, default=60.0)
    args = parser.parse_args()

    n_train, window = 400, 60
    cfg = EsnConfig(reservoir_size=args.reservoir, spectral_radius=0.9, density=0.1,
                    input_scale=1.0, aperture=args.aperture, ridge=0.01, washout=50,
                    training_length=n_train)
    model = cesn.EsnModel(cfg, 1, 1, RandomSource(args.seed).derive("demo"))

    t_train = np.arange(n_train, dtype=float)
    t_eval = np.arange(n_train, n_train + window, dtype=float)
    # the signals are driven together, then stored one after another
    signals = [make(t_train)[:, None] for make in SIGNALS.values()]
    reports = model.load_patterns([(s, s) for s in signals], names=list(SIGNALS))
    for name, report in zip(SIGNALS, reports):
        print(f"loaded {name:<18} free memory {report['quota_after']:.4f} "
              f"(used {report['quota_used']:.4f})")
    model.train_readout()

    print()
    # every stored pattern replays in one pass
    replays = model.recall(range(len(SIGNALS)), window)[:, :, 0]
    for (name, make), replay in zip(SIGNALS.items(), replays):
        err = cesn.nrmse(replay, make(t_eval))
        print(f"replay {name:<18} NRMSE {err:.4f}")

    dup = np.sin(2 * np.pi * (t_train + 0.2) / 8.0)[:, None]
    report, = model.load_patterns([(dup, dup)], names=["near-duplicate"])
    print(f"\nnear-duplicate of the first sine used {report['quota_used']:.4f} "
          f"of the reservoir (a dissimilar pattern costs several times more)")


if __name__ == "__main__":
    main()

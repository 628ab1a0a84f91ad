#!/usr/bin/env python3
"""Emit the three standard sweep CSVs (user count, UAV count, cache size).

Each CSV holds one row per swept value and baseline at a fixed seed, values
outer, ready for plotting: the proposed pipeline (baseline ``none``) against
every ablation baseline.
"""

import argparse
from pathlib import Path

from uavcache import sim
from uavcache.config import DESK_PRESET, load_config_dict, merge_documents

SCENARIO = {
    "num_users": 70,
    "num_uavs": 5,
    "cache_size": 5,
    "generators": {"request_concentration": 2.0},
}

SWEEPS = {
    "users": [50, 70, 90, 110],
    "uavs": [3, 4, 5, 6, 7],
    "cache": [1, 3, 5, 10, 15],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sweep-data")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    cfg = load_config_dict(merge_documents(DESK_PRESET, {**SCENARIO, "seed": args.seed}))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for param, values in SWEEPS.items():
        rows = sim.sweep(cfg, param, values, tuple(sim.BASELINES))
        path = out / f"sweep_{param}.csv"
        path.write_text(sim.sweep_csv_text(rows))
        print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()

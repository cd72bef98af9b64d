#!/usr/bin/env python3
"""Full-scale grid experiment: 300 episodes of 50k steps on the 5x5 world.

Runs the instrumented learning loop through the CLI (so all files land in
the standard formats), then summarizes the per-episode error trends. Expect
a wall time of a minute or two. Pass --two-class for the variant whose
state space is split into a closed and a non-closed communicating class.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from mfg_sandbox import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def windowed(values):
    third = len(values) // 3
    return float(np.mean(values[:third])), float(np.mean(values[-third:]))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--two-class", action="store_true", help="run the two-class variant")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args()

    name = "two_class_5x5" if args.two_class else "full_grid_5x5"
    out = args.output_dir or f"runs/{name}_seed{args.seed}"
    code = cli.main(
        ["--config", str(CONFIGS / f"{name}.json"), "--seed", str(args.seed), "--output-dir", out]
    )
    if code != 0:
        return code

    episodes = cli.read_episode_csv(Path(out) / f"episodes_seed{args.seed}.csv")
    for label, series in (
        ("e_mu", [d.e_mu for d in episodes]),
        ("e_pi", [d.e_pi for d in episodes]),
        ("eps_P", [d.eps_P for d in episodes]),
        ("eps_Q", [d.eps_Q for d in episodes]),
    ):
        first, last = windowed(series)
        trend = "improving" if last < first else "NOT improving"
        print(f"{label}: first third {first:.4f} -> last third {last:.4f} ({trend})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

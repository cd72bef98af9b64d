#!/usr/bin/env python3
"""Desk-scale sanity run: five seeds on the 3x3 world against the solved
equilibrium, about half a minute of wall time. Prints the per-seed and median
distances from the aggregate report."""

import argparse
import sys
from pathlib import Path

from mfg_sandbox import cli, snapshots

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="runs/desk_3x3_compare")
    args = parser.parse_args()

    code = cli.main(["--config", str(CONFIGS / "desk_3x3_compare.json"), "--output-dir", args.output_dir])
    if code != 0:
        return code
    aggregate = snapshots.read_json(Path(args.output_dir) / "aggregate.json")
    for row in aggregate["per_seed"]:
        print(f"seed {row['seed']}: L1(mean-field) {row['l1_mean_field']:.4f}  TV(policy) {row['tv_policy']:.4f}")
    print(
        f"medians: L1(mean-field) {aggregate['median_l1_mean_field']:.4f}  "
        f"TV(policy) {aggregate['median_tv_policy']:.4f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

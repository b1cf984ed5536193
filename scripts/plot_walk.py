#!/usr/bin/env python3
"""Plot a closed-loop CSV log: CoM tracking, footsteps and contact forces.

Companion to `payload-mpc simulate`, which writes the log as `sim_log.csv`;
matplotlib is only needed here, not by the library.

Usage: python scripts/plot_walk.py out/walk/sim_log.csv
"""

import argparse
import csv
import sys

import numpy as np


def load(path):
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        raise SystemExit(f"{path} is empty")
    def col(name):
        return np.array([float(r[name]) for r in rows])
    return rows, col


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("log", help="CSV written by the simulator")
    parser.add_argument("--save", help="write the figure here instead of showing it")
    args = parser.parse_args()
    try:
        import matplotlib
        if args.save:
            matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is not installed; `pip install matplotlib` to plot", file=sys.stderr)
        return 1

    rows, col = load(args.log)
    t = col("t")
    contacts = sum(1 for k in rows[0] if k.endswith("_active"))

    fig, axes = plt.subplots(3, 1, figsize=(9, 10), sharex=True)
    for axis, name in zip("xyz", range(3)):
        axes[0].plot(t, col(f"com_{axis}"), label=f"com {axis}")
        axes[0].plot(t, col(f"ref_com_{axis}"), "--", label=f"ref {axis}")
    axes[0].set_ylabel("CoM [m]")
    axes[0].legend(ncol=3, fontsize=8)

    for i in range(1, contacts + 1):
        axes[1].plot(t, col(f"c{i}_x"), label=f"foot {i} x")
        axes[1].plot(t, col(f"c{i}_ref_x"), "--", label=f"foot {i} ref x")
        axes[1].plot(t, col(f"c{i}_active") * 0.05, ":", label=f"foot {i} active")
    axes[1].set_ylabel("footsteps [m]")
    axes[1].legend(ncol=3, fontsize=8)

    for i in range(1, contacts + 1):
        axes[2].plot(t, col(f"f{i}_z"), label=f"foot {i} Fz")
    axes[2].plot(t, -col("d_fz_total"), "k--", label="payload weight")
    axes[2].set_ylabel("vertical force [N]")
    axes[2].set_xlabel("time [s]")
    axes[2].legend(fontsize=8)

    fig.tight_layout()
    if args.save:
        fig.savefig(args.save, dpi=150)
        print(f"wrote {args.save}")
    else:
        plt.show()
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Histogram data for the demo correlation distributions.

Samples the two-qubit product state, a Bell state, a Werner state at
p = 1/sqrt(3), and the two-qubit marginal of a three-qubit W state, and
writes per-state histogram tables ready for plotting, with the mean of
the closed-form density over each bin where one exists.
"""

import argparse
from pathlib import Path

import numpy as np

from randmeas import (
    RngStream,
    analytic_pdf,
    bell_psi_minus,
    product_zero,
    sample_distribution,
    w_state,
    werner,
)
from randmeas.correlations import histogram_table


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="histograms")
    args = parser.parse_args()

    p = 1.0 / np.sqrt(3.0)
    cases = {
        "product2": (product_zero(2), (1, 2), analytic_pdf("product2")),
        "bell": (bell_psi_minus(), (1, 2), analytic_pdf("bell")),
        "werner": (werner(p), (1, 2), analytic_pdf("werner", p=p)),
        "w3_pair_marginal": (w_state(3), (1, 2), None),
    }

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for stream_id, (name, (rho, subset, density)) in enumerate(cases.items()):
        samples = sample_distribution(
            rho, subset, args.samples, RngStream(args.seed, stream_id)
        )
        table = histogram_table(samples.values)
        rows = np.asarray(table)
        if density is not None:
            # the bin mean, as in `randmeas sample`'s density.csv: the pdf at a
            # bin centre is inf for product2's centre bin and misses Werner's edge
            overlay = density.bin_means(np.append(rows[:, 0], rows[-1, 1]))
            rows = np.column_stack([rows, overlay])
            header = "bin_left,bin_right,count,density,reference_density"
        else:
            header = "bin_left,bin_right,count,density"
        path = out / f"{name}.csv"
        np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt="%.17g")
        print(f"{name}: {args.samples} samples -> {path}")


if __name__ == "__main__":
    main()

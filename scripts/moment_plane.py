#!/usr/bin/env python3
"""Scatter data in the (r2, r4) moment plane for three-qubit ensembles.

Samples biseparable states, mixed-W-class states, and Haar-random pure
states, computes their exact second and fourth moments, and writes one
CSV row per state together with the biseparability-line value at its r2.
Useful for eyeballing where the ensembles sit relative to the line.
"""

import argparse
from pathlib import Path

from randmeas import (
    DensityMatrix,
    RngStream,
    bisep_line_3_r4,
    design_points,
    exact_moment_map,
    moments_design,
)
from randmeas.ensembles import (
    random_biseparable_state,
    random_pure_vector,
    random_w_class_mixture,
)

FULL = (1, 2, 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-ensemble", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="moment_plane.csv")
    args = parser.parse_args()

    design = design_points(5)
    gen = RngStream(args.seed).generator()
    ensembles = {
        "biseparable": lambda: random_biseparable_state(3, gen),
        "w_mixture": lambda: random_w_class_mixture(3, gen),
        "haar_pure": lambda: DensityMatrix.from_vector(random_pure_vector(8, gen)),
    }

    path = Path(args.output)
    with open(path, "w") as fh:
        fh.write("ensemble,r2,r4,bisep_line_at_r2\n")
        for label, draw in ensembles.items():
            for _ in range(args.per_ensemble):
                rho = draw()
                r2 = exact_moment_map(rho, [FULL])[FULL].value
                (r4,) = moments_design(rho, [FULL], [4], design)
                fh.write(f"{label},{r2:.17g},{r4.value:.17g},{bisep_line_3_r4(r2):.17g}\n")
    print(f"wrote {3 * args.per_ensemble} states -> {path}")


if __name__ == "__main__":
    main()

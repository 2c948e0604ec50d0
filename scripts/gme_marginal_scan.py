#!/usr/bin/env python3
"""Four-qubit GME scan: full-set quantifier and marginal structure.

For the GHZ, linear cluster, triseparable, and biseparable demo states,
prints the full-set quantifier against its purity-dependent bound and
which marginals carry entanglement, and optionally dumps the verdicts
as JSON.
"""

import argparse
import json

from randmeas import (
    bisep4,
    cluster_linear,
    ghz,
    marginal_purity,
    structure_report_from_state,
    trisep4,
)

STATES = {
    "ghz4": ghz(4),
    "cluster4": cluster_linear(),
    "trisep4": trisep4(),
    "bisep4(0.2)": bisep4(0.2),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", dest="json_path", default=None, help="also dump JSON")
    args = parser.parse_args()

    reports = {}
    print(f"{'state':<12} {'M4':>10} {'bound':>10} {'GME?':>5}  entangled marginals")
    for name, rho in STATES.items():
        report = structure_report_from_state(rho)
        reports[name] = report
        flagged = ", ".join("{" + ",".join(map(str, s)) + "}" for s in report.flagged())
        print(
            f"{name:<12} {report.full.statistic:>10.6f} {report.full.threshold:>10.6f} "
            f"{'yes' if report.full.detected else 'no':>5}  {flagged or '-'}"
        )
        assert abs(marginal_purity(rho, range(1, 5)) - 1.0) < 1e-9  # demo states are pure

    if args.json_path:
        payload = {name: report.to_dict() for name, report in reports.items()}
        with open(args.json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")


if __name__ == "__main__":
    main()

"""Closed-form moments of named states, as anchors for the exact routes.

The oracle triangle checks the routes against one another, but the exact
and design routes both read ``rho.pauli``, so an error shared through it
would show in neither.  These values come from the states' definitions
alone: E = prod z_j for product_zero, the flat law on [-p, p] for werner
(R^(t) = p^t / (t + 1)), and the Pauli expansions of ghz and w.
"""

import pytest

from randmeas.cli import _cross_check, parse_state
from randmeas.moments import exact_moment_map, moments_design, moments_from_shots, moments_mc, simulate_shots
from randmeas.sampling import RngStream, design_points, random_settings
from randmeas.states import make_state

NS = range(2, 9)

#: (state, t) -> the order-t moment of the state's full party set.
CLOSED_FORMS = {
    **{(f"product_zero:{n}", t): (t + 1.0) ** -n for n in NS for t in (2, 4)},
    **{(f"ghz:{n}", 2): (2 ** (n - 1) + (n % 2 == 0)) / 3.0**n for n in NS},
    **{(f"w:{n}", 2): (5 - 4 / n) / 3.0**n for n in NS},
    **{(f"werner:{p}", t): p**t / (t + 1) for p in (0.0, 0.3, 0.6, 1.0) for t in (2, 4)},
}


@pytest.mark.parametrize("state, t", sorted(CLOSED_FORMS))
def test_exact_routes_match_the_closed_forms(state, t):
    rho = make_state(parse_state(state))
    full = tuple(range(1, rho.n_qubits + 1))
    values = [e.value for degree in (3, 5) if degree >= t for e in moments_design(rho, [full], [t], design_points(degree))]
    if t == 2:
        values.append(exact_moment_map(rho, [full])[full].value)
    assert len(values) == (3 if t == 2 else 1)
    assert max(abs(value - CLOSED_FORMS[state, t]) for value in values) <= 1e-12, values


@pytest.mark.parametrize("state, orders", [("ghz:8", [2]), ("w:8", [2]), ("product_zero:8", [2, 4])])
def test_sampled_routes_match_the_closed_forms_at_eight_qubits(state, orders):
    """Monte Carlo and ``--shots`` estimates at n = 8, where the CLI runs no
    cross-check, against the closed forms within the CLI's empirical
    Bernstein bound at 1e-6 (``_cross_check``).  Per-setting shot values
    span 1 + 1/(K - 1) at t = 2, a little more than the range 1 that bound
    assumes, so their check is if anything tighter than Bernstein's."""
    rho = make_state(parse_state(state))
    full = tuple(range(1, 9))
    shots = simulate_shots(rho, random_settings(8, 4000, RngStream(8, 1)), 20, RngStream(8, 2))
    estimates = moments_mc(rho, [full], orders, 20_000, RngStream(8)) + moments_from_shots(shots, [full], orders)
    assert [e.method for e in estimates] == ["monte_carlo"] * len(orders) + ["finite_shot"] * len(orders)
    for estimate in estimates:
        _cross_check(estimate, CLOSED_FORMS[state, estimate.order])

"""Closed-form moments of named states, as anchors for the exact routes.

The oracle triangle checks the routes against one another, but the exact
and design routes both read ``rho.pauli``, so an error shared through it
would show in neither.  These values come from the states' definitions
alone: E = prod z_j for product_zero, the flat law on [-p, p] for werner
(R^(t) = p^t / (t + 1)), and the Pauli expansions of ghz and w.
"""

import pytest

from randmeas.cli import parse_state
from randmeas.moments import exact_moment_map, moments_design
from randmeas.sampling import design_points
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

"""Output checks of the benchmark, run outside the timed region.

Every request's files are checked against exact values: closed-form
second moments from the correlation tensor, design sums over the
antipodal half of the icosahedron computed here, closed-form sphere
integrals, and the known verdicts the request carries.  A failed check
raises :class:`CheckFailed` with a one-line message.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import log, prod, sqrt

import numpy as np

from randmeas.cli import parse_state, parse_subset
from randmeas.correlations import correlation_tensor, pauli_coefficients
from randmeas.moments import moment_exact_t2
from randmeas.sampling import design_points
from randmeas.states import make_state

#: A statistical estimate fails its check with at most this probability
#: when the program is right.
FALSE_ALARM = 1e-6
DESIGN_ATOL = 1e-12


class CheckFailed(Exception):
    """A request's output disagrees with its oracle."""


class Oracles:
    """Exact reference values, cached per state across the requests of a run."""

    def __init__(self):
        self._states = {}
        self._moments = {}
        # One point per antipodal pair of the icosahedron: an exact
        # 5-design for even polynomials, summed over 6^k instead of 12^k tuples.
        points = design_points(5).as_array()
        first = points[np.arange(len(points)), np.argmax(points != 0.0, axis=1)]
        self._half_icosahedron = points[first > 0.0]

    def _state(self, text):
        if text not in self._states:
            rho = make_state(parse_state(text))
            self._states[text] = (rho, pauli_coefficients(rho))
        return self._states[text]

    def moment(self, state: str, subset: tuple, t: int) -> float:
        """Exact order-t moment (t = 2 or 4) of ``state`` on ``subset``."""
        key = (state, subset, t)
        if key not in self._moments:
            rho, coefficients = self._state(state)
            tensor = correlation_tensor(rho, subset, coefficients)
            if t == 2:
                value = moment_exact_t2(tensor).value
            elif t == 4:
                grid = tensor.components
                for _ in range(len(subset)):
                    grid = np.tensordot(grid, self._half_icosahedron, axes=(0, 1))
                value = float(np.mean(grid**4))
            else:
                raise ValueError(f"no oracle for t={t}")
            self._moments[key] = value
        return self._moments[key]

    def n_qubits(self, state: str) -> int:
        return self._state(state)[0].n_qubits

    def check(self, request, out) -> None:
        """Check the files ``request`` wrote into directory ``out``."""
        {
            "sample": self._check_sample,
            "moments": self._check_moments,
            "criteria": _check_criteria,
            "design": _check_design,
        }[request.command](request, out)

    def _check_sample(self, request, out) -> None:
        m = request.samples
        table = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
        _require(table.shape == (m, 2), f"samples.csv has shape {table.shape}, expected ({m}, 2)")
        _require(np.array_equal(table[:, 0], np.arange(m)), "samples.csv index column is not 0..M-1")
        values = table[:, 1]
        _require(np.all(np.abs(values) <= 1.0), "sample value outside [-1, 1]")
        hist = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1, ndmin=2)
        _require(int(hist[:, 2].sum()) == m, f"histogram counts sum to {hist[:, 2].sum()}, not M={m}")
        subset = parse_subset(request.subset, self.n_qubits(request.state))[0]
        exact = self.moment(request.state, subset, 2)
        squares = values**2
        std_error = float(squares.std(ddof=1) / np.sqrt(m))
        _within(float(squares.mean()), exact, _tolerance(std_error, m, 1.0), f"mean E^2 on {subset}")

    def _check_moments(self, request, out) -> None:
        payload = json.loads((out / "moments.json").read_text())
        orders = [int(t) for t in request.orders.split(",")]
        subsets = parse_subset(request.subset, self.n_qubits(request.state))
        got = {(tuple(e["subset"]), e["t"]): e for e in payload["moments"]}
        want = {(s, t) for s in subsets for t in orders}
        _require(set(got) == want, f"estimates for {sorted(got)} instead of {sorted(want)}")
        method = "design" if request.design else "finite_shot" if request.shots else "monte_carlo"
        for (subset, t), entry in got.items():
            _require(entry["method"] == method, f"method {entry['method']!r}, expected {method!r}")
            exact = self.moment(request.state, subset, t)
            label = f"t={t} on {subset}"
            if method == "design":
                _within(entry["value"], exact, DESIGN_ATOL, label)
                continue
            _require(entry["M"] == request.samples, f"M={entry['M']} for {label}")
            if method == "finite_shot":
                _require(entry["K"] == request.shots, f"K={entry['K']} for {label}")
            _within(entry["value"], exact, _tolerance(entry["std_error"], entry["M"]), label)


def _check_criteria(request, out) -> None:
    payload = json.loads((out / "criteria.json").read_text())
    if request.structure:
        structure = payload["structure"]
        got = (structure["full"]["detected"], structure["flagged"])
        want = (request.expect["detected"], request.expect["flagged"])
        _require(got == want, f"structure (detected, flagged) {got} != known {want}")
    else:
        detected = payload["verdicts"][0]["detected"]
        want = request.expect["detected"]
        _require(detected == want, f"{request.test} detected={detected} != known {want}")


def _check_design(request, out) -> None:
    rows = np.loadtxt(out / "design.csv", delimiter=",", skiprows=1, ndmin=2)
    count = {3: 6, 5: 12}[request.order]
    _require(rows.shape == (count, 3), f"design.csv has shape {rows.shape}, expected ({count}, 3)")
    _require(np.allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0.0, atol=DESIGN_ATOL), "point off the unit sphere")
    for degree in range(1, request.order + 1):
        for axes in combinations(range(degree + 2), 2):
            # stars and bars: exponents (a, b, c) with a + b + c = degree
            a, b = axes[0], axes[1] - axes[0] - 1
            c = degree - a - b
            average = float(np.mean(rows[:, 0] ** a * rows[:, 1] ** b * rows[:, 2] ** c))
            _within(average, _sphere_average(a, b, c), DESIGN_ATOL, f"x^{a} y^{b} z^{c} average")
    report = json.loads((out / "design_validation.json").read_text())["validation"]
    _require(report["passed"] is True, "design_validation.json does not report a pass")


def _tolerance(std_error: float, settings: int, value_range: float = 2.0) -> float:
    """Two-sided empirical Bernstein bound (Maurer and Pontil 2009, Thm. 4)
    on the deviation of a mean of ``settings`` values spanning at most
    ``value_range``, given the plug-in standard error of that mean.

    It is about 5.5 standard errors plus a range term, and unlike a normal
    tail it holds for the skewed fourth-moment estimates of a few settings.
    """
    log_term = log(4.0 / FALSE_ALARM)
    return std_error * sqrt(2.0 * log_term) + 7.0 * value_range * log_term / (3.0 * (settings - 1))


def _sphere_average(a: int, b: int, c: int) -> float:
    """Uniform sphere average of x^a y^b z^c, computed here rather than
    taken from the package under test."""
    if a % 2 or b % 2 or c % 2:
        return 0.0

    def double_factorial(k):
        return prod(range(k, 0, -2))

    numerator = double_factorial(a - 1) * double_factorial(b - 1) * double_factorial(c - 1)
    return numerator / double_factorial(a + b + c + 1)


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _within(value: float, exact: float, tolerance: float, label: str) -> None:
    deviation = abs(value - exact)
    _require(
        deviation <= tolerance,
        f"{label}: {value!r} vs exact {exact!r} (deviation {deviation:.3e} > {tolerance:.3e})",
    )

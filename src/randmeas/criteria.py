"""Entanglement verdicts computed from correlation moments.

Each criterion returns a Verdict, which decides itself: its margin,
statistic minus threshold, is oriented so that a positive value always
means "property detected / class excluded".  Exact inputs are decided
against a small numerical floor; statistical inputs must have the margin
clear z = 3 propagated standard errors.  Both constants are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import sqrt

from .correlations import marginal_purity
from .moments import MomentEstimate, _entry_stats, _normalize_moments, all_subsets, exact_moment_map
from .states import DensityMatrix, _check_int

#: Coefficients c_k of the biseparable bound M_k <= c_k (1 - tr rho^2).
#: The four-qubit constant 8/81 is the proven one; the two- and
#: three-qubit entries follow the same 8/3^k pattern and are configurable.
#: At purity 1 every entry degenerates to the always-valid pure-state
#: factorization test (threshold 0).
M_BOUND_COEFF = {2: 8.0 / 9.0, 3: 8.0 / 27.0, 4: 8.0 / 81.0}

DEFAULT_Z = 3.0
#: Exact-input detections must clear this floor, which absorbs float
#: noise in quantities that are analytically zero on boundary states.
DETECTION_ATOL = 1e-10


@dataclass(frozen=True)
class Verdict:
    """Outcome of one criterion: statistic vs threshold, margin oriented
    positive-means-detected.  The one decision rule: the margin must clear
    DEFAULT_Z standard errors, or DETECTION_ATOL without a positive error."""

    criterion: str
    statistic: float
    threshold: float
    std_error: float | None = None
    inputs_provenance: tuple = ()
    note: str = ""
    margin: float = field(init=False)
    detected: bool = field(init=False)

    def __post_init__(self):
        margin = self.statistic - self.threshold
        if self.std_error is not None and self.std_error > 0.0:
            detected = margin > DEFAULT_Z * self.std_error
        else:
            detected = margin > DETECTION_ATOL
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "detected", detected)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "margin": float(self.margin),
            "detected": self.detected,
            "std_error": None if self.std_error is None else float(self.std_error),
            "inputs_provenance": list(self.inputs_provenance),
            "note": self.note,
        }


def _m_quantifier_stats(normalized, full):
    """Value, variance and provenance of the m quantifier m_S - (1/2) sum of
    m_A m_{S\\A} over proper non-empty A, S the sorted tuple ``full``; a pure
    product across some bipartition cancels m_S with that pair's terms.
    It reads only the subsets of S.  The variance treats subset estimates as
    independent; moments read off one settings or shot table, as every
    Monte Carlo and ``--shots`` request reads them, are correlated."""
    proper = [sub for size in range(1, len(full)) for sub in combinations(full, size)]
    for sub in (full, *proper):
        if sub not in normalized:
            raise ValueError(f"missing subset {sub} in moments map")
    value, err_full, method_full = _entry_stats(normalized[full])
    variance = 0.0 if err_full is None else err_full**2
    methods = {method_full}
    for sub in proper:
        m_a, err_a, method_a = _entry_stats(normalized[sub])
        m_b, _, _ = _entry_stats(normalized[tuple(p for p in full if p not in sub)])
        value -= 0.5 * m_a * m_b
        methods.add(method_a)
        if err_a is not None:
            # d/dm_A of the double-counted sum is -m_{S \ A}
            variance += (m_b * err_a) ** 2
    return value, variance, tuple(sorted(methods))


def gme_test_4(moments, purity: float) -> Verdict:
    """Genuine four-partite entanglement test: M_4 > (8/81)(1 - purity)."""
    normalized = _normalize_moments(moments)
    full = max(normalized, key=len)
    if len(full) != 4:
        raise ValueError(f"this bound applies to four qubits only, got {len(full)} parties")
    return _marginal_bound_verdict(normalized, full, purity, "gme_moments_n4")


def _marginal_bound_verdict(normalized, subset, purity, criterion):
    k = len(subset)
    if k not in M_BOUND_COEFF:
        raise ValueError(f"no bound coefficient configured for {k} parties")
    if not 0.0 < purity <= 1.0 + 1e-9:
        raise ValueError(f"purity must lie in (0, 1], got {purity!r}")
    value, variance, methods = _m_quantifier_stats(normalized, subset)
    threshold = M_BOUND_COEFF[k] * max(0.0, 1.0 - purity)
    std_error = sqrt(variance) if variance > 0.0 else None
    return Verdict(criterion, value, threshold, std_error, methods)


@dataclass(frozen=True)
class StructureReport:
    """Marginal bound tests over every subset of size >= 2 plus the full set."""

    full_subset: tuple
    full: Verdict
    marginals: dict = field(default_factory=dict)

    def flagged(self) -> list:
        """Proper subsets whose marginal shows entanglement."""
        return sorted(s for s, v in self.marginals.items() if v.detected)

    def to_dict(self) -> dict:
        return {
            "full_subset": list(self.full_subset),
            "full": self.full.to_dict(),
            "marginals": {
                ",".join(str(p) for p in s): v.to_dict()
                for s, v in sorted(self.marginals.items())
            },
            "flagged": [list(s) for s in self.flagged()],
        }


def structure_report_from_state(rho: DensityMatrix) -> StructureReport:
    """Apply the marginal bound to every subset of size >= 2 of ``rho``,
    from exact moments and marginal purities both read off ``rho.pauli``."""
    n = rho.n_qubits
    if n < 2:
        raise ValueError(f"a structure report needs at least 2 parties, got {n}")
    moments = exact_moment_map(rho, all_subsets(n))
    verdicts = {
        s: _marginal_bound_verdict(moments, s, marginal_purity(rho, s), f"marginal_bound_k{len(s)}")
        for s in all_subsets(n, min_size=2)
    }
    full = tuple(range(1, n + 1))
    return StructureReport(full, verdicts.pop(full), verdicts)


def _moment_stats(entry, name: str, t: int, n: int | None = None) -> tuple:
    """``_entry_stats`` of the order-t moment a criterion reads as ``name``:
    a plain number, or a ``MomentEstimate`` of order t and, given ``n``, of
    n parties.  Given ``n``, the value must lie in [0, 1]."""
    if isinstance(entry, MomentEstimate):
        if entry.order != t:
            raise ValueError(f"{name} needs a {'second' if t == 2 else 'fourth'} moment, got t={entry.order}")
        if n is not None and len(entry.subset) != n:
            raise ValueError(f"{name} needs the moment of {n} parties, got subset {entry.subset}")
    stats = _entry_stats(entry)
    if n is not None and not -1e-9 <= stats[0] <= 1.0 + 1e-9:
        raise ValueError(f"{name} must lie in [0, 1], got {stats[0]!r}")
    return stats


def bisep_line_3_r4(r2: float) -> float:
    """The three-qubit biseparability line r4 = (972 r2^2 + 90 r2 - 5)/425."""
    return (972.0 * r2**2 + 90.0 * r2 - 5.0) / 425.0


def bisep_line_3(r2, r4) -> Verdict:
    """Three-qubit biseparability line in the (r2, r4) plane.

    Biseparable states satisfy r4 >= bisep_line_3_r4(r2); a fourth moment
    below that line certifies genuine tripartite entanglement.
    """
    if isinstance(r2, MomentEstimate) and isinstance(r4, MomentEstimate) and r2.subset != r4.subset:
        raise ValueError(f"r2 and r4 must be moments of one subset, got {r2.subset} and {r4.subset}")
    r2_val, r2_err, r2_method = _moment_stats(r2, "r2", 2, 3)
    r4_val, r4_err, r4_method = _moment_stats(r4, "r4", 4, 3)
    rhs = bisep_line_3_r4(r2_val)
    statistic = rhs - r4_val
    variance = 0.0
    if r2_err is not None:
        variance += ((1944.0 * r2_val + 90.0) / 425.0 * r2_err) ** 2
    if r4_err is not None:
        variance += r4_err**2
    std_error = sqrt(variance) if variance > 0.0 else None
    note = f"line value at r2: {rhs!r}"
    if rhs >= 1.0:
        note += "; line above the attainable range r4 <= 1, criterion vacuous here"
    return Verdict(
        "three_qubit_biseparability_line", statistic, 0.0, std_error, (r2_method, r4_method), note
    )


def w_class_chi(n: int) -> float:
    """Upper bound (5 - 4/n)/3^n on the second moment over the mixed W class."""
    n = _check_int("W class qubit count n", n, 3)
    return (5.0 - 4.0 / n) / 3.0**n


def w_class_witness(r2, n: int) -> Verdict:
    """Exclusion from the mixed W class: r2 above chi(n) rules it out."""
    chi = w_class_chi(n)
    r2_val, r2_err, r2_method = _moment_stats(r2, "r2", 2, n)
    return Verdict(
        "w_class_exclusion", r2_val, chi, r2_err, (r2_method,),
        f"n={n}; excluded from the convex hull of the W class when detected",
    )


def entanglement_by_length(length, n: int | None = None) -> Verdict:
    """Correlation length above the product-state value 1 signals
    entanglement (not necessarily genuine multipartite).  A ``MomentEstimate``
    is read as its subset's R2, whose length is 3^|subset| R2."""
    value, err, method = _moment_stats(length, "a correlation length", 2)
    if isinstance(length, MomentEstimate):
        scale = 3.0 ** len(length.subset)
        value, err = scale * value, None if err is None else scale * err
    if value < 0.0:
        raise ValueError(f"correlation length must be non-negative, got {value!r}")
    note = "entanglement (not necessarily genuine multipartite)"
    if n is not None:
        note += f"; n={n}"
    return Verdict("correlation_length_threshold", value, 1.0, err, (method,), note)

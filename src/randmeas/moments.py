"""Moments of correlation distributions.

Four routes to the t-th moment of the distribution of E over random
directions: Monte Carlo over sampled correlations, exact contraction of
the correlation tensor (t = 2), exact summation over spherical-design
direction tuples, and unbiased estimation from finite measurement shots.
Second moments over all party subsets combine into the purity.

Every power E^t is the IEEE product chain ((E * E) * E) * ... of
``_power``, so for a given numpy and BLAS build the moments have the
same bits whatever CPU features numpy dispatches; numpy's ``**`` does
not promise that for t >= 3.  Bits across numpy or BLAS builds are not
promised.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .correlations import SampleSet, _slab, correlation_length, normalize_subset
from .sampling import (
    SphericalDesign,
    _block_rows,
    _check_unit_norm,
    _generator,
    uniform_directions,
)
from .states import DensityMatrix

METHODS = ("monte_carlo", "exact_tensor", "design", "finite_shot")
_EXACT_METHODS = ("exact_tensor", "design")

#: Largest number of design tuples a single exact sum may expand to.
MAX_DESIGN_TUPLES = 20_000_000

EVEN_MOMENT_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class MomentEstimate:
    """Value of the order-t moment for a party subset, with provenance.

    Exact methods carry ``std_error=None``.  ``samples`` is the number of
    direction settings M and ``shots`` the repetitions K where relevant.
    """

    subset: tuple
    order: int
    value: float
    std_error: float | None
    method: str
    samples: int | None = None
    shots: int | None = None
    seed: tuple | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.method in _EXACT_METHODS and self.std_error is not None:
            raise ValueError(f"{self.method} estimates must carry std_error=None")
        if not np.isfinite(self.value) or not np.isfinite(self.std_error or 0.0):
            raise ValueError(
                f"moment value {self.value!r} and std_error {self.std_error!r} must be finite"
            )
        if self.order % 2 == 0 and self.method != "finite_shot":
            # Even moments of a [-1, 1]-valued variable live in [0, 1].
            # Unbiased finite-shot estimates may leave that range.
            if not -EVEN_MOMENT_ATOL <= self.value <= 1.0 + EVEN_MOMENT_ATOL:
                raise ValueError(
                    f"even-order moment {self.value!r} outside [0, 1] tolerance"
                )
        object.__setattr__(self, "subset", tuple(int(p) for p in self.subset))

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "t": self.order,
            "value": float(self.value),
            "std_error": None if self.std_error is None else float(self.std_error),
            "method": self.method,
            "seed": None if self.seed is None else list(self.seed),
            "M": self.samples,
            "K": self.shots,
        }


def _entry_stats(entry):
    """(value, std_error, method) of a MomentEstimate or a plain finite number."""
    if isinstance(entry, MomentEstimate):
        return float(entry.value), entry.std_error, entry.method
    value = float(entry)
    if not np.isfinite(value):
        raise ValueError(f"moment {entry!r} is not finite")
    return value, None, "value"


def _normalize_moments(moments) -> dict:
    """A map keyed by party subsets (moments or purities), re-keyed by sorted
    party tuples.  Every key must be a non-empty set of parties >= 1."""
    normalized = {}
    for key, entry in moments.items():
        parties = tuple(sorted({int(p) for p in key}))
        if not parties or parties[0] < 1:
            raise ValueError(f"subset key {key!r} is not a non-empty set of parties >= 1")
        normalized[parties] = entry
    if not normalized:
        raise ValueError("party-subset map is empty")
    return normalized


def moments_mc(
    samples: SampleSet,
    orders,
    bootstrap: bool = False,
    bootstrap_resamples: int = 1000,
    rng=None,
) -> list:
    """Monte-Carlo moments, one per order in ``orders``: sample means of
    E^t with plug-in standard errors.

    With ``bootstrap=True`` each standard error is instead the spread of
    ``bootstrap_resamples`` resampled means (requires ``rng``).  Every
    order reads one draw of index rows, so each estimate equals that of
    its own single-order call with the same ``rng``.  Resamples are drawn
    in blocks of rows, each row holding its M indices and M resampled
    powers; consecutive draws from one generator equal those of a single
    (resamples, M) call.
    """
    orders = [_check_order(t) for t in orders]
    m = samples.settings_count
    _check_mc_samples(m)
    powers = [_power(samples.values, t) for t in orders]
    if bootstrap:
        if rng is None:
            raise ValueError("bootstrap standard errors require an rng")
        gen = _generator(rng)
        means = np.empty((len(orders), bootstrap_resamples))
        rows = _block_rows(16 * m)
        for start in range(0, bootstrap_resamples, rows):
            idx = gen.integers(0, m, size=(min(rows, bootstrap_resamples - start), m))
            for row, power in zip(means, powers):
                row[start : start + len(idx)] = power[idx].mean(axis=1)
        std_errors = [float(row.std(ddof=1)) for row in means]
    else:
        std_errors = [float(power.std(ddof=1) / np.sqrt(m)) for power in powers]
    seed = None
    if samples.seed is not None:
        seed = (samples.seed.seed, samples.seed.stream_id)
    return [
        MomentEstimate(samples.subset, t, float(power.mean()), std_error, "monte_carlo", m, None, seed)
        for t, power, std_error in zip(orders, powers, std_errors)
    ]


def moment_exact_t2(tensor) -> MomentEstimate:
    """Second moment from the correlation tensor: 3^(-k) * sum of squares."""
    k = len(tensor.subset)
    value = tensor.sum_squares() / 3.0**k
    return MomentEstimate(tensor.subset, 2, value, None, "exact_tensor")


def _check_mc_samples(m: int) -> None:
    if m < 2:
        raise ValueError(f"need M >= 2 samples for a standard error, got M={m}")


def _check_shots_cover_order(k: int, t: int) -> None:
    if k < t:
        raise ValueError(f"need at least t shots per setting for unbiased order-{t} estimation, got K={k}")


def _check_design_tuples(points: int, k: int) -> None:
    if points**k > MAX_DESIGN_TUPLES:
        raise ValueError(f"design sum over {points}^{k} tuples exceeds MAX_DESIGN_TUPLES")


def _power(values: np.ndarray, t: int) -> np.ndarray:
    """values^t as the product chain ((v * v) * v) * ... of t - 1 IEEE
    multiplications, each in place into one new array.  numpy's ``**``
    sends t >= 3 to a SIMD pow kernel that is far slower and whose last
    bits depend on the CPU features numpy dispatches; t = 2 equals
    ``values**2``, which numpy computes as v * v."""
    power = values.copy()
    for _ in range(t - 1):
        np.multiply(power, values, out=power)
    return power


def _design_moment(
    rho: DensityMatrix, subset, orders, degree: int, points: np.ndarray
) -> list:
    """Means of E^t over every direction tuple of ``points`` (an (N, 3)
    array exact for polynomials of degree <= ``degree``), one estimate
    per order in ``orders``, all read off one grid of E.  Tuples are
    summed in lexicographic order with pairwise summation for
    reproducibility.  ``half_design(design)`` as ``points`` sums one
    direction per antipodal pair, which is exact for even t only."""
    orders = [_check_order(t) for t in orders]
    if degree < max(orders):
        raise ValueError(
            f"design order insufficient for requested moment: degree {degree} < t={max(orders)}"
        )
    parties = normalize_subset(subset, rho.n_qubits)
    k = len(parties)
    _check_design_tuples(len(points), k)
    grid = _slab(rho.pauli, parties, slice(1, 4))
    for _ in range(k):
        # consume the leading site axis, appending its point axis at the end
        grid = np.tensordot(grid, points, axes=(0, 1))
    values = grid.ravel()
    return [
        MomentEstimate(parties, t, float(np.sum(_power(values, t)) / values.size), None, "design")
        for t in orders
    ]


def moment_design(
    rho: DensityMatrix, subset, t: int, design: SphericalDesign
) -> MomentEstimate:
    """Exact order-t moment by summation over design direction tuples.

    E^t is a degree-t polynomial in each site's direction, so a design of
    degree >= t reproduces the sphere integral exactly.
    """
    (estimate,) = _design_moment(rho, subset, (t,), design.degree, design.points)
    return estimate


# ---------------------------------------------------------------------------
# Finite-shot simulation and unbiased estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShotTable:
    """Recorded +-1 outcomes for each of M direction settings.

    ``settings`` has shape (M, n, 3) and ``outcomes`` shape (M, K, n);
    every setting holds exactly K joint outcomes.
    """

    settings: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        # views, so that freezing them leaves the caller's arrays writable
        settings = np.asarray(self.settings, dtype=float).view()
        outcomes = np.asarray(self.outcomes, dtype=np.int8).view()
        if settings.ndim != 3 or settings.shape[2] != 3:
            raise ValueError(f"settings must have shape (M, n, 3), got {settings.shape}")
        if outcomes.ndim != 3 or outcomes.shape[0] != settings.shape[0] or outcomes.shape[2] != settings.shape[1]:
            raise ValueError(
                f"outcomes shape {outcomes.shape} inconsistent with settings {settings.shape}"
            )
        # reductions only: no temporaries the size of the table
        if outcomes.size and (
            outcomes.min() < -1
            or outcomes.max() > 1
            or np.count_nonzero(outcomes) < outcomes.size
        ):
            raise ValueError("outcomes must be +-1")
        if not np.all(np.isfinite(settings)):
            raise ValueError("settings have non-finite (NaN or inf) entries")
        settings.setflags(write=False)
        outcomes.setflags(write=False)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def n_settings(self) -> int:
        return self.settings.shape[0]

    @property
    def n_parties(self) -> int:
        return self.settings.shape[1]

    @property
    def shots_per_setting(self) -> int:
        return self.outcomes.shape[1]


def random_settings(n: int, m: int, rng) -> np.ndarray:
    """M uniformly random direction tuples for n parties, shape (M, n, 3)."""
    return uniform_directions(rng, m * n).reshape(m, n, 3)


def simulate_shots(rho: DensityMatrix, settings, k: int, rng) -> ShotTable:
    """Draw K joint projective outcomes per setting from the exact Born
    probabilities of all 2^n sign combinations.

    Sampling the joint distribution (rather than the product variable)
    keeps marginal-subset statistics extractable from the same table.
    All M*K uniforms are drawn first; settings are then processed in
    blocks of rows.  One setting holds at once the two widest Born
    intermediates (2 + 1 times 4^(n-1) floats), its probability and
    cumulative rows, and the search's index, probe and bit arrays over K
    draws.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"shots must be an integer K >= 1, got {k!r}")
    settings = np.asarray(settings, dtype=float)
    if settings.ndim == 2:
        settings = settings[None, :, :]
    n = rho.n_qubits
    if settings.ndim != 3 or settings.shape[1:] != (n, 3):
        raise ValueError(
            f"settings must have shape (M, {n}, 3) for this state, got {settings.shape}"
        )
    m = settings.shape[0]
    if m < 1:
        raise ValueError(f"settings must satisfy M >= 1, got M={m}")
    _check_unit_norm(settings)
    coeffs = rho.pauli.reshape(1, 1, 4, -1)

    gen = _generator(rng)
    draws = gen.random((m, k))
    outcomes = np.empty((m, k, n), dtype=np.int8)
    rows = _block_rows(8 * (3 * 4 ** (n - 1) + 3 * 2**n + 4 * k))
    for start in range(0, m, rows):
        block = slice(start, start + rows)
        cumulative = _born_cumulative(coeffs, settings[block])
        block_draws = draws[block]
        # The drawn sign tuple's index is the count of cumulative entries
        # <= draw; a binary search finds it one bit per step, and bit j is
        # party j's outcome.
        index = np.zeros(block_draws.shape, dtype=np.intp)
        for j in range(n):
            width = 1 << (n - 1 - j)
            bit = block_draws >= np.take_along_axis(cumulative, index + (width - 1), axis=1)
            index += bit * width
            outcomes[block, :, j] = 1 - 2 * bit
    return ShotTable(settings, outcomes)


def _born_cumulative(coeffs: np.ndarray, settings: np.ndarray) -> np.ndarray:
    """Cumulative Born distribution over the 2^n sign tuples of each
    (n, 3) setting, shape (b, 2^n), party 1 the most significant sign.

    ``coeffs`` are the Pauli coefficients shaped (1, 1, 4, 4^(n-1)).
    p(s) = 2^-n sum_a c_a prod_j v_j[a_j] with v_j = (1, s_j u_j) per
    party, contracted one site at a time.
    """
    b, n, _ = settings.shape
    paddings = np.empty((b, n, 2, 4))
    paddings[:, :, :, 0] = 1.0
    paddings[:, :, 0, 1:] = settings
    paddings[:, :, 1, 1:] = -settings
    probs = coeffs
    for j in range(n):
        # (b, 2^j, 4, 4^(n-1-j)) -> (b, 2^j, 2, 4^(n-1-j)), signs of 1..j+1 leading
        probs = paddings[:, None, j] @ probs
        if j < n - 1:
            probs = probs.reshape(b, 2 ** (j + 1), 4, -1)
    probs = probs.reshape(b, 2**n) / 2**n
    if float(probs.min()) < -1e-9:
        raise ValueError(f"negative Born probability {float(probs.min()):.3e}")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    cumulative = np.cumsum(probs, axis=1)
    cumulative[:, -1] = 1.0
    return cumulative


def estimate_moment_from_shots(shots: ShotTable, t: int, parties=None) -> MomentEstimate:
    """Unbiased order-t moment from a shot table.

    Per setting, E^t is estimated by the order-t U-statistic: the average
    over all selections of t distinct shots of the product of their +-1
    outcome products.  With x_i = +-1 this reduces to e_t(x) / C(K, t)
    with e_t the elementary symmetric polynomial, a function of the count
    of +1 products only.  For t = 2 it equals (K Ehat^2 - 1) / (K - 1).
    The returned value is the mean over settings.  Estimates for several
    subsets of one table share its settings and shots, so they are
    correlated: each ``std_error`` holds for its own estimate only.
    """
    t = _check_order(t)
    k_shots = shots.shots_per_setting
    _check_shots_cover_order(k_shots, t)
    n = shots.n_parties
    if parties is None:
        columns = list(range(n))
        subset = tuple(range(1, n + 1))
    else:
        subset = normalize_subset(parties, n)
        columns = [p - 1 for p in subset]
    products = shots.outcomes[:, :, columns].prod(axis=2)
    plus_counts = ((products + 1) // 2).sum(axis=1)

    # e_t(x) = sum_j C(K+, j) C(K-, t-j) (-1)^(t-j), tabulated over K+.
    table = np.zeros(k_shots + 1)
    for kp in range(k_shots + 1):
        km = k_shots - kp
        e_t = sum(
            comb(kp, j) * comb(km, t - j) * (-1) ** (t - j)
            for j in range(max(0, t - km), min(t, kp) + 1)
        )
        table[kp] = e_t / comb(k_shots, t)
    per_setting = table[plus_counts]
    value = float(per_setting.mean())
    m = shots.n_settings
    std_error = float(per_setting.std(ddof=1) / np.sqrt(m)) if m >= 2 else None
    return MomentEstimate(subset, t, value, std_error, "finite_shot", m, k_shots)


# ---------------------------------------------------------------------------
# Purity from second moments
# ---------------------------------------------------------------------------

def all_subsets(n: int, min_size: int = 1) -> list:
    """All party subsets of {1..n} with at least ``min_size`` elements."""
    parties = range(1, n + 1)
    return [
        subset
        for size in range(min_size, n + 1)
        for subset in combinations(parties, size)
    ]


def exact_moment_map(rho: DensityMatrix) -> dict:
    """Exact second moments 3^-k correlation_length for every non-empty party subset."""
    return {
        s: MomentEstimate(s, 2, correlation_length(rho, s) / 3.0 ** len(s), None, "exact_tensor")
        for s in all_subsets(rho.n_qubits)
    }


def purity_from_moments(moments, atol: float = 1e-6) -> float:
    """Purity as the 3^|A|-weighted sum of second moments over all subsets.

    ``moments`` must contain every non-empty subset of {1..n}; the empty
    set contributes 1 by normalization.  Values may be MomentEstimates or
    plain numbers and must be non-negative, except finite-shot estimates:
    being unbiased, those of subsets whose moment is near 0 fall below 0
    about half the time.
    """
    normalized = _normalize_moments(moments)
    n = max(key[-1] for key in normalized)
    exact_only = True
    total = 1.0
    for subset in all_subsets(n):
        if subset not in normalized:
            raise ValueError(f"missing subset {subset} in moments map")
        value, std_error, method = _entry_stats(normalized[subset])
        if value < 0.0 and method != "finite_shot":
            raise ValueError(f"moment for subset {subset} is negative ({value!r})")
        exact_only = exact_only and std_error is None
        total += 3.0 ** len(subset) * value
    purity = total / 2.0**n
    if purity <= 0.0:
        raise ValueError(f"purity {purity!r} is not positive")
    if exact_only and purity > 1.0 + atol:
        raise ValueError(f"purity {purity!r} exceeds 1 beyond tolerance")
    return purity


def _check_order(t) -> int:
    if not isinstance(t, (int, np.integer)) or t < 1:
        raise ValueError(f"moment order t must be a positive integer, got {t!r}")
    return int(t)

"""Moments of correlation distributions.

Four routes to the t-th moment of the distribution of E over random
directions: Monte Carlo over sampled correlations (``moments_mc``),
exact sums of squared correlation-tensor components (t = 2,
``exact_moment_map``), exact summation over spherical-design direction
tuples (``moments_design``), and unbiased estimation from finite
measurement shots (``moments_from_shots``).  The Monte Carlo, design and
shot calls each take their source, a list of party subsets and a list of
orders, and return one ``MomentEstimate`` per (subset, order),
subset-major.
Second moments over all party subsets combine into the purity.

Every power E^t is the IEEE product chain ((E * E) * E) * ... of
``_power``, so for a given numpy and BLAS build the moments have the
same bits whatever CPU features numpy dispatches; numpy's ``**`` does
not promise that for t >= 3.  Bits across numpy or BLAS builds are not
promised.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb, isfinite, sqrt

import numpy as np

from .correlations import _slab, _subset_values, correlation_length, normalize_subset
from .sampling import (
    _CONTRACTION_ROWS,
    RngStream,
    SphericalDesign,
    _block_rows,
    _check_settings,
    _check_unit_norm,
    _generator,
    half_design,
    random_settings,
)
from .states import MAX_QUBITS, DensityMatrix, _check_int

METHODS = ("monte_carlo", "exact_tensor", "design", "finite_shot")
_EXACT_METHODS = ("exact_tensor", "design")

#: Most design tuples one exact sum may expand to; ``design_points`` sums at most 6^8.
MAX_DESIGN_TUPLES = 20_000_000

EVEN_MOMENT_ATOL = 1e-9
PURITY_ATOL = 1e-6


@dataclass(frozen=True, eq=False)
class MomentEstimate:
    """Value of the order-t moment for a party subset, with provenance.

    Exact methods carry ``std_error=None``.  ``samples`` is the number of
    direction settings M and ``shots`` the repetitions K where relevant.
    The subset is stored as ``normalize_subset`` of it in 1..MAX_QUBITS and
    the order is checked by ``_check_order``, the one owner of each rule.
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
        object.__setattr__(self, "order", _check_order(self.order))
        if not isfinite(self.value) or not isfinite(self.std_error or 0.0):
            raise ValueError(
                f"moment value {self.value!r} and std_error {self.std_error!r} must be finite"
            )
        if (self.std_error or 0.0) < 0.0:
            raise ValueError(f"std_error {self.std_error!r} must not be negative")
        if self.order % 2 == 0 and self.method != "finite_shot":
            # Even moments of a [-1, 1]-valued variable live in [0, 1].
            # Unbiased finite-shot estimates may leave that range.
            if not -EVEN_MOMENT_ATOL <= self.value <= 1.0 + EVEN_MOMENT_ATOL:
                raise ValueError(
                    f"even-order moment {self.value!r} outside [0, 1] tolerance"
                )
        object.__setattr__(self, "subset", normalize_subset(self.subset, MAX_QUBITS))

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
    """A map keyed by party subsets (moments or purities), re-keyed by
    ``normalize_subset`` in 1..MAX_QUBITS."""
    normalized = {normalize_subset(key, MAX_QUBITS): entry for key, entry in moments.items()}
    if not normalized:
        raise ValueError("party-subset map is empty")
    return normalized


def moments_mc(rho: DensityMatrix, subsets, orders, m: int, rng: RngStream) -> list:
    """Monte-Carlo moments of each subset and order, subset-major: sample
    means of E^t with plug-in standard errors.

    One table of ``m`` random settings is drawn on ``rng`` for the sorted
    union of the subsets' parties, and each subset reads its own columns,
    as a randomized-measurement experiment reads every marginal off one
    data set.  A single subset's table is thus the draw of
    ``sample_distribution`` on the same stream.  Estimates of different
    subsets share settings, so they are correlated: each ``std_error``
    holds for its own estimate only.  ``bootstrap_error`` turns each
    plug-in error into the ideal bootstrap one.
    """
    orders = [_check_order(t) for t in orders]
    m = _check_mc_samples(m)
    subsets = [normalize_subset(s, rho.n_qubits) for s in subsets]
    union = sorted(set().union(*subsets))
    table = random_settings(len(union), m, rng)
    seed = (rng.seed, rng.stream_id)
    estimates = []
    for subset in subsets:
        columns = [union.index(p) for p in subset]
        blocks = (table[start : start + _CONTRACTION_ROWS].take(columns, axis=1) for start in range(0, m, _CONTRACTION_ROWS))
        values = _subset_values(rho, subset, blocks, m)
        estimates += [_setting_mean(_power(values, t), subset, t, "monte_carlo", seed=seed) for t in orders]
    return estimates


def _setting_mean(rows: np.ndarray, subset, t: int, method: str, k=None, seed=None) -> MomentEstimate:
    """The order-t estimate of ``subset`` from one value per setting: their
    mean, with the plug-in error std(ddof=1) / sqrt(M), or None at M = 1."""
    m = len(rows)
    std_error = float(rows.std(ddof=1) / np.sqrt(m)) if m >= 2 else None
    return MomentEstimate(subset, t, float(rows.mean()), std_error, method, m, k, seed)


def bootstrap_error(estimate: MomentEstimate) -> MomentEstimate:
    """``estimate`` with the ideal bootstrap error of its mean: over all M^M
    resamples the mean's variance is the 1/M sample variance over M
    (Efron and Tibshirani 1993, sections 5-6), sqrt((M - 1) / M) times the
    plug-in error, so a check bounded by the plug-in error can run first."""
    if estimate.method != "monte_carlo":
        raise ValueError(f"a bootstrap error applies to monte_carlo estimates, got {estimate.method}")
    m = estimate.samples
    return replace(estimate, std_error=estimate.std_error * sqrt((m - 1) / m))


# Kept only for the benchmark's oracles (perfbench/oracles.py); see exact_moment_map.
def moment_exact_t2(tensor) -> MomentEstimate:
    """Second moment from the correlation tensor: 3^(-k) * sum of squares."""
    k = len(tensor.subset)
    value = float(np.sum(tensor.components**2)) / 3.0**k
    return MomentEstimate(tensor.subset, 2, value, None, "exact_tensor")


def _check_mc_samples(m: int) -> int:
    """M as an int: a standard error needs M >= 2 settings."""
    return _check_int("samples M", m, 2)


def _check_shots_cover_order(k: int, t: int) -> None:
    if k < t:
        raise ValueError(f"need at least t shots per setting for unbiased order-{t} estimation, got K={k}")


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


def moments_design(rho: DensityMatrix, subsets, orders, design: SphericalDesign) -> list:
    """Exact moments of each subset and order, subset-major, by summation
    over the direction tuples of ``design``.

    E^t is a degree-t polynomial in each site's direction, so a design of
    degree >= t reproduces the sphere integral exactly.  The design must
    pass its ``validation`` at its declared degree and be antipodal, as
    every ``design_points`` design is, and is halved once per call.
    Flipping one site's direction flips the sign of E, so odd t are exactly
    0.0 and even t are means over the half design's tuples, read off one
    grid of E per subset summed in lexicographic order with pairwise
    summation.
    """
    orders = [_check_order(t) for t in orders]
    if design.degree < max(orders, default=0):
        raise ValueError(
            f"design order insufficient for requested moment: degree {design.degree} < t={max(orders)}"
        )
    subsets = [normalize_subset(s, rho.n_qubits) for s in subsets]
    points = half_design(design)
    k = max(map(len, subsets), default=0)
    if len(points) ** k > MAX_DESIGN_TUPLES:
        raise ValueError(f"design sum over {len(points)}^{k} tuples exceeds MAX_DESIGN_TUPLES")
    if not (report := design.validation)["passed"]:
        raise ValueError(f"design points fail their declared degree {design.degree} "
                         f"(max deviation {report['max_abs_deviation']:.3e})")
    even = [t for t in orders if t % 2 == 0]
    estimates = []
    for parties in subsets:
        means = {}
        if even:
            grid = _slab(rho.pauli, parties, slice(1, 4))
            for _ in parties:
                # consume the leading site axis, appending its point axis at the end
                grid = np.dot(grid.reshape(3, -1).T, points.T)
            values = grid.ravel()
            means = {t: float(np.add.reduce(_power(values, t)) / values.size) for t in even}
        estimates += [MomentEstimate(parties, t, means.get(t, 0.0), None, "design") for t in orders]
    return estimates


# ---------------------------------------------------------------------------
# Finite-shot simulation and unbiased estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShotTable:
    """Recorded +-1 outcomes, shape (M, K, n): K joint outcomes of the n
    parties for each of M settings.

    The table is frame-free: it records which shots share a setting, not
    the setting's directions.  The estimators need nothing more, so the
    moments need no shared reference frame.
    """

    outcomes: np.ndarray

    def __post_init__(self):
        outcomes = np.asarray(self.outcomes)
        if outcomes.ndim != 3 or not outcomes.size:
            raise ValueError(f"outcomes must have shape (M, K, n) with M, K, n >= 1, got {outcomes.shape}")
        # int8 tables by reductions only, with no temporaries the size of the
        # table; others before the cast, which would store 1.7 and 257 as 1
        if (
            (outcomes.min() < -1 or outcomes.max() > 1 or np.count_nonzero(outcomes) < outcomes.size)
            if outcomes.dtype == np.int8
            else not np.all((outcomes == 1) | (outcomes == -1))
        ):
            raise ValueError("outcomes must be +-1")
        # a view, so that freezing it leaves the caller's array writable
        outcomes = outcomes.astype(np.int8, copy=False).view()
        outcomes.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def shots_per_setting(self) -> int:
        return self.outcomes.shape[1]

    @property
    def n_parties(self) -> int:
        return self.outcomes.shape[2]


def simulate_shots(rho: DensityMatrix, settings, k: int, rng) -> ShotTable:
    """Draw K joint projective outcomes per setting from the exact Born
    probabilities of all 2^n sign combinations.

    Sampling the joint distribution (rather than the product variable)
    keeps marginal-subset statistics extractable from the same table.
    They come from the amplitudes of a state built by ``from_vector``, else
    from ``rho.pauli``.  Settings are processed in blocks of rows, each
    block checked by its Born route and drawing its own uniforms;
    consecutive draws equal one (M, K) draw.  One setting holds at once its
    widest Born intermediates (2 + 2 + 1 times 2^n floats from amplitudes,
    2 + 1 times 4^(n-1) from the Pauli coefficients), its probability and
    cumulative rows, and the search's draw, position, probe and bit arrays
    over K shots.  Only the M*K*n-byte outcome table grows with M.
    """
    k = _check_int("shots K", k, 1)
    settings = np.asarray(settings, dtype=float)
    n = rho.n_qubits
    if settings.ndim != 3 or settings.shape[1:] != (n, 3):
        raise ValueError(
            f"settings must have shape (M, {n}, 3) for this state, got {settings.shape}"
        )
    m = settings.shape[0]
    _check_settings(m, n * (24 + k))
    if rho._vector is None:
        source, born, width = rho.pauli.reshape(1, 1, 4, -1), _born_cumulative, 3 * 4 ** (n - 1)
    else:
        source, born, width = rho._vector, _amplitude_cumulative, 5 * 2**n

    gen = _generator(rng)
    # party-major, so that each party's (M, K) outcomes are contiguous
    outcomes = np.empty((n, m, k), dtype=np.int8)
    rows = _block_rows(8 * (width + 3 * 2**n + 5 * k))
    for start in range(0, m, rows):
        block = slice(start, start + rows)
        cumulative = born(source, settings[block])
        draws = gen.random((len(cumulative), k))
        # The drawn sign tuple's index is the count of cumulative entries <=
        # draw.  A binary search finds it one bit per step (bit j is party j's
        # outcome), ``position`` being the flat index just before the interval.
        position = np.repeat(np.arange(len(cumulative)) << n, k).reshape(draws.shape) - 1
        for j in range(n):
            step = 1 << (n - 1 - j)
            bit = draws >= cumulative.ravel().take(position + step)
            position += bit * step
            np.subtract(1, 2 * bit.view(np.int8), out=outcomes[j, block])
    return ShotTable(outcomes.transpose(1, 2, 0))


def _born_cumulative(coeffs: np.ndarray, settings: np.ndarray) -> np.ndarray:
    """Cumulative Born distribution over the 2^n sign tuples of each
    (n, 3) setting, shape (b, 2^n), party 1 the most significant sign.

    ``coeffs`` are the Pauli coefficients shaped (1, 1, 4, 4^(n-1)).
    p(s) = 2^-n sum_a c_a prod_j v_j[a_j] with v_j = (1, s_j u_j) per
    party, contracted one site at a time.  ``_check_unit_norm`` refuses
    the settings first.
    """
    _check_unit_norm(settings)
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
    return _cumulative(np.clip(probs, 0.0, None))


def _amplitude_cumulative(psi: np.ndarray, settings: np.ndarray) -> np.ndarray:
    """``_born_cumulative`` of the pure state with amplitudes ``psi``, read
    off the vector in O(n 2^n) a setting.

    Site j's amplitude axis meets the rows <u+| = (c, conj(e)) and
    <u-| = (-e, c) of its direction u, divided by its norm, with
    c = sqrt((1 + z)/2) and e = (x + iy)/(2c), or e = 1 where c = 0; then
    p(s) = |amplitude|^2.  The settings run along the last, contiguous axis
    of every elementwise update.
    """
    b, n, _ = settings.shape
    # the one norm pass both checks the settings and normalizes them
    x, y, z = np.ascontiguousarray((settings / _check_unit_norm(settings)[..., None]).transpose(2, 1, 0))
    c = np.sqrt((1.0 + z) / 2.0)
    e = np.divide(x + 1j * y, 2.0 * c, out=np.ones((n, b), complex), where=c > 0.0)
    amps = psi.reshape(-1, 1)
    for j in range(n):
        # (2^j, 2, 2^(n-1-j), b): the signs of parties 1..j, then party j+1's
        # basis axis, which becomes its sign axis
        pairs = amps.reshape(2**j, 2, 2 ** (n - 1 - j), -1)
        amps = np.empty((2**j, 2, 2 ** (n - 1 - j), b), complex)
        np.multiply(pairs[:, 0], c[j], out=amps[:, 0])
        amps[:, 0] += e[j].conj() * pairs[:, 1]
        np.multiply(pairs[:, 1], c[j], out=amps[:, 1])
        amps[:, 1] -= e[j] * pairs[:, 0]
    probs = amps.real**2 + amps.imag**2
    return _cumulative(probs.reshape(2**n, b).T.copy())


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """The (b, 2^n) Born ``probs``, normalized in place, as cumulative rows ending at 1."""
    probs /= probs.sum(axis=1, keepdims=True)
    cumulative = np.cumsum(probs, axis=1)
    cumulative[:, -1] = 1.0
    return cumulative


def _shot_weights(k: int, t: int) -> np.ndarray:
    """e_t(x) / C(K, t) for K +-1 shots x, indexed by their count K+ of +1:
    e_t(x) = sum_j C(K+, j) C(K-, t-j) (-1)^(t-j), summed in exact integers."""
    return np.array([
        sum(comb(kp, j) * comb(k - kp, t - j) * (-1) ** (t - j) for j in range(t + 1)) / comb(k, t)
        for kp in range(k + 1)
    ])


def moments_from_shots(shots: ShotTable, subsets, orders) -> list:
    """Unbiased moments of each subset and order, subset-major, from one
    shot table.

    Per setting, E^t is estimated by the order-t U-statistic: the average
    over all selections of t distinct shots of the product of their +-1
    outcome products.  With x_i = +-1 this reduces to e_t(x) / C(K, t)
    with e_t the elementary symmetric polynomial, a function of the count
    of +1 products only.  For t = 2 it equals (K Ehat^2 - 1) / (K - 1).
    The value is the mean over settings, in O(M K |A|) time for subset A;
    each subset's +1 products are counted once for every order.
    Estimates of different subsets share the table's settings and shots,
    so they are correlated: each ``std_error`` holds for its own estimate
    only.
    """
    orders = [_check_order(t) for t in orders]
    k = shots.shots_per_setting
    _check_shots_cover_order(k, max(orders, default=1))
    weights = [_shot_weights(k, t) for t in orders]
    estimates = []
    for parties in subsets:
        subset = normalize_subset(parties, shots.n_parties)
        products = shots.outcomes[:, :, subset[0] - 1].copy()
        for p in subset[1:]:
            products *= shots.outcomes[:, :, p - 1]
        plus_counts = np.count_nonzero(products > 0, axis=1)
        for t, table in zip(orders, weights):
            estimates.append(_setting_mean(table[plus_counts], subset, t, "finite_shot", k))
    return estimates


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


def exact_moment_map(rho: DensityMatrix, subsets) -> dict:
    """Exact second moments 3^-k correlation_length of each party subset,
    keyed by its sorted party tuple, in the order given."""
    subsets = [normalize_subset(s, rho.n_qubits) for s in subsets]
    return {s: MomentEstimate(s, 2, correlation_length(rho, s) / 3.0 ** len(s), None, "exact_tensor") for s in subsets}


def purity_from_moments(moments) -> float:
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
    if exact_only and purity > 1.0 + PURITY_ATOL:
        raise ValueError(f"purity {purity!r} exceeds 1 beyond tolerance")
    return purity


def _check_order(t) -> int:
    return _check_int("moment order t", t, 1)

"""Correlations of local spin measurements.

Single correlation values E = <sigma_u1 (x) ... (x) sigma_uk>, correlation
tensors over Pauli basis axes, the squared-sum correlation length and
marginal purities (all read off one slab of ``rho.pauli`` per subset), and
sampling of correlation distributions over random directions, together
with the closed-form two-qubit reference densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import _CONTRACTION_ROWS, RngStream, _block_rows, _check_settings, _settings_blocks, as_direction_array
from .states import MAX_QUBITS, DensityMatrix, IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, _check_int, _check_real

#: Pre-clamp tolerance; |E| beyond 1 by more than this is treated as a bug.
CORRELATION_EXCESS_ATOL = 1e-9
IMAG_RESIDUE_ATOL = 1e-10
HISTOGRAM_BINS = 81

_PAULI_STACK = np.stack([IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z])
# Site transfer matrix: S[a, 2 r + c] = P_a[c, r], so contracting every
# (row, col) index pair of rho with S yields tr(rho P_a1 (x) ... (x) P_an).
_SITE_TRANSFER = _PAULI_STACK.transpose(0, 2, 1).reshape(4, 4).copy()

def pauli_coefficients(rho: DensityMatrix) -> np.ndarray:
    """Expectation values tr(rho P) for every Pauli string P.

    Returns a real array of shape (4,) * n indexed by (I, x, y, z) per
    site; entry (0, ..., 0) is the trace, i.e. 1.
    """
    n = rho.n_qubits
    tens = rho.matrix.reshape((2,) * (2 * n))
    perm = [axis for j in range(n) for axis in (j, n + j)]
    tens = np.transpose(tens, perm).reshape((4,) * n)
    for _ in range(n):  # consume the leading site axis, append its Pauli axis
        tens = np.tensordot(tens, _SITE_TRANSFER, axes=(0, 1))
    residue = float(np.max(np.abs(tens.imag)))
    if residue > IMAG_RESIDUE_ATOL:
        raise ValueError(f"Pauli coefficients have imaginary residue {residue:.3e}")
    return np.ascontiguousarray(tens.real)


def normalize_subset(subset, n: int) -> tuple:
    """Canonicalize a party subset to a sorted tuple of ints, each party
    checked by ``_check_int`` to lie in 1..n."""
    parties = tuple(sorted({_check_int("party", p, 1, n) for p in subset}))
    if not parties:
        raise ValueError("party subset must not be empty")
    return parties


# CorrelationTensor and correlation_tensor stay only for the benchmark's
# oracles (perfbench/oracles.py); the package reads slabs in place.
@dataclass(frozen=True, eq=False)
class CorrelationTensor:
    """Correlation values along all Pauli axis combinations of a subset.

    ``components`` has shape (3,) * k with axes ordered by ascending party
    index and axis values (x, y, z).
    """

    subset: tuple
    components: np.ndarray

    def __post_init__(self):
        subset = normalize_subset(self.subset, MAX_QUBITS)
        # a view, so that freezing it leaves the caller's array writable
        comps = np.asarray(self.components, dtype=float).view()
        if comps.shape != (3,) * len(subset):
            raise ValueError(
                f"components shape {comps.shape} does not match subset {subset}"
            )
        excess = float(np.max(np.abs(comps))) - 1.0
        if excess > CORRELATION_EXCESS_ATOL:
            raise ValueError(f"tensor component exceeds 1 by {excess:.3e}")
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "subset", subset)


def correlation_tensor(rho: DensityMatrix, subset, coefficients=None) -> CorrelationTensor:
    """Correlation tensor of ``subset``: ``rho.pauli`` padded by identity on
    the unmeasured parties.  ``coefficients`` replaces ``rho.pauli`` only for
    callers holding their own tensor, such as the benchmark's oracles."""
    parties = normalize_subset(subset, rho.n_qubits)
    if coefficients is None:
        coefficients = rho.pauli
    return CorrelationTensor(parties, _slab(coefficients, parties, slice(1, 4)).copy())


def correlation(rho: DensityMatrix, dirs) -> float:
    """E = tr(rho O) with sigma_u on every party keyed in ``dirs`` and
    identity elsewhere.  ``dirs`` maps 1-based party index to a direction:
    one row of ``_subset_values``.
    """
    if not dirs:
        raise ValueError("dirs must specify at least one party")
    parties = normalize_subset(dirs, rho.n_qubits)
    row = np.stack([as_direction_array(dirs[p]) for p in parties])
    return float(_subset_values(rho, parties, [row[None]], 1)[0])


def _slab(coefficients: np.ndarray, parties: tuple, axes: slice) -> np.ndarray:
    """View of a Pauli tensor with ``axes`` on ``parties`` and the identity
    (axis 0) on every other party: ``slice(1, 4)`` gives the correlation
    tensor of ``parties``, ``slice(None)`` the Pauli tensor of their marginal."""
    return coefficients[
        tuple(axes if party in parties else 0 for party in range(1, coefficients.ndim + 1))
    ]


def correlation_length(rho: DensityMatrix, subset) -> float:
    """Sum of squared correlation-tensor components over ``subset``."""
    parties = normalize_subset(subset, rho.n_qubits)
    return float(np.sum(_slab(rho.pauli, parties, slice(1, 4)) ** 2))


def marginal_purity(rho: DensityMatrix, subset) -> float:
    """tr(rho_A^2) of the marginal on ``subset``: 2^-k times the sum of its
    squared Pauli coefficients, with no partial trace."""
    parties = normalize_subset(subset, rho.n_qubits)
    return float(np.sum(_slab(rho.pauli, parties, slice(None)) ** 2) / 2.0 ** len(parties))


def correlation_values(components: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Contract a (3,)*k tensor with per-sample directions (M, k, 3) -> (M,).

    The k sites split into the leading a = ceil(k/2) and the trailing
    b = k - a.  Per row block, one matrix product contracts the tensor,
    reshaped to 3^a x 3^b, with the per-row outer products of the leading
    directions (3^a entries a row); a row-wise dot with the per-row outer
    products of the trailing directions (3^b entries) finishes each value;
    at k = 1 the matrix product alone gives the values.  A lone site's
    product is a view of its direction rows, so at k <= 2 the calls see
    the operands of a site-by-site contraction and give its bits.
    """
    blocks = np.split(directions, range(_CONTRACTION_ROWS, len(directions), _CONTRACTION_ROWS))
    return _contract(components, blocks, len(directions))


def _contract(components: np.ndarray, blocks, count: int) -> np.ndarray:
    """The ``count`` values of ``correlation_values`` for the (rows, k, 3)
    ``blocks`` of its directions, ``_CONTRACTION_ROWS`` rows each but the
    last.  At k >= 3 a product's row count can move the last bit of its
    values, so a short block is padded with zero rows to the full count.  At
    k <= 2 a one-row block of a longer call gets one zero row: alone, its
    product would be a BLAS dot or matrix-vector product of other bits."""
    k = components.ndim
    a = (k + 1) // 2
    matrix = components.reshape(3**a, 3 ** (k - a))
    out = np.empty(count)
    start = 0
    for block in blocks:
        # The tensor multiplies from the left, so rows run along the
        # product's columns (along its rows, the BLAS kernel picked for the
        # block's row count can change a row's bits); the row-major copy
        # hands the dot the layout of a site-by-site contraction.
        rows = len(block)
        values = out[start : start + rows]
        start += rows
        pad = _CONTRACTION_ROWS - rows if k >= 3 else int(rows == 1 and count > 1)
        if pad > 0:
            block = np.concatenate([block, np.zeros((pad, k, 3))])
        if k == 1:
            values[:] = np.dot(matrix.T, _outer_product(block))[0, :rows]  # the product's one row
        else:
            vals = np.dot(matrix.T, _outer_product(block[:, :a]))
            np.einsum("mi,mi->m", vals.T[:rows].copy(), _outer_product(block[:rows, a:]).T, out=values)
        block = vals = None  # freed before a streamed source draws the next block
    return out


def _outer_product(block: np.ndarray) -> np.ndarray:
    """Per-row outer product of the directions in a (rows, j, 3) block,
    site-major with shape (3^j, rows): entry (i1 ... ij, m) is the product
    of component i1 of the first direction of row m through component ij
    of its last.  One site gives a view of its rows."""
    rows = block.shape[0]
    prod = block[:, 0, :].T
    for j in range(1, block.shape[1]):
        # Site-major copies keep numpy's inner loop on the rows axis.
        site = block[:, j, :].T.copy()
        prod = (np.ascontiguousarray(prod)[:, None, :] * site).reshape(-1, rows)
    return prod


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Correlation values for independently drawn random direction tuples."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).view()
        if vals.ndim != 1:
            raise ValueError(f"sample values must be one-dimensional, got shape {vals.shape}")
        if vals.size and not (vals.min() >= -1.0 and vals.max() <= 1.0):  # NaN fails both
            raise ValueError("sample values outside [-1, 1]")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def settings_count(self) -> int:
        """The number of direction settings M, one value each."""
        return len(self.values)

    def to_csv(self, path) -> None:
        """Write ``sample_index,E`` rows, each byte for byte Python's
        ``"%d,%.17g\n" % (index, value)``, whatever the block size."""
        # A row's temporaries peak at about 400 bytes with 7-digit indices
        # and grow by 12 a digit (tracemalloc): 512 bytes cover 16 digits.
        rows = _block_rows(512)
        with open(path, "w") as fh:
            fh.write("sample_index,E\n")
            for start in range(0, self.settings_count, rows):
                fh.write(_csv_block(self.values[start : start + rows], start).decode())


# Tables of the %.17g kernel: the exact 10^p (p <= 22) and their Veltkamp
# halves; for x = -5 ... 1 the double nearest 10^x, which is the least double
# that rounds to 10^x or more at 17 digits (a test pins this); per exponent
# -e the zeros after "0." (e <= 4) or "e-XX" (e >= 5); the four digits of
# each i < 10^4.  0 bytes in a text are dropped.
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: x * _SPLIT splits x into 26- and 27-bit halves
_POW10 = np.array([float(10**p) for p in range(23)])
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DECADES = np.array([float(f"1e{x}") for x in range(-5, 2)])
_EXPONENT_TEXT = np.array([list((b"0" * (e - 1)).ljust(8, b"\0") if e <= 4 else (b"e-%02d" % e).rjust(8, b"\0"))
                           for e in range(325)], dtype=np.uint8)
_DIGIT_GROUPS = (np.indices((10,) * 4).reshape(4, -1).T + ord("0")).astype(np.uint8, order="C")


def _decimal17(ax: np.ndarray) -> tuple:
    """Digits n and exponent x such that n * 10^(x - 16) is each ``ax`` >= 0
    rounded to 17 significant digits: 10^16 <= n < 10^17, or n = x = 0."""
    tiny, zero = ax < 1e-5, ax == 0
    safe = np.where(tiny, 1.0, ax)  # so x = 16 - p is -5 ... 0, 10^p exact
    p = 22 - _DECADES.searchsorted(safe, side="right")
    # The Dekker two-product hi + lo of safe and 10^p is exact, and hi is
    # over 2^53, an even integer: rint(lo) rounds the sum half to even.
    hi, split = safe * _POW10[p], _SPLIT * safe
    a_hi = split - (split - safe)
    a_lo, s_hi, s_lo = safe - a_hi, _POW10_HI[p], _POW10_LO[p]
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    n[zero], x = 0, 16 - p
    for i in (tiny ^ zero).nonzero()[0]:  # rare: Python's digits, one at a time
        text = "%.16e" % ax[i]
        n[i], x[i] = int(text[0] + text[2:18]), int(text[19:])
    return n, x


def _put_digits(columns: np.ndarray, values: np.ndarray) -> None:
    """The ASCII digits of ``values`` with leading zeros, into the rows of
    ``columns``: one table lookup per four digits."""
    for end in range(len(columns), 0, -4):
        quotient = values // 10**4
        group = _DIGIT_GROUPS.take(values - quotient * 10**4, axis=0)
        columns[max(end - 4, 0) : end] = group.T[max(4 - end, 0) :]
        values = quotient


def _csv_block(values: np.ndarray, start: int) -> bytes:
    """Rows ``start, ...`` of samples.csv: |E| <= 1 prints as 0.000ddd (as
    d.ddd at x = 0) or, for x < -4, as d.ddde-XX.  Character matrix columns:
    the index, ',', '-', the leading digit, '.', the zeros after "0.", 17
    digits with trailing zeros dropped, "e-XX" and the newline."""
    d = len(str(start + len(values) - 1))
    n, x = _decimal17(np.abs(values))
    chars = np.zeros((d + 30, len(values)), dtype=np.uint8)
    index = np.arange(start, start + len(values))
    _put_digits(chars[:d], index)
    for j in range(d - len(str(start))):  # leading zeros of shorter indices
        chars[j] *= index >= 10 ** (d - 1 - j)
    chars[d], chars[d + 1] = ord(","), np.signbit(values) * ord("-")
    slots = chars[d + 7 : d + 24]
    _put_digits(slots, n)
    fixed = (x < 0) & (x >= -4)
    chars[d + 2] = np.where(fixed, ord("0"), slots[0])
    slots[0] *= fixed  # the first digit stays in the slots only after "0."
    trailing = True
    for slot in slots[::-1]:
        trailing = trailing & (slot == ord("0"))
        if not trailing.any():
            break
        slot[trailing] = 0
    chars[d + 3] = ((slots[0] | slots[1]) > 0) * ord(".")
    by_exponent = _EXPONENT_TEXT.take(-x, axis=0).T
    chars[d + 4 : d + 7], chars[d + 24 : d + 29] = by_exponent[:3], by_exponent[3:]
    chars[d + 29] = ord("\n")
    text = chars.T.ravel()
    return text.compress(text > 0).tobytes()


def sample_distribution(rho: DensityMatrix, subset, m: int, rng: RngStream) -> SampleSet:
    """Exact correlation values for ``m`` i.i.d. uniformly random direction
    tuples on ``subset``, those of the table ``random_settings(k, m, rng)``.
    The settings are drawn and contracted one block at a time, so only the
    ``m`` values outlive a block, and only they count against the cap."""
    parties = normalize_subset(subset, rho.n_qubits)
    k = len(parties)
    m = _check_settings(m, 8, "values of M*8")
    return SampleSet(_subset_values(rho, parties, _settings_blocks(rng, k, m, _CONTRACTION_ROWS), m))


def _subset_values(rho: DensityMatrix, parties: tuple, blocks, count: int) -> np.ndarray:
    """Clamped correlation values of ``parties`` (sorted) for the ``count``
    rows of the (rows, k, 3) ``blocks`` of directions, one direction per
    party in order, contracted by ``_contract`` with the correlation-tensor
    slab of ``rho.pauli``."""
    return _clamped(_contract(_slab(rho.pauli, parties, slice(1, 4)), blocks, count))


def _clamped(values: np.ndarray) -> np.ndarray:
    """``values`` clamped to [-1, 1] in place, after refusing any beyond
    ``CORRELATION_EXCESS_ATOL``; NaN passes through."""
    excess = float(max(values.max(), -values.min())) - 1.0
    if excess > CORRELATION_EXCESS_ATOL:
        raise ValueError(f"correlation exceeds 1 by {excess:.3e}")
    return np.clip(values, -1.0, 1.0, out=values)


def histogram_table(values) -> np.ndarray:
    """Histogram rows (bin_left, bin_right, count, density) over [-1, 1].

    The odd bin count ``HISTOGRAM_BINS`` centers one bin at 0 so point
    masses at the origin land in a single bin.
    """
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS, range=(-1.0, 1.0))
    widths = np.diff(edges)
    total = max(1, len(np.asarray(values)))
    density = counts / (total * widths)
    return np.column_stack([edges[:-1], edges[1:], counts, density])


# ---------------------------------------------------------------------------
# Closed-form reference densities for two-qubit correlation distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationDensity:
    """Reference density of the correlation value E on [-1, 1].

    ``product2`` is the -(1/2) ln|E| law; every other kind with a pdf is
    flat on [-p, p].  ``mixed_white`` is a point mass at 0 carried as a
    flag: its ``pdf`` is undefined and raises.
    """

    kind: str
    support: tuple
    is_delta: bool = False
    p: float | None = None

    def pdf(self, e):
        if self.is_delta:
            raise ValueError("point-mass density has no pdf; check is_delta")
        e = np.asarray(e, dtype=float)
        inside = (e >= self.support[0]) & (e <= self.support[1])
        if self.kind == "product2":
            with np.errstate(divide="ignore"):
                out = np.where(inside, -0.5 * np.log(np.abs(e)), 0.0)
        else:
            out = np.where(inside, 1.0 / (2.0 * self.p), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, e):
        e = np.asarray(e, dtype=float)
        if self.is_delta:
            out = np.where(e >= 0.0, 1.0, 0.0)
        elif self.kind == "product2":
            ae = np.clip(np.abs(e), 0.0, 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                tail = np.where(ae > 0.0, ae - ae * np.log(ae), 0.0)
            out = 0.5 + 0.5 * np.sign(e) * tail
        else:
            # a subnormal p overflows to +-inf, which the clip maps to 0 or 1
            with np.errstate(over="ignore"):
                out = np.clip((e + self.p) / (2.0 * self.p), 0.0, 1.0)
        return out if out.ndim else float(out)


def analytic_pdf(kind: str, p: float | None = None) -> CorrelationDensity:
    """Closed-form correlation density for the named two-qubit scenarios.

    kinds: ``product2`` (-(1/2) ln|E|), ``bell`` (flat 1/2, the Werner
    law at p = 1), ``werner`` (flat on [-p, p]; p = 0 degenerates to
    ``mixed_white``), and ``mixed_white`` (point mass at 0).
    """
    if kind == "product2":
        return CorrelationDensity("product2", (-1.0, 1.0))
    if kind == "bell":
        return CorrelationDensity("bell", (-1.0, 1.0), p=1.0)
    if kind == "mixed_white":
        return CorrelationDensity("mixed_white", (0.0, 0.0), is_delta=True)
    if kind == "werner":
        if p is None:
            raise ValueError("werner density requires the mixing parameter p")
        p = _check_real("parameter p", p, 0, 1)
        if p == 0.0:
            return CorrelationDensity("mixed_white", (0.0, 0.0), is_delta=True)
        return CorrelationDensity("werner", (-p, p), p=p)
    raise ValueError(
        f"unknown density kind {kind!r}; valid kinds: product2, bell, werner, mixed_white"
    )

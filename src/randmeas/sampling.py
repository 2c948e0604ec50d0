"""Seeded randomness and measurement-direction sets.

Haar-random 2x2 unitaries (Ginibre + QR with phase correction), uniform
Bloch-sphere directions, and the octahedron/icosahedron direction sets
whose averages reproduce uniform sphere integrals for low-degree
polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from math import prod

import numpy as np

from .states import DIRECTION_ATOL, _check_int

_UINT64_MAX = 2**64 - 1

#: Bytes of per-block temporaries in every loop whose rows per block follow
#: the bytes of a row (``simulate_shots``, ``to_csv``): memory beyond their
#: inputs and outputs does not grow with the number of rows.  It moves no
#: output bit.
_BLOCK_BYTES = 4 << 20

#: Rows per block of every settings draw and every correlation contraction.
#: A contraction row's temporaries peak at k = 8, as the trailing outer
#: product takes its last site: 8 * (2 * 3^4 + 3^3 + 3) = 1,536 bytes for the
#: leading values, the partial and new products and the copied site, 8 * 3^4
#: = 648 for the zero-filled leading workspace of a slab with zero rows, and
#: 24 * 8 more for a short block's zero-padded directions (tracemalloc reads
#: about 1,840 a row for a dense slab and 1,700 for ghz:8 and w:8, with
#: numpy's ufunc buffers and the output), so one block fits
#: ``_BLOCK_BYTES``; a drawn row takes less.
_CONTRACTION_ROWS = 1024

#: Most bytes M settings may hold: ``_check_settings`` counts 24 a direction
#: and, for a shot simulation, 1 an outcome, or 8 a streamed ``sample`` value.
MAX_TABLE_BYTES = 2**31


def _block_rows(row_bytes: int) -> int:
    """Rows per block when each row holds ``row_bytes`` of temporaries."""
    return max(1, _BLOCK_BYTES // row_bytes)


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (seed, stream_id).

    Backed by the counter-based Philox generator keyed with both fields,
    so equal inputs reproduce identical draw sequences and distinct
    stream ids give statistically independent streams.  Parallel
    consumers should derive one stream per work unit, e.g.
    ``RngStream(seed, block_index)``.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # Philox would truncate 1.5 to 1 yet record 1.5 as the seed.
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), 0, _UINT64_MAX))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _generator(rng) -> np.random.Generator:
    """Accept either an RngStream (fresh generator) or a live Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def _stream_generator(rng: RngStream) -> np.random.Generator:
    """``rng.generator()``; a live Generator's position is unknown, so it is refused."""
    if not isinstance(rng, RngStream):
        raise TypeError(f"expected RngStream, got {type(rng)!r}")
    return rng.generator()


# ---------------------------------------------------------------------------
# Haar unitaries and uniform directions
# ---------------------------------------------------------------------------

def haar_unitaries(rng, count: int) -> np.ndarray:
    """Draw ``count`` Haar-distributed 2x2 unitaries, shape (count, 2, 2).

    Ginibre matrices are QR-decomposed and the Q factor is rephased by
    the unit-modulus diagonal of R, which makes the distribution exactly
    Haar rather than merely unitary.
    """
    gen = _generator(rng)
    z = gen.standard_normal((count, 2, 2)) + 1j * gen.standard_normal((count, 2, 2))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.stack([r[:, 0, 0], r[:, 1, 1]], axis=1)
    phases = diag / np.abs(diag)
    return q * phases[:, None, :]


def uniform_directions(rng: RngStream, count: int) -> np.ndarray:
    """Draw ``count`` uniform points on the unit sphere, shape (count, 3):
    the one-party table of ``random_settings``."""
    return random_settings(1, count, rng)[:, 0]


def _check_settings(m: int, row_bytes: int, held: str) -> int:
    """M as an int, refused if not an integer >= 1 or if M settings of
    ``row_bytes`` each exceed ``MAX_TABLE_BYTES``; ``held`` names those bytes
    in the message.  A table of n-party settings holds 24 bytes a direction
    plus, for K shots a setting, 1 byte an outcome."""
    m = _check_int("samples M", m, 1)
    if m * row_bytes > MAX_TABLE_BYTES:
        raise ValueError(f"{held} = {m * row_bytes} bytes exceeds the {MAX_TABLE_BYTES}-byte cap")
    return m


def random_settings(n: int, m: int, rng: RngStream) -> np.ndarray:
    """M uniformly random direction tuples for n parties, shape (M, n, 3),
    filled from ``_settings_blocks``.  ``_check_settings`` refuses a bad M
    before any draw."""
    m = _check_settings(m, 24 * n, "table of M*n*24")
    table = np.empty((m, n, 3))
    for start, block in zip(range(0, m, _CONTRACTION_ROWS), _settings_blocks(rng, n, m, _CONTRACTION_ROWS)):
        table[start : start + len(block)] = block
    return table


def _settings_blocks(rng: RngStream, n: int, m: int, rows: int):
    """M uniformly random direction tuples for n parties as (rows, n, 3)
    blocks (the last one shorter), drawn one block at a time.

    z is uniform on [-1, 1] and the azimuth uniform on [0, 2*pi), which is
    the pushforward of the Haar measure through U sigma_z U^dagger.  Each
    block maps (rows, n, 2) uniforms (u, v), drawn row-major from one
    generator, to z = -1 + 2u and 2*pi*v, numpy's ``uniform`` formulas, so
    row i reads Philox words 2n*i to 2n*i + 2n - 1: it depends on (seed,
    stream id) and i only, and the first M rows of a longer draw are the
    M-row draw.  ``_stream_generator`` refuses a live Generator.
    """
    gen = _stream_generator(rng)
    for start in range(0, m, rows):
        u = gen.random((min(rows, m - start), n, 2))
        z = -1.0 + 2.0 * u[..., 0]
        azimuth = 2.0 * np.pi * u[..., 1]
        points = np.empty((len(u), n, 3))  # written one column at a time
        points[..., 2] = z
        radial = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        np.multiply(radial, np.cos(azimuth), out=points[..., 0])
        np.multiply(radial, np.sin(azimuth), out=points[..., 1])
        u = z = azimuth = radial = None  # freed before the caller's work and the next draw
        yield points


# ---------------------------------------------------------------------------
# Directions and spherical designs
# ---------------------------------------------------------------------------

def as_direction_array(d) -> np.ndarray:
    """Coerce a 3-sequence to a unit ndarray."""
    v = np.asarray(d, dtype=float).ravel()
    if v.shape != (3,):
        raise ValueError(f"expected a direction with 3 components, got shape {v.shape}")
    _check_unit_norm(v)
    return v


def _check_unit_norm(vectors: np.ndarray) -> np.ndarray:
    """``_norms`` of the 3-vectors along the last axis, refused unless every
    vector is finite with norm 1 within ``DIRECTION_ATOL``."""
    norms = _norms(vectors)
    # NaN fails the comparison, and a non-finite entry makes its norm NaN or inf
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= DIRECTION_ATOL))
    if off.size:
        if not np.all(np.isfinite(vectors)):
            raise ValueError("directions have non-finite (NaN or inf) entries")
        raise ValueError(f"direction norm {float(norms.flat[off[0]])!r} deviates from 1 beyond {DIRECTION_ATOL}")
    return norms


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Norms of the 3-vectors along the last axis, summed as ``np.linalg.norm``
    sums them, so bit-equal to it, without its slow length-3 reduction."""
    x, y, z = vectors[..., 0], vectors[..., 1], vectors[..., 2]
    return np.sqrt(x * x + y * y + z * z)


@dataclass(frozen=True, eq=False)
class SphericalDesign:
    """A finite direction set whose average matches uniform sphere
    integrals for all polynomials of degree <= ``degree``.

    ``points`` is stored as a read-only (N, 3) array of unit vectors.
    """

    degree: int
    points: np.ndarray

    def __post_init__(self):
        degree = _check_int("design degree", self.degree, 1)
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"design points must have shape (N, 3), got {pts.shape}")
        _check_unit_norm(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "points", pts)

    def as_array(self) -> np.ndarray:
        return self.points

    @cached_property
    def validation(self) -> dict:
        """``validate_design(self)``, computed once per design."""
        return validate_design(self)


def _designs() -> dict:
    """The degree-3 octahedron (6 points) and degree-5 icosahedron (12
    points).  The icosahedron uses the golden-ratio vertices
    (0, +-1, +-g)/sqrt(1+g^2) and their cyclic coordinate permutations; any
    rotation would serve equally, this one is fixed for byte-reproducible
    output."""
    # +x, -x, +y, -y, +z, -z; zeros stay +0.0, unlike rows of -eye(3)
    octahedron = np.zeros((6, 3))
    octahedron[np.arange(6), np.arange(6) // 2] = np.tile([1.0, -1.0], 3)
    g = (1.0 + np.sqrt(5.0)) / 2.0
    scale = 1.0 / np.sqrt(1.0 + g * g)
    s1, s2 = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    base = np.stack([np.zeros(4), s1 * scale, s2 * g * scale], axis=1)
    # cyclic coordinate shifts: row k of shift s holds base[(k - s) % 3]
    icosahedron = np.concatenate([np.roll(base, s, axis=1) for s in range(3)])
    return {3: SphericalDesign(3, octahedron), 5: SphericalDesign(5, icosahedron)}


_DESIGNS = _designs()


def design_points(t: int) -> SphericalDesign:
    """The shared degree-``t`` design of ``_designs``: its ``validation`` runs once per process."""
    t = _check_int("design degree", t, 1)
    if t not in _DESIGNS:
        raise ValueError(f"unsupported design degree {t}; supported degrees: " + ", ".join(map(str, _DESIGNS)))
    return _DESIGNS[t]


def _double_factorial(k: int) -> int:
    return prod(range(k, 1, -2))


def sphere_monomial_integral(a: int, b: int, c: int) -> float:
    """Uniform average of x^a y^b z^c over the unit sphere.

    Zero unless all exponents are even, in which case it equals
    (a-1)!!(b-1)!!(c-1)!! / (a+b+c+1)!!.
    """
    if a % 2 or b % 2 or c % 2:
        return 0.0
    num = _double_factorial(a - 1) * _double_factorial(b - 1) * _double_factorial(c - 1)
    return num / _double_factorial(a + b + c + 1)


def validate_design(design: SphericalDesign) -> dict:
    """Compare design averages of all monomials up to ``design.degree`` with
    the closed-form sphere integrals, as the mapping ``design_validation.json``
    holds.  Failure is reported in ``"passed"``, not raised."""
    pts, t = design.points, design.degree
    monomials = []
    for degree in range(t + 1):
        for axes in combinations_with_replacement(range(3), degree):
            a, b, c = (axes.count(axis) for axis in range(3))
            values = pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c
            avg = float(np.sum(values) / len(pts))
            exact = sphere_monomial_integral(a, b, c)
            monomials.append(
                {"a": a, "b": b, "c": c, "design_average": avg, "exact_integral": exact, "deviation": abs(avg - exact)}
            )
    max_dev = max((entry["deviation"] for entry in monomials), default=0.0)
    return {
        "degree_tested": t,
        "n_points": len(pts),
        "passed": max_dev < DIRECTION_ATOL,
        "max_abs_deviation": max_dev,
        "monomials": monomials,
    }


def half_design(design: SphericalDesign) -> np.ndarray:
    """One representative per antipodal pair, shape (N/2, 3): the points
    whose first nonzero component is positive, in their order.  Averages
    of even-degree polynomials are unchanged; odd ones are no longer
    reproduced.  Raises unless the other points are exactly their
    negatives."""
    points = design.points
    first = points[np.arange(len(points)), np.argmax(points != 0.0, axis=1)]
    kept, flipped = points[first > 0.0], -points[first < 0.0]
    # Sorted rows line up pairwise only if the set is antipodally symmetric.
    if kept.shape != flipped.shape or np.any(
        np.abs(kept[np.lexsort(kept.T)] - flipped[np.lexsort(flipped.T)]) >= DIRECTION_ATOL
    ):
        raise ValueError("point set is not antipodally symmetric")
    return kept

"""APN property testing over GF(2^m).

f is APN on a field when every derivative f(x+a)+f(x), a != 0, hits each
value at most twice. The differential spectrum histograms those solution
counts over all (a, b) pairs; the surface point check cross-validates the
spectrum verdict by enumerating zeros of phi off the diagonal planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldTooLarge, NotPositive
from .fields import Felt, FieldCtx, find_embedding, make_field
from .unipoly import UniPoly, eval_table

SPECTRUM_LIMIT = 1 << 14
POINT_LIMIT = 1 << 8

GOLD = "GOLD"
KASAMI = "KASAMI"
NOT_EXCEPTIONAL = "NOT_EXCEPTIONAL"


@dataclass(frozen=True)
class DiffSpectrum:
    """Histogram mapping solution counts to the number of (a, b) pairs
    attaining them, over all a != 0 and all b. Keys are even; the weighted
    key sum is field_size * (field_size - 1)."""

    histogram: dict[int, int]
    field_size: int

    @property
    def uniformity(self) -> int:
        return max(k for k, v in self.histogram.items() if v > 0)


@dataclass(frozen=True)
class ExponentClass:
    kind: str
    k: int | None


def _thread_map(fn, chunks) -> list:
    """fn over chunks, one thread each. concurrent.futures is imported here:
    it costs ~1 MB and import time in processes that never use workers > 1."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        return list(pool.map(fn, chunks))


def _directions(coeffs: tuple[int, ...], field: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """Derivative directions a != 0 whose rows, each counted weight times,
    give the rows of every direction.

    For a power map c*x^d, D_a f(a*y) = a^d * D_1 f(y), so every row equals
    the row of a = 1, as it does for f = 0. When every coefficient lies in
    F_(2^s), s < m, D_(a^(2^s)) f(x^(2^s)) = (D_a f(x))^(2^s), so the
    directions in one orbit of a -> a^(2^s) share a row: the orbit minimum
    stands for it, weighted by the orbit length. Otherwise each direction
    counts once."""
    q, m = field.order, field.degree
    if sum(1 for c in coeffs if c) <= 1:
        return np.ones(1, dtype=np.int64), np.array([q - 1], dtype=np.int64)
    s = next(
        s for s in range(1, m + 1)
        if m % s == 0 and all(field.frob(c, s) == c for c in coeffs)
    )
    if s == m:
        return np.arange(1, q, dtype=np.int64), np.ones(q - 1, dtype=np.int64)
    idx = np.arange(q, dtype=np.int64)
    square = field.vec_mul(idx, idx)
    step = idx
    for _ in range(s):
        step = square[step]
    image = orbit_min = idx
    for _ in range(m // s - 1):
        image = step[image]
        orbit_min = np.minimum(orbit_min, image)
    return np.unique(orbit_min[1:], return_counts=True)


def _rows(table: np.ndarray, directions: np.ndarray):
    """For each direction a, the number of x with f(x+a)+f(x) = b, per b."""
    q = len(table)
    idx = np.arange(q, dtype=np.int64)
    for a in directions:
        yield np.bincount(table[idx ^ a] ^ table, minlength=q)


def _histogram_chunk(table: np.ndarray, directions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # rows are summed per weight and each sum is scaled once: a product per
    # row costs ~40 % more time at q = 2^10, where all q-1 weights are 1
    acc = np.zeros(len(table) + 1, dtype=np.int64)
    for weight in np.unique(weights):
        group = np.zeros_like(acc)
        for counts in _rows(table, directions[weights == weight]):
            hist = np.bincount(counts)
            group[: len(hist)] += hist
        acc += weight * group
    return acc


def _apn_chunk(table: np.ndarray, directions: np.ndarray, weights: np.ndarray) -> bool:
    return all(counts.max() <= 2 for counts in _rows(table, directions))


def _over_directions(kernel, f: UniPoly, field: FieldCtx, workers: int) -> list:
    """Run kernel(table, directions, weights) over the directions that
    _directions picks, split round-robin into one chunk per worker thread."""
    q = field.order
    if q > SPECTRUM_LIMIT:
        raise FieldTooLarge(f"spectrum enumeration capped at 2^14, got {field.spec()}")
    if f.ctx != field:
        f = f.embed(find_embedding(f.ctx, field))
    table = eval_table(f, field)
    directions, weights = _directions(f.coeffs, field)
    workers = min(workers, len(directions))
    if workers == 1:
        return [kernel(table, directions, weights)]
    chunks = [(directions[w::workers], weights[w::workers]) for w in range(workers)]
    return _thread_map(lambda ch: kernel(table, *ch), chunks)


def spectrum(f: UniPoly, field: FieldCtx, workers: int = 1) -> DiffSpectrum:
    """Differential spectrum by per-derivative bucketing: one O(q) bincount
    per direction that _directions picks (a = 1 alone for a power map, one
    per Frobenius orbit when the coefficients lie in a proper subfield, all
    q-1 otherwise), never the cubic brute force."""
    acc = sum(_over_directions(_histogram_chunk, f, field, workers))
    histogram = {int(c): int(n) for c, n in enumerate(acc) if n > 0}
    return DiffSpectrum(histogram, field.order)


def is_apn(f: UniPoly, field: FieldCtx, workers: int = 1) -> bool:
    """spectrum(f, field).uniformity == 2, stopping at the first direction
    with a count above 2 instead of building the histogram."""
    return all(_over_directions(_apn_chunk, f, field, workers))


def is_apn_over_extension(f: UniPoly, n: int) -> bool:
    """APN verdict for f lifted to the degree-n extension of its field."""
    if n < 1:
        raise NotPositive(f"extension degree must be positive, got {n}")
    m = f.ctx.degree * n
    if 1 << m > SPECTRUM_LIMIT:
        raise FieldTooLarge(f"extension gf(2^{m}) exceeds the spectrum cap 2^14")
    return is_apn(f, make_field(m))


def classify_exponent(t: int) -> ExponentClass:
    """Gold exponents 2^k+1 (k >= 1), Kasami exponents 4^k-2^k+1 (k >= 2;
    k = 2 gives 13, and 3 is classed as GOLD with k = 1)."""
    if t < 1:
        raise NotPositive(f"exponent must be positive, got {t}")
    k = 1
    while (1 << k) + 1 <= t:
        if (1 << k) + 1 == t:
            return ExponentClass(GOLD, k)
        k += 1
    k = 2
    while (1 << (2 * k)) - (1 << k) + 1 <= t:
        if (1 << (2 * k)) - (1 << k) + 1 == t:
            return ExponentClass(KASAMI, k)
        k += 1
    return ExponentClass(NOT_EXCEPTIONAL, None)


def _point_chunk(table: np.ndarray, xs) -> tuple[int, int, int] | None:
    """Lex-least off-diagonal zero of f(x)+f(y)+f(z)+f(x+y+z) with x in xs
    (ascending), or None. Off the planes the plane product is nonzero, so
    these are exactly the off-V zeros of phi."""
    q = len(table)
    ys = np.arange(q, dtype=np.int64)[:, None]
    zs = np.arange(q, dtype=np.int64)[None, :]
    ty = table[ys]
    tz = table[zs]
    distinct = ys != zs
    for x in xs:
        s = int(table[x]) ^ ty ^ tz ^ table[x ^ ys ^ zs]
        mask = (s == 0) & distinct & (ys != x) & (zs != x)
        if mask.any():
            y, z = np.argwhere(mask)[0]
            return (x, int(y), int(z))
    return None


def surface_point_check(
    f: UniPoly, field: FieldCtx, workers: int = 1
) -> tuple[bool, tuple[Felt, Felt, Felt] | None]:
    """Cross-validate the spectrum verdict against surface enumeration.

    Enumerates zeros of phi over the field; a zero is off V iff its
    coordinates are pairwise distinct. Returns (consistent, witness) where
    consistent says [no off-V zero exists] == is_apn(f, field) and witness
    is the lex-least off-V zero when f is not APN (a = x+y, b = f(x)+f(y)
    then has at least 4 solutions)."""
    q = field.order
    if q > POINT_LIMIT:
        raise FieldTooLarge(f"surface enumeration capped at 2^8, got {field.spec()}")
    table = eval_table(f, field)
    if workers > 1:
        chunks = [range(w, q, workers) for w in range(workers)]
        found = [w for w in _thread_map(lambda ch: _point_chunk(table, ch), chunks) if w]
        point = min(found) if found else None
    else:
        point = _point_chunk(table, range(q))
    witness = None
    if point is not None:
        witness = tuple(Felt(b, field) for b in point)
    consistent = (point is None) == is_apn(f, field)
    return consistent, witness

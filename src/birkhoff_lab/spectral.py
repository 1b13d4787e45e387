"""Min-max invariants of sampled functions quadratic at infinity.

Supported quadratic indices are 0, 1, k-1 and k (k = fiber dimension): global
minima, sublevel percolation thresholds, and their duals under sign flip.
The percolation threshold is computed exactly on the sampled complex: cells
enter in increasing (value, flat index) order, and the threshold is the value
of the first cell whose sublevel set joins the two faces of the negative
quadratic direction (0-dimensional sublevel persistence). That cell lies
between two cells found in O(N) passes, with no sort: the greatest over slices
across that direction of the slice's least cell (a joining path meets every
slice) and the least over lines along it of the line's greatest cell (each
line is a joining path), the weak duality of bottleneck paths. On smooth
instances the two are one cell, which is the threshold. Only when the bracket
stays open are the cells ranked and the rank found by bisection, labelling
the components of the inserted cells at each probe. Adjacency is
axis-neighbor only, and the base circle (when present) wraps periodically.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import UnsupportedIndex
from .grids import GridFunction, require_power_of_two
from .textio import write_csv, write_json

SHELL_FRACTION = 0.9
SHELL_TOL = 1e-9
FIBER_HALFWIDTH = 4.0


class Certificate(enum.Enum):
    GLOBAL_MIN = "global_min"
    GLOBAL_MAX = "global_max"
    PERCOLATION_THRESHOLD = "percolation_threshold"


@dataclass(frozen=True)
class SpectralValue:
    value: float
    certificate: Certificate
    witness: tuple[int, ...]


@dataclass(frozen=True)
class SampledFqi:
    """Samples of a function equal to its quadratic part outside a compact set.

    values has shape (base_resolution?, M1[, M2]) with odd fiber resolutions
    over the fiber box [-FIBER_HALFWIDTH, FIBER_HALFWIDTH]^k; the constant at
    infinity is 0. shell_enforced marks instances whose outer fiber shell was
    overwritten with the quadratic part at construction; fibred sums keep the
    flag off because the sum of compact perturbations is not compactly
    supported on the product box (mixed far regions), matching the continuum
    caveat.
    """

    values: np.ndarray
    signature: tuple[int, ...]
    shell_enforced: bool = field(default=True, kw_only=True)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "signature", tuple(int(s) for s in self.signature))
        k = len(self.signature)
        if not k <= v.ndim <= k + 1:
            raise ValueError(f"values ndim {v.ndim} is not {k} fiber axes and at most one base axis")
        if self.base_resolution is not None:
            require_power_of_two(self.base_resolution, "base_resolution")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        for m in self.fiber_shape:
            if m < 3 or m % 2 == 0:
                raise ValueError("fiber resolutions must be odd and >= 3")
        if any(s not in (-1, 1) for s in self.signature):
            raise ValueError("signature entries must be +-1")
        if self.shell_enforced:
            err = self.shell_error()
            if err > SHELL_TOL:
                raise ValueError(f"outer shell deviates from the quadratic part by {err}")

    @property
    def base_resolution(self) -> int | None:
        """The length of the base axis, any axis before the fiber's, None without one."""
        return self.values.shape[0] if self.values.ndim > self.fiber_dims else None

    @property
    def fiber_dims(self) -> int:
        return len(self.signature)

    @property
    def fiber_shape(self) -> tuple[int, ...]:
        return self.values.shape[self.values.ndim - self.fiber_dims:]

    @property
    def index(self) -> int:
        return sum(1 for s in self.signature if s < 0)

    def fiber_axis(self, i: int) -> np.ndarray:
        m = self.fiber_shape[i]
        return np.linspace(-FIBER_HALFWIDTH, FIBER_HALFWIDTH, m)

    @property
    def fiber_step(self) -> float:
        return float(max(2 * FIBER_HALFWIDTH / (m - 1) for m in self.fiber_shape))

    def fiber_grids(self) -> tuple[np.ndarray, ...]:
        return np.meshgrid(*(self.fiber_axis(i) for i in range(self.fiber_dims)), indexing="ij")

    def _shell_slabs(self):
        """Yield, per fiber axis, the index of its outer band (|xi| above
        SHELL_FRACTION of the box, at both ends) into values, and the
        quadratic part on that band. The bands of two axes share their corner
        cells; together they cover the outer shell."""
        off = self.values.ndim - self.fiber_dims
        axes = [self.fiber_axis(i) for i in range(self.fiber_dims)]
        for i, x in enumerate(axes):
            band = np.flatnonzero(np.abs(x) > SHELL_FRACTION * FIBER_HALFWIDTH)
            grids = [(x[band] if k == i else g).reshape((-1,) + (1,) * (self.fiber_dims - k - 1))
                     for k, g in enumerate(axes)]
            q = sum(s * g**2 for s, g in zip(self.signature, grids))
            yield (slice(None),) * (off + i) + (band,), q

    def shell_error(self) -> float:
        errors = (float(np.max(np.abs(self.values[index] - q))) for index, q in self._shell_slabs())
        return max(errors, default=0.0)


def sample_fqi(
    fn,
    signature: tuple[int, ...],
    base_resolution: int | None = None,
    fiber_resolution: int | tuple[int, ...] = 129,
) -> SampledFqi:
    """Sample fn on the base x [-FIBER_HALFWIDTH, FIBER_HALFWIDTH]^k grid and
    enforce the quadratic shell.

    fn takes (q, xi1[, xi2]) broadcastable arrays (q omitted for point base).
    The outer 10% of the fiber box is overwritten with the quadratic part
    (constant 0 at infinity), which keeps the two far ends unambiguous for
    percolation.
    """
    if isinstance(fiber_resolution, int):
        fiber_resolution = (fiber_resolution,) * len(signature)
    shape = ((base_resolution,) if base_resolution else ()) + tuple(fiber_resolution)
    s = SampledFqi(np.zeros(shape), signature, shell_enforced=False)
    grids = s.fiber_grids()
    if base_resolution:
        q = (np.arange(base_resolution) / base_resolution).reshape((-1,) + (1,) * len(signature))
        s.values[...] = fn(q, *[g[None] for g in grids])
    else:
        s.values[...] = fn(*grids)
    for index, q in s._shell_slabs():
        s.values[index] = q
    return replace(s, shell_enforced=True)


def negate(s: SampledFqi) -> SampledFqi:
    return replace(s, values=-s.values, signature=tuple(-x for x in s.signature))


# ---------------------------------------------------------------------------
# percolation


def _bracket_cells(values: np.ndarray, neg_axis: int) -> tuple[int, int]:
    """Flat indices of the cells lo and hi that bracket the percolation
    threshold cell in (value, flat index) order; see
    sublevel_percolation_threshold."""
    cell = np.arange(values.size).reshape(values.shape)
    across = tuple(k for k in range(values.ndim) if k != neg_axis)
    low = values.min(axis=across, keepdims=True)
    slice_least = np.where(values == low, cell, values.size).min(axis=across)
    high = values.max(axis=neg_axis, keepdims=True)
    line_greatest = np.where(values == high, cell, -1).max(axis=neg_axis)
    lo = slice_least[low.ravel() == low.max()].max()
    hi = line_greatest[high.squeeze(neg_axis) == high.min()].min()
    return int(lo), int(hi)


def sublevel_percolation_threshold(
    values: np.ndarray,
    neg_axis: int,
    periodic_axes: tuple[bool, ...],
):
    """Level at which the two ends of the negative axis join in the sublevels.

    Cells enter in increasing (value, flat index) order. The threshold cell is
    the first whose insertion joins the two boundary faces of neg_axis through
    axis-neighbor cells already inserted, the periodic axes wrapping (neg_axis
    itself may not wrap).

    The threshold cell lies in the bracket [lo, hi] of two cells, both found in
    O(N) passes of min, max and an equality mask on the flat indices:
    - lo, the greatest over slices across neg_axis of each slice's least cell:
      a joining path moves at most one slice at a time along neg_axis, which
      does not wrap, so it meets every slice, and its greatest cell is at
      least the least cell of each slice;
    - hi, the least over lines along neg_axis of each line's greatest cell:
      every line along neg_axis joins the two faces, so they have joined once
      the line of least greatest cell is in.
    When lo == hi that cell is the threshold, and no sort runs and scipy is
    not imported. Otherwise the cells are ranked in (value, flat index) order
    and the threshold rank is found by bisection between the ranks of lo and
    hi: joining only switches on as cells are added, and each probe labels
    the components of the inserted cells and merges labels across the
    periodic seams.
    Returns (threshold value, witness multi-index of the joining cell).
    Raises ValueError unless periodic_axes has one entry per axis with
    neg_axis not periodic.
    """
    if len(periodic_axes) != values.ndim:
        raise ValueError(f"periodic_axes has {len(periodic_axes)} entries for {values.ndim} axes")
    if periodic_axes[neg_axis]:
        raise ValueError("the negative axis cannot wrap: a path could skip its slices")
    lo, hi = _bracket_cells(values, neg_axis)
    if lo != hi:
        lo = _bisect_open_bracket(values, neg_axis, periodic_axes, lo, hi)
    return float(values.flat[lo]), tuple(int(i) for i in np.unravel_index(lo, values.shape))


def _bisect_open_bracket(values, neg_axis, periodic_axes, lo: int, hi: int) -> int:
    """Flat index of the threshold cell, by bisection over the ranks between
    those of the bracket cells lo and hi."""
    flat = values.ravel()
    order = np.lexsort((np.arange(flat.size), flat))
    rank = np.empty(flat.size, dtype=np.intp)
    rank[order] = np.arange(flat.size)
    rank = rank.reshape(values.shape)
    periodic = [k for k, per in enumerate(periodic_axes) if per]

    def joined(r: int) -> bool:
        # imported here because only a probe needs them: scipy.ndimage takes
        # 70-80 ms to import, and csgraph adds 1.3 MB to every process
        from scipy.ndimage import label
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        labels, count = label(rank <= r)  # the default structure is axis-neighbor
        comp = np.arange(count + 1)
        if periodic:
            a, b = (np.concatenate([labels.take(i, axis=k).ravel() for k in periodic]) for i in (0, -1))
            keep = (a > 0) & (b > 0)  # background label 0 would merge everything
            seams = coo_matrix((np.ones(int(keep.sum())), (a[keep], b[keep])), shape=(count + 1,) * 2)
            comp = connected_components(seams, directed=False)[1]
        first, last = (labels.take(i, axis=neg_axis) for i in (0, -1))
        return np.intersect1d(comp[first[first > 0]], comp[last[last > 0]]).size > 0

    lo, hi = int(rank.flat[lo]), int(rank.flat[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        if joined(mid):
            hi = mid
        else:
            lo = mid + 1
    return int(order[lo])


def _spectral_class(values: np.ndarray, signature: tuple[int, ...], top: bool) -> SpectralValue:
    """The one rule for the unit (top False) or top class of the samples
    values, whose last len(signature) axes are the fiber and any axis before
    them the base circle.

    The unit class needs index 0, the global min, or 1, the percolation
    threshold along the one negative axis, the base wrapping. The top class
    is -unit(-S): the same rule on the negated values and signature.
    """
    k = len(signature)
    if top:
        values, signature = -values, tuple(-x for x in signature)
    m = signature.count(-1)
    if m > 1:
        raise UnsupportedIndex(f"top invariant needs index {k - 1} or {k}" if top
                               else f"unit invariant needs index 0 or 1, got {m}")
    if m:
        off = values.ndim - k
        periodic = (True,) * off + (False,) * k
        val, witness = sublevel_percolation_threshold(values, off + signature.index(-1), periodic)
        cert = Certificate.PERCOLATION_THRESHOLD
    else:
        flat = int(np.argmin(values))
        witness = tuple(int(i) for i in np.unravel_index(flat, values.shape))
        val, cert = float(values.min()), Certificate.GLOBAL_MAX if top else Certificate.GLOBAL_MIN
    return SpectralValue(-val if top else val, cert, witness)


def spectral_unit(s: SampledFqi) -> SpectralValue:
    """Invariant of the unit class: global min (index 0) or percolation (index 1)."""
    return _spectral_class(s.values, s.signature, top=False)


def spectral_top(s: SampledFqi) -> SpectralValue:
    """Invariant of the top class, defined through duality as -unit(-S)."""
    return _spectral_class(s.values, s.signature, top=True)


def global_invariants(s: SampledFqi) -> tuple[SpectralValue | None, SpectralValue | None]:
    """(unit, top) invariants of S, None for each one its quadratic index does
    not support: the unit class needs index <= 1, the top class co-index <= 1."""
    unit = spectral_unit(s) if s.index <= 1 else None
    top = spectral_top(s) if s.fiber_dims - s.index <= 1 else None
    return unit, top


def fiber_selector(s: SampledFqi, q_index: int) -> float:
    """Invariant of the fiber over one base point (q_index is ignored without a base).

    Index 0 and the mixed 2-D signature (+1,-1) take the unit invariant (fiber
    minimum, fiber percolation); full index and (-1,+1) take the top one, so
    that selector(-S) = -selector(S) holds exactly.
    """
    top = s.index == s.fiber_dims or s.signature == (-1, 1)
    if not (top or s.index == 0 or s.signature == (1, -1)):
        raise UnsupportedIndex(f"fiber signature {s.signature} unsupported")
    return _spectral_class(s.values[q_index] if s.base_resolution else s.values, s.signature, top).value


def _fiber_selectors(s: SampledFqi) -> np.ndarray:
    if not s.base_resolution:
        raise ValueError("the selector needs a circle base")
    return np.array([fiber_selector(s, i) for i in range(s.base_resolution)])


@dataclass(frozen=True)
class SelectorResult:
    """Base-wise selector with the global invariants that bound it.

    The unit invariant bounds the selector from below and the top invariant
    from above; slack 1e-9 covers float noise (the discrete inequalities are
    exact). bounds_ok is None when no invariant exists.
    """

    values: GridFunction
    lipschitz: float
    unit: SpectralValue | None
    top: SpectralValue | None

    @property
    def bounds_ok(self) -> bool | None:
        vals = self.values.values
        return _within_bounds(*(None if sv is None else sv.value for sv in (self.unit, self.top)),
                              float(vals.min()), float(vals.max()), 1e-9)


def _within_bounds(lower: float | None, upper: float | None, low: float, high: float, slack: float) -> bool | None:
    """Whether lower <= low + slack and high <= upper + slack; None bounds are open, both None gives None."""
    if lower is None and upper is None:
        return None
    return (lower is None or lower <= low + slack) and (upper is None or high <= upper + slack)


def _pair_tolerance(s1: SampledFqi, s2: SampledFqi) -> float:
    """The slack of a selector identity of two instances: twice the coarser fiber step."""
    return 2.0 * max(s1.fiber_step, s2.fiber_step)


def selector_function(s: SampledFqi) -> SelectorResult:
    """Base-wise invariant as a grid function, with the global invariants."""
    vals = _fiber_selectors(s)
    step = 1.0 / s.base_resolution
    lip = float(np.max(np.abs(np.diff(np.append(vals, vals[0]))))) / step
    return SelectorResult(GridFunction(vals), lip, *global_invariants(s))


def fibred_sum_fqi(s1: SampledFqi, s2: SampledFqi, negate_second: bool = False) -> SampledFqi:
    """Product-fiber sum S1(q, xi) + (+-S2)(q, eta) for 1-D fiber inputs.

    The result is not shell-enforced: compact perturbations do not stay
    compact on the product box (mixed far regions), matching the continuum
    situation for direct sums.
    """
    if s1.fiber_dims != 1 or s2.fiber_dims != 1:
        raise UnsupportedIndex("fibred sums implemented for 1-D fiber factors")
    if s1.base_resolution != s2.base_resolution:
        raise ValueError("factors must share their base")
    sign = -1 if negate_second else 1
    return SampledFqi(
        values=s1.values[..., :, None] + sign * s2.values[..., None, :],
        signature=(s1.signature[0], sign * s2.signature[0]),
        shell_enforced=False,
    )


@dataclass(frozen=True)
class AdditivityReport:
    sum_selector: float
    part_selectors: tuple[float, float]
    difference: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return abs(self.difference) <= self.tolerance


def sum_additivity_check(s1: SampledFqi, s2: SampledFqi, q_index: int) -> AdditivityReport:
    """Selector of the product-fiber sum against the sum of fiber selectors."""
    a, b = fiber_selector(s1, q_index), fiber_selector(s2, q_index)
    c = fiber_selector(fibred_sum_fqi(s1, s2), q_index)
    return AdditivityReport(c, (a, b), c - (a + b), _pair_tolerance(s1, s2))


@dataclass(frozen=True)
class DifferenceBoundsReport:
    lower: float | None
    upper: float | None
    min_gap: float
    max_gap: float
    tolerance: float

    @property
    def ok(self) -> bool | None:
        return _within_bounds(self.lower, self.upper, self.min_gap, self.max_gap, self.tolerance)


def selector_difference_bounds(s1: SampledFqi, s2: SampledFqi) -> DifferenceBoundsReport:
    """Bound selector differences by the invariants of S1 (-) S2.

    Each side of the sandwich is evaluated when its quadratic index is
    supported; mismatched signatures leave one side open.
    """
    diff = fibred_sum_fqi(s1, s2, negate_second=True)
    lower, upper = (None if sv is None else sv.value for sv in global_invariants(diff))
    if lower is None and upper is None:
        raise UnsupportedIndex(f"difference signature {diff.signature} unsupported")
    gaps = _fiber_selectors(s1) - _fiber_selectors(s2)
    return DifferenceBoundsReport(lower, upper, float(gaps.min()), float(gaps.max()), _pair_tolerance(s1, s2))


# ---------------------------------------------------------------------------
# serialization


_FQI_META_KEYS = ("base_resolution", "fiber_resolution", "signature", "shell_enforced")


def fqi_to_csv(s: SampledFqi, path) -> None:
    """Write the header `value`, then s.values in C order, one per line; the
    sidecar path.with_suffix(".meta.json") holds the shape (base_resolution,
    null without a base axis, and fiber_resolution), signature and shell_enforced."""
    path = Path(path)
    write_csv(path, ["value"], [s.values.ravel()])
    meta = (s.base_resolution, list(s.fiber_shape), list(s.signature), s.shell_enforced)
    write_json(path.with_suffix(".meta.json"), dict(zip(_FQI_META_KEYS, meta)))


def _not_one_finite_float(path: Path) -> ValueError:
    """The error for an instance CSV with a row that is not one finite float,
    naming the first such line."""
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if n > 1 and line.strip():
                try:
                    ok = math.isfinite(float(line))
                except ValueError:
                    ok = False
                if not ok:
                    return ValueError(f"{path}: line {n} is not one finite float")
    return ValueError(f"{path}: a line is not one finite float")


def fqi_from_csv(path) -> SampledFqi:
    """Read an instance written by fqi_to_csv.

    Raises ValueError on other meta keys or meta values of another type, a
    base_resolution that is neither null nor a power of two, a
    fiber_resolution that is not one positive int per signature entry, a
    header other than `value` (older files have index columns), a line that
    is not one finite float, or a row count other than the number of cells.
    """
    path = Path(path)
    meta_path = path.with_suffix(".meta.json")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict) or sorted(meta) != sorted(_FQI_META_KEYS):
        raise ValueError(f"{meta_path}: the keys are not {list(_FQI_META_KEYS)}")
    base, fiber, signature, shell = (meta[key] for key in _FQI_META_KEYS)

    def is_int(x) -> bool:  # not isinstance: JSON true loads as a bool, an int subclass
        return type(x) is int

    for key, ok, want in (
        ("base_resolution", base is None or is_int(base) and base > 0 and not base & (base - 1),
         "null or a power of two"),
        ("fiber_resolution", isinstance(fiber, list) and all(is_int(m) and m > 0 for m in fiber),
         "a list of positive ints"),
        ("signature", isinstance(signature, list) and all(is_int(s) and s in (-1, 1) for s in signature),
         "a list of the ints 1 and -1"),
        ("shell_enforced", isinstance(shell, bool), "true or false"),
    ):
        if not ok:
            raise ValueError(f"{meta_path}: {key} must be {want}, not {meta[key]!r}")
    if len(fiber) != len(signature):
        raise ValueError(f"{meta_path}: fiber_resolution must be as long as signature, "
                         f"not {len(fiber)} entries for {len(signature)}")
    shape = ((base,) if base else ()) + tuple(fiber)
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != "value":
            raise ValueError(f"{path}: the header is not 'value'")
        try:
            with warnings.catch_warnings():  # no rows is the row-count error below, not a warning
                warnings.simplefilter("ignore", UserWarning)
                vals = np.loadtxt(fh, delimiter=",", ndmin=1)
        except ValueError:
            raise _not_one_finite_float(path) from None
    if not np.isfinite(vals).all():
        raise _not_one_finite_float(path)
    if vals.shape != (np.prod(shape),):
        raise ValueError(f"{path}: want one value per cell of the shape {shape}, read {vals.shape}")
    return SampledFqi(
        values=vals.reshape(shape),
        signature=tuple(signature),
        shell_enforced=shell,
    )

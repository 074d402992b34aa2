"""Natural cubic spline interpolation through per-joint knots.

Each spline is a C2 piecewise cubic through the knots with zero second
derivative at both end knots.  The tridiagonal system for the interior
second derivatives is solved with the Thomas algorithm; strictly
increasing knot times make the system diagonally dominant, so no
pivoting is needed.  The system depends on the knot times only, so one
sweep solves it for every column of a (knots, joints) value array.
"""

import numpy as np

from .errors import OutOfRangeError, ValidationError


class CubicSpline:
    """Piecewise cubic a + b*d + c*d^2 + e*d^3 with d = t - t_segment_start.

    coeffs is (segments, 4) for one curve, or (segments, 4, joints) for
    one curve per joint over the same knots.  Immutable after
    construction; use :func:`build_spline` to create one.
    """

    def __init__(self, knot_times: np.ndarray, coeffs: np.ndarray):
        self.knot_times = knot_times
        self.coeffs = coeffs  # columns a, b, c, d on axis 1

    @property
    def n_segments(self) -> int:
        return len(self.knot_times) - 1

    def _locate(self, t):
        """(segment indices, offsets into the segments) for query times t."""
        ts = np.asarray(t, dtype=float)
        lo, hi = self.knot_times[0], self.knot_times[-1]
        if np.any(ts < lo) or np.any(ts > hi):
            raise OutOfRangeError(f"query time outside knot range [{lo}, {hi}]")
        i = np.clip(np.searchsorted(self.knot_times, ts, side="right") - 1, 0, self.n_segments - 1)
        d = ts - self.knot_times[i]
        # one offset per query, shared by every joint column
        return i, d if self.coeffs.ndim == 2 else d[..., None]

    def eval(self, t):
        """Spline value at time t: a float, or one value (row of joints) per time."""
        i, d = self._locate(t)
        a, b, c, e = (self.coeffs[i, k] for k in range(4))
        out = a + d * (b + d * (c + d * e))
        return float(out) if out.ndim == 0 else out

    def eval_derivatives(self, t):
        """First and second derivative at time t: (velocity, acceleration)."""
        i, d = self._locate(t)
        b, c, e = (self.coeffs[i, k] for k in range(1, 4))
        vel = b + d * (2.0 * c + 3.0 * e * d)
        acc = 2.0 * c + 6.0 * e * d
        if vel.ndim == 0:
            return float(vel), float(acc)
        return vel, acc


def build_spline(times, values) -> CubicSpline:
    """Build the natural cubic spline through (times[i], values[i]).

    values is 1-D (one per knot) or 2-D (knots, joints); a 2-D spline
    evaluates to one row of joints per query time, each column exactly
    as a 1-D spline through it would.  Requires at least 2 knots,
    strictly increasing times, finite values and finite coefficients
    (knots too close for their values overflow them); raises
    ValidationError otherwise.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or y.ndim not in (1, 2) or len(t) != len(y):
        raise ValidationError("knot times must be 1-D and values 1-D or 2-D, equally long")
    if t.size < 2:
        raise ValidationError("spline needs at least 2 knots")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValidationError("knot times and values must be finite")
    h = np.diff(t)
    if np.any(h <= 0):
        raise ValidationError("knot times must be strictly increasing")

    hs = h if y.ndim == 1 else h[:, None]  # one knot spacing per row, shared by the columns
    with np.errstate(all="ignore"):  # overflow shows in the finite check below
        slopes = np.diff(y, axis=0) / hs
        m = _interior_second_derivatives(h, slopes)
        a = y[:-1].copy()
        b = slopes - hs * (2.0 * m[:-1] + m[1:]) / 6.0
        c = m[:-1] / 2.0
        d = (m[1:] - m[:-1]) / (6.0 * hs)
    coeffs = np.stack([a, b, c, d], axis=1)
    if not np.all(np.isfinite(coeffs)):
        raise ValidationError("spline coefficients overflow: knot times too close for their values")
    return CubicSpline(t.copy(), coeffs)


def _interior_second_derivatives(h, slopes):
    """Second derivatives at the knots, natural ends pinned to zero, one column per curve."""
    n = len(h) + 1
    m = np.zeros((n, *slopes.shape[1:]))
    if n == 2:
        return m
    diag = 2.0 * (h[:-1] + h[1:])
    band = h[1:-1]  # sub- and super-diagonal entries coincide
    rhs = 6.0 * np.diff(slopes, axis=0)
    for r in range(1, n - 2):
        w = band[r - 1] / diag[r - 1]
        diag[r] -= w * band[r - 1]
        rhs[r] -= w * rhs[r - 1]
    m[n - 2] = rhs[n - 3] / diag[n - 3]
    for r in range(n - 4, -1, -1):
        m[r + 1] = (rhs[r] - band[r] * m[r + 2]) / diag[r]
    return m

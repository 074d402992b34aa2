"""Natural cubic spline interpolation through per-joint knots.

Each spline is a C2 piecewise cubic through the knots with zero second
derivative at both end knots.  The tridiagonal system for the interior
second derivatives is solved with the Thomas algorithm; strictly
increasing knot times make the system diagonally dominant, so no
pivoting is needed.  The system depends on the knot times only, so one
sweep solves it for every column of a (knots, joints) value array.
"""

import numpy as np

from .errors import MimicError


class CubicSpline:
    """Piecewise cubics a + b*d + c*d^2 + e*d^3 with d = t - t_segment_start.

    coeffs is (segments, 4, joints): one curve per joint over the same
    knots.  Immutable after construction; use :func:`build_spline` to
    create one.
    """

    def __init__(self, knot_times: np.ndarray, coeffs: np.ndarray):
        self.knot_times = knot_times
        self.coeffs = coeffs  # columns a, b, c, d on axis 1

    def eval(self, t):
        """Spline values at times t inside the knots: one row of joints per time.

        t is a float64 (times,) array, as motion.poses passes it.  The
        caller owns the range (playback_grid clamps it); a time past an
        end knot extends that end's cubic.
        """
        i = np.clip(np.searchsorted(self.knot_times, t, side="right") - 1,
                    0, len(self.knot_times) - 2)
        d = (t - self.knot_times[i])[..., None]  # one offset per query, shared by every joint
        a, b, c, e = (self.coeffs[i, k] for k in range(4))
        return a + d * (b + d * (c + d * e))


def build_spline(times, values) -> CubicSpline:
    """Build the natural cubic spline through (times[i], values[i]).

    times is a float64 (knots,) array and values a float64 (knots,
    joints) array, as KeyframeMovement passes its own: the spline
    evaluates to one row of joints per query time, each column exactly
    as a spline through that column alone would.  The caller guarantees
    at least 2 knots, strictly increasing times and finite values (a
    KeyframeMovement is checked when built).  Raises MimicError when
    the coefficients overflow: knots too close for their values.
    """
    h = np.diff(times)
    hs = h[:, None]  # one knot spacing per row, shared by the columns
    with np.errstate(all="ignore"):  # overflow shows in the finite check below
        slopes = np.diff(values, axis=0) / hs
        m = _interior_second_derivatives(h, slopes)
        a = values[:-1].copy()
        b = slopes - hs * (2.0 * m[:-1] + m[1:]) / 6.0
        c = m[:-1] / 2.0
        d = (m[1:] - m[:-1]) / (6.0 * hs)
    coeffs = np.stack([a, b, c, d], axis=1)
    if not np.all(np.isfinite(coeffs)):
        raise MimicError("spline coefficients overflow: knot times too close for their values")
    return CubicSpline(times.copy(), coeffs)


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

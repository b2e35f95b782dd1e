"""Bounded variable projection: one decay law fitted on every lane at once.

A law (:class:`Law`) is linear in all its parameters but one rate: given the
rate its linear fit is closed form, and :func:`profile_fit` searches the rate
(Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).  :mod:`mcmr.rb` fits
its two decay laws with it, :mod:`mcmr.micromotion` the depump curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: floor of every fitted rate: it keeps ``rate**length`` positive
RATE_FLOOR = 1e-9
#: coarse grid of the profile search, in ``-ln(rate)``: rate 1, ten points
#: per e-fold from 1e-9 on, and a hair past the floor's exponent (the rate
#: is clipped exactly onto the floor there)
_GRID = np.concatenate((
    [0.0], np.exp(np.arange(np.log(1e-9), np.log(-np.log(RATE_FLOOR)), 0.1)),
    [-np.log(RATE_FLOOR) + 1e-9]))
#: relative tolerance of the rate search in ``-ln(rate)`` (see :func:`profile_fit`)
_XRTOL = 1e-10
#: elements of the coarse grid's (lanes, points) cost arrays and of its
#: (points, lengths) rate-only terms: a block of 34 lanes scores all 240
#: points in 64 KiB arrays (under glibc's initial 128 KiB mmap threshold),
#: and a depump curve of more than 8,192 points one point at a time, its
#: rate-only terms then a whole row of lengths each
_GRID_BLOCK = 1 << 13


def _lane_weights(sems: np.ndarray) -> np.ndarray:
    """``1/sem**2`` per length, or 1 for every length of a lane with a zero SEM."""
    weighted = (sems > 0).all(-1, keepdims=True)
    return np.where(weighted, 1.0 / np.where(weighted, sems, 1.0) ** 2, 1.0)


def _clipped_ratio(num, den, hi: float):
    """``clip(num / den, 0, hi)`` for ``den >= 0``, 0 where ``den == 0``: ``num`` is
    clipped first, so no quotient overflows, and a clipped quotient is ``hi`` exactly."""
    top, positive = hi * den, den > 0
    ratio = np.divide(np.minimum(np.maximum(num, 0.0), top), den,
                      out=np.zeros(np.shape(den)), where=positive)
    return np.where(positive & (num >= top), hi, ratio)


def _lane_sums(x, v):
    """``sum x v`` over lengths as (lanes, points): ``v`` is (lanes, lengths), ``x``
    (points, lengths) shared by every lane or (lanes, points, lengths)."""
    return (x @ v[..., None])[..., 0]


def scale_terms(z):
    """The rate-only terms :func:`scale_fit` reads: ``z`` and ``z**2``."""
    return z, z * z


def scale_lanes(r, w):
    """The lane-only terms :func:`scale_fit` reads: ``w``, ``w r`` and
    ``sum w r**2`` as (lanes, 1)."""
    wr = w * r
    return w, wr, (wr * r).sum(-1)[:, None]


def scale_fit(terms, lanes, hi: float, scale=None):
    """Scale in [0, ``hi``] (or ``scale``) minimising ``sum w (r - A z)**2`` for
    every lane and point of ``z`` (``terms`` from :func:`scale_terms`,
    ``lanes`` from :func:`scale_lanes`; see :func:`_lane_sums`), as one
    candidate ``(A,)`` with its cost ``sum w r**2 - A (2 sum w z r - A sum w
    z**2)`` (see :class:`Law`)."""
    z, zz = terms
    w, wr, swrr = lanes
    szr, szz = _lane_sums(z, wr), _lane_sums(zz, w)

    def cost(a):
        return swrr - a * (2.0 * szr - a * szz)

    a = _clipped_ratio(szr, szz, hi) if scale is None else np.full(szz.shape, scale)
    return cost, [(a,)], True


def intercept_asymptote_terms(x):
    """The rate-only terms :func:`intercept_asymptote_fit` reads: ``x``'s mean
    over lengths ``x_ref``, the spread ``u = x - x_ref`` and ``u**2``."""
    x_ref = x.sum(-1) / x.shape[-1]  # x.mean(-1), without its Python overhead
    u = x - x_ref[..., None]
    return x_ref, u, u * u


def intercept_asymptote_lanes(y, w):
    """The lane-only terms :func:`intercept_asymptote_fit` reads: ``w``, ``w y~``
    (``y~ = y - y_mean``), and ``sum w``, ``y_mean`` and ``sum w y~**2`` as
    (lanes, 1)."""
    sw = w.sum(-1)[:, None]
    y_mean = (w * y).sum(-1)[:, None] / sw
    y_c = y - y_mean
    wy_c = w * y_c
    return w, wy_c, sw, y_mean, (wy_c * y_c).sum(-1)[:, None]


def intercept_asymptote_fit(terms, lanes):
    """``(B, C)`` in [0, 1]**2 minimising ``sum w (y - B x - C)**2`` for every
    lane and point of ``x`` (``terms`` from :func:`intercept_asymptote_terms`,
    ``lanes`` from :func:`intercept_asymptote_lanes`; see :func:`_lane_sums`),
    as five candidates (see :class:`Law`): the free solution (feasible or
    not; B clipped into [0, 1]) and the four edges.

    The cost is a convex quadratic on a box, so its minimum is the free one
    when that is feasible and otherwise lies on an edge: the cheapest of
    the feasible free solution and the four edge solutions (B = 0, B = 1,
    C = 0, C = 1, each a clipped one-dimensional fit, corners included) is
    exact.  Clipping B and C one at a time is not.

    The sums hold spreads, not offsets: ``u = x - x_ref`` shifts each rate's
    ``x`` by its mean over lengths and ``y~ = y - y_mean`` centres each lane
    on its weighted mean.  With ``d = y_mean - C - B x_ref`` the cost of
    (B, C) is ``sum w y~**2 + B (B sum w u**2 - 2 sum w u y~ - 2 d sum w u)
    + d**2 sum w``.
    """
    x_ref, u, uu = terms
    w, wy_c, sw, y_mean, syy = lanes
    su, suu, suy = _lane_sums(u, w), _lane_sums(uu, w), _lane_sums(u, wy_c)
    # the weighted sums of x, x**2, x y about the origin and about the means
    x_mean = x_ref + su / sw
    sxx_c = suu - su * su / sw
    sx, sxx, sxy = sw * x_mean, sxx_c + sw * x_mean * x_mean, suy + sw * x_mean * y_mean
    b_free = _clipped_ratio(suy, sxx_c, 1.0)
    c_free = y_mean - b_free * x_mean
    free = (sxx_c > 0) & (suy >= 0) & (suy <= sxx_c) & (c_free >= 0) & (c_free <= 1)

    def cost(b, c):
        d = y_mean - c - b * x_ref
        return syy + b * (b * suu - 2.0 * (suy + d * su)) + d * d * sw

    # (B, C) of the free solution, B = 0, B = 1, C = 0 and C = 1
    return cost, [(b_free, c_free), (0.0, np.minimum(np.maximum(y_mean, 0.0), 1.0)),
                  (1.0, np.minimum(np.maximum(y_mean - x_mean, 0.0), 1.0)),
                  (_clipped_ratio(sxy, sxx, 1.0), 0.0),
                  (_clipped_ratio(sxy - sx, sxx, 1.0), 1.0)], free


@dataclass(frozen=True)
class Law:
    """A decay law as the fits see it: linear in all parameters but its rate,
    which enters as ``x = rate**(length + exponent_offset)``."""

    #: ``model(x, *linear)``, the law's value
    model: object
    #: ``terms(x)``: the rate-only terms ``linear_fit`` reads of ``x``, which is
    #: (points, lengths), shared by every lane, or (lanes, points, lengths)
    terms: object
    #: ``lanes(means, weights)``: the lane-only terms ``linear_fit`` reads
    lanes: object
    #: ``linear_fit(terms, lanes)`` returns ``(cost, candidates, feasible)``:
    #: the linear parameters of K candidate solutions, each optimal on one
    #: face of the parameters' box, of which the first cheapest is the fit;
    #: ``cost(*linear)``, the (lanes, points) cost of one candidate or the
    #: (K, lanes, points) costs of a stack of them; and where the first
    #: candidate is feasible (its cost is inf elsewhere; the first
    #: candidate's parameters are full (lanes, points) arrays).
    #: :func:`_cheapest` and :func:`_stacked` read it.
    linear_fit: object
    exponent_offset: float
    #: parameter names in model order, rate last
    params: tuple[str, ...]
    #: sign of the first parameter's factor of ``x``, and the largest rate
    #: searched
    sign: float = 1.0
    ceiling: float = 1.0


def _cheapest(fit) -> np.ndarray:
    """The (lanes, points) cost of a ``linear_fit``'s cheapest candidate: each
    candidate's cost formed in turn and folded into a running minimum."""
    cost, (first, *rest), feasible = fit
    best = cost(*first)
    np.copyto(best, np.inf, where=np.logical_not(feasible))
    for linear in rest:
        np.minimum(best, cost(*linear), out=best)
    return best


def _stacked(fit):
    """A ``linear_fit``'s candidates as stacks: the (K, lanes, points) costs
    and the linear parameters as one (parameters, K, lanes, points) array."""
    cost, candidates, feasible = fit
    if len(candidates) == 1:  # one face, always feasible: views, no copies
        linear = [p[None] for p in candidates[0]]
        return cost(*linear), linear
    linear = np.empty((len(candidates[0]), len(candidates), *np.shape(candidates[0][0])))
    for k, params in enumerate(candidates):
        for stack, p in zip(linear, params):
            stack[k] = p
    costs = cost(*linear)
    np.copyto(costs[0], np.inf, where=np.logical_not(feasible))
    return costs, linear


def _clipped_rate(spec: Law, s):
    """``exp(-s)`` clipped into [1e-9, ``spec.ceiling``]."""
    return np.minimum(np.maximum(np.exp(-s), RATE_FLOOR), spec.ceiling)


def _profile_slope(spec: Law, exponents, x, means, w, linear) -> np.ndarray:
    """Slope of the profiled cost in ``s = -ln(rate)`` at ``x = rate**exponents``
    and the fitted linear parameters ``linear`` (arrays that broadcast
    against ``x[..., 0]``), in residual form; given every candidate of a
    ``linear_fit``, each candidate's own slope.

    By the envelope theorem it is the partial derivative there,
    ``2 scale sum w r e x``: the law's first parameter times its ``sign``
    as ``scale``, residuals ``r`` and ``e = exponents``.  It is exactly 0
    where ``scale`` is 0.
    """
    residuals = means - spec.model(x, *(p[..., None] for p in linear))
    return 2.0 * spec.sign * linear[0] * (w * residuals * exponents * x).sum(-1)


def _coarse_grid(spec: Law, exponents, lanes) -> np.ndarray:
    """Index of each lane's cheapest point of ``_GRID`` (the first, by
    :func:`_cheapest`; ``lanes`` from ``spec.lanes``), in blocks of at most
    ``_GRID_BLOCK`` (lane, point) pairs: the rate-only terms once per block
    of points, then each block of lanes against them."""
    n = len(lanes[0])
    points = min(_GRID.size, max(1, _GRID_BLOCK // exponents.size))
    block = max(1, _GRID_BLOCK // points)  # lanes
    starts = range(0, _GRID.size, points)
    least, first = np.empty((len(starts), n)), np.empty((len(starts), n), dtype=np.intp)
    for j, start in enumerate(starts):
        terms = spec.terms(_clipped_rate(spec, _GRID[start:start + points])[:, None] ** exponents)
        for i in range(0, n, block):
            cost = _cheapest(spec.linear_fit(terms, [a[i:i + block] for a in lanes]))
            least[j, i:i + block], first[j, i:i + block] = cost.min(-1), start + cost.argmin(-1)
    # the first cheapest block's first cheapest point is the first cheapest point
    return first[least.argmin(0), np.arange(n)]


def profile_fit(spec: Law, lengths, means, sems) -> tuple[np.ndarray, ...]:
    """Bounded weighted least squares of one decay law on every lane at once.

    Variable projection: given the decay rate ``r``, the law is linear in
    its other parameters, which its ``linear_fit`` solves in closed form as
    the first cheapest of its candidates.  The profiled cost is searched
    over ``s = -ln r`` for ``r`` in [1e-9, ``spec.ceiling``].  A coarse grid
    in ``s`` brackets its global minimum between the best point's two
    neighbours.  A lane whose slope there (:func:`_profile_slope`) does not
    rise from <= 0 to > 0 keeps its coarse point; the others find its root
    by inverse quadratic interpolation (Chandrupatla, Adv. Eng. Softw. 28,
    145, 1997), halving where that fails its test, is not finite, or the
    bracket has not halved over two steps (Brent's safeguard).

    The profiled slope is the slope of whichever candidate wins, so it
    changes formula where the box's active set changes.  On a leakage lane
    the free candidate fits three lengths exactly and its slope is almost
    flat (about -3e-10 over 0.1 in ``s``), while the B = 1 or C = 0 face
    beside it has a smooth slope of its own that crosses zero at the root;
    interpolating through values of both faces fails the test, and such a
    lane halves up to about 30 times.  So every step scores the slope of
    every candidate in one call, and the interpolation uses the slope of
    the face that wins at the newest point if that slope changes sign
    across the bracket, else that of the face winning at the other end,
    else the profiled slope.  The profiled slope alone decides the signs,
    the tolerance and which end a lane keeps.  A law of one candidate
    (standard, depump) has one face, whose slope is the profiled slope.

    A lane stops once its bracket is narrower than ``2 _XRTOL (|s| +
    _GRID[1])`` (>= 2e-19), takes its end of smaller absolute slope and
    leaves the working set.  Brackets start at most 3.6 wide and halve at
    least once in three steps, so no lane takes more than 3 x 64 = 192
    steps.  On the canonical campaign's 1,407 lanes at seeds 0 and 9001 the
    leakage law scores the slope 13 and 12 times (34 and 33 on the profiled
    slope alone), the standard law 7 times.  The cheapest of the search's
    result, the best coarse point and both bounds wins, a tie going to the
    ceiling, then the floor, then the coarse point (a leakage lane with
    B = 0 costs the same at every rate and reports 1).
    The lane-only terms (``spec.lanes``) are computed once per call.  The
    coarse grid (:func:`_coarse_grid`) keeps only the cheapest candidate's
    cost (:func:`_cheapest`), which ``linear_fit``'s cost formula forms
    from weighted sums.  The search and the final pick take every
    candidate's cost and parameters as stacks (:func:`_stacked`), and
    compute ``x = rate**e`` once per evaluation for the linear fit, the
    slope and the residuals.  The final pick scores its four candidates
    from their residuals, which round less where the fit is close.
    ``means`` and ``sems`` are (lanes, lengths) arrays; returns the law's
    parameters, rate last, as (lanes,) arrays.  A lane with non-finite
    statistics gets non-finite parameters.
    """
    w = _lane_weights(sems)
    exponents, lanes = lengths + spec.exponent_offset, spec.lanes(means, w)

    def solve(exponent, lanes):
        # (lanes, points) -> the winning candidate, the rate, x and every
        # candidate's linear parameters as (K, lanes, points)
        rate = _clipped_rate(spec, exponent)
        x = rate[..., None] ** exponents
        cost, linear = _stacked(spec.linear_fit(spec.terms(x), lanes))
        return cost.argmin(0), rate, x, linear

    n, coarse = len(means), _coarse_grid(spec, exponents, lanes)
    # the bracket: the best point's two neighbours, (lanes, 2)
    ends = _GRID[np.minimum(np.maximum(coarse[:, None] + (-1, 1), 0), _GRID.size - 1)]

    def scored(exponent, y, lanes):
        # (lanes, points) -> the winning candidate, and every candidate's slope
        # as (K, lanes, points); lanes[0] is the weights
        k, _, x, linear = solve(exponent, lanes)
        return k, _profile_slope(spec, exponents, x, y[:, None], lanes[0][:, None], linear)

    k, g = scored(ends, means, lanes)
    f = k.choose(g)
    root = _GRID[coarse]
    run = np.flatnonzero((f[:, 0] <= 0) & (f[:, 1] > 0))
    # the records of the bracket [x1, x2], x1 its newest point, and of x3, the
    # point dropped last: every candidate's slope, the profiled slope f (the
    # winner's), then x; and the winning candidates at x1 and x2
    rec, wins = np.empty((3, len(g) + 2, run.size)), k[run].T
    rec[:2] = np.concatenate((g, f[None], ends[None]))[:, run].transpose(2, 0, 1)
    y, part, lane = means[run], [a[run] for a in lanes], np.arange(run.size)
    t, dx = np.full(run.size, 0.5), rec[1, -1] - rec[0, -1]
    older = old = dx
    while run.size:
        x = rec[0, -1] + t * dx
        k, g = scored(x[:, None], y, part)
        k, g = k[:, 0], g[..., 0]
        f = k.choose(g)
        same = (f > 0) == (rec[0, -2] > 0)
        rec[1:], wins[1] = np.where(same, rec[1::-1], rec[:2]), np.where(same, wins[1], wins[0])
        rec[0, :-2], rec[0, -2], rec[0, -1], wins[0] = g, f, x, k
        x1, x2, x3, f1, f2 = rec[0, -1], rec[1, -1], rec[2, -1], rec[0, -2], rec[1, -2]
        dx = x2 - x1
        width = np.abs(dx)
        best = np.where(np.abs(f1) < np.abs(f2), x1, x2)
        # interpolate the slope of the face winning at x1 if it changes sign
        # across the bracket, else of the face winning at x2, else f (a law
        # of one candidate has one face, whose slope is f)
        h = rec[:, -2]
        if len(g) > 1:
            turns = np.not_equal(*(rec[:2, :-1] > 0))[wins, lane]
            h = rec[:, np.where(turns[0], wins[0], np.where(turns[1], wins[1], len(g))), lane]
        h1, h2, h3 = h[0], h[1], h[2]
        with np.errstate(all="ignore"):  # a non-finite step halves
            d12, d32 = h1 - h2, h3 - h2
            tlim = _XRTOL * (np.abs(best) + _GRID[1]) / width
            xi, phi = (x1 - x2) / (x3 - x2), d12 / d32
            t = h1 / d32 * (h3 / d12 + (x3 - x1) / dx * h2 / (h3 - h1))
            fits = ((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & np.isfinite(t)
                    & (width <= 0.5 * older))  # else halve
        t = np.minimum(np.maximum(np.where(fits, t, 0.5), tlim), 1.0 - tlim)
        older, old = old, width  # the bracket's widths two steps and one step back
        done = tlim > 0.5
        if done.any():
            root[run[done]] = best[done]
            keep = ~done
            run, t, dx, older, old, y, *part = (
                a[keep] for a in (run, t, dx, older, old, y, *part))
            rec, wins, lane = rec[..., keep], wins[:, keep], lane[:run.size]
    tried = np.empty((n, 4))
    tried[:, 0], tried[:, 1], tried[:, 2], tried[:, 3] = _GRID[0], _GRID[-1], _GRID[coarse], root
    k, rate, x, linear = solve(tried, lanes)
    linear = [k.choose(p) for p in linear]
    r = means[:, None] - spec.model(x, *(p[..., None] for p in linear))
    pick = np.argmin((w[:, None] * r * r).sum(-1), axis=-1)
    return tuple(p[np.arange(n), pick] for p in (*linear, rate))

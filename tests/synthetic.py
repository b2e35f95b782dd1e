"""Shared test helpers: independent oracles and synthetic channel factories.

The all-sequences survival average here accumulates the running Clifford
product exactly; the package's closed-form ``rb.decay_coefficients`` must
match it.  The record-based bootstrap here rebuilds every resample as
records, one scalar binomial draw each; the package's per-length array
bootstrap must reproduce its per-resample statistics draw for draw.  The
``curve_fit`` fits here are a local solver from a guessed start point; the
package's variable-projection fits must reach an equal or lower weighted
cost.  The profile fit here solves each law's linear part in residual form
(one residual array per candidate) and refines its rate bracket on zoom
grids; the package solves the linear part from weighted sums and bisects on
the slope of the profiled cost, and must reach an equal or lower cost, with
the same parameters wherever the two costs do not tie.  Costs are compared
in 40-digit decimal arithmetic (``weighted_cost``), so float64 rounding of
small residuals does not decide a comparison.  The per-sequence focus
simulation here runs one trajectory array per sequence; the package's
per-length batched ``rb.simulate_focus`` must return the same table
whenever no random draw decides it, and the same statistics otherwise.
The Lindblad oracle here intentionally uses a different construction from
the package (one 16x16 generator exponential in the column-stacked basis
instead of a 4x4 population exponential plus analytic coherence factors),
so agreement is a genuine cross-check.  The gate oracle here conjugates
every basis operator by the unitary; the package's ``liouville.embed_gate``
changes basis once from the column-stacked ``kron`` form.
"""
from __future__ import annotations

import dataclasses
import decimal
import warnings

import numpy as np
from scipy.linalg import expm
from scipy.optimize import OptimizeWarning, curve_fit

from mcmr import channels, clifford, liouville, rb


def lindblad_vec_oracle(rates: np.ndarray) -> np.ndarray:
    """Channel matrix for jump operators sqrt(R[a,b]) |b><a|, via one expm.

    Builds the full 16x16 vec-basis generator term by term and exponentiates
    it, then changes to the Hermitian basis.
    """
    d = liouville.DIM
    gen = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d)
    for a in range(d):
        for b in range(d):
            r = rates[a, b]
            if r == 0:
                continue
            jump = np.zeros((d, d))
            jump[b, a] = 1.0
            jdj = jump.T @ jump
            gen += r * (np.kron(jump.conj(), jump)
                        - 0.5 * np.kron(eye, jdj)
                        - 0.5 * np.kron(jdj.T, eye))
    return liouville.vec_to_basis_superop(expm(gen))


def conjugation_oracle(qubit_unitary, extra_unitary=None) -> np.ndarray:
    """Superoperator of a block-diagonal unitary, one conjugated basis operator
    per column: ``M[i, k] = Tr(B_i^dag U B_k U^dag)``."""
    u4 = np.zeros((liouville.DIM, liouville.DIM), dtype=complex)
    u4[:2, :2] = qubit_unitary
    u4[2:, 2:] = np.eye(2) if extra_unitary is None else extra_unitary
    basis = liouville.standard_basis()
    conjugated = np.einsum("ab,kbc,dc->kad", u4, basis, u4.conj())
    m = np.einsum("iab,kab->ik", basis.conj(), conjugated)
    assert np.max(np.abs(m.imag)) <= liouville.IMAG_TOL
    return m.real


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """A random unitary: the Q factor of a complex Gaussian matrix."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def random_symmetric_rates(rng: np.random.Generator, scale: float = 0.25) -> np.ndarray:
    """Random jump rates that respect the incoherent-leakage block form.

    The two extra levels are treated symmetrically (equal rates into them
    from each qubit level, mirror-symmetric rates out of them), which keeps
    the evolved extra-level identity free of a Z_e component.
    """
    u = lambda: float(rng.uniform(0.0, scale))
    rates = np.zeros((4, 4))
    rates[0, 1] = u()                      # qubit-internal pumping
    rates[1, 0] = u()
    leak0, leak1 = u(), u()
    rates[0, 2] = rates[0, 3] = leak0      # equal leak into each extra level
    rates[1, 2] = rates[1, 3] = leak1
    seep_d, seep_b = u(), u()
    rates[2, 0] = rates[3, 0] = seep_d     # mirror-symmetric seepage
    rates[2, 1] = rates[3, 1] = seep_b
    cross = u()
    rates[2, 3] = rates[3, 2] = cross      # extra-internal exchange
    for a in range(4):
        rates[a, a] = u()                  # elastic self-scattering
    return rates


def random_lambda_channel(rng: np.random.Generator) -> channels.LeakageChannel:
    """A random channel satisfying the incoherent-leakage block form.

    Composes a symmetric rate channel with qubit/extra phase rotations,
    qubit dephasing and qubit depolarizing.  All factors are diagonal in the
    level populations, so the composition keeps the block form.
    """
    parts = [channels.rate_scattering_channel(random_symmetric_rates(rng))]
    phase_q = liouville.embed_gate(np.diag([1.0, np.exp(1j * rng.uniform(0, 2 * np.pi))]))
    chi = rng.uniform(0, 2 * np.pi)
    phase_e = liouville.embed_gate(np.eye(2),
                                   np.diag([1.0, np.exp(1j * chi)]))
    parts.append(channels.LeakageChannel(phase_q))
    parts.append(channels.LeakageChannel(phase_e))
    q = float(rng.uniform(0.0, 0.3))
    z4 = np.diag([1.0, -1.0, 1.0, 1.0])
    dephase = liouville.kraus_to_superop(
        [np.sqrt(1 - q) * np.eye(4), np.sqrt(q) * z4])
    parts.append(channels.LeakageChannel(dephase))
    parts.append(channels.depolarizing(float(rng.uniform(0.0, 0.2))))
    order = rng.permutation(len(parts))
    return channels.compose(*[parts[i] for i in order])


def choi_matrix(superop_basis: np.ndarray) -> np.ndarray:
    """Unnormalised Choi matrix of a channel given in the Hermitian basis.

    Positive semidefiniteness of this matrix is complete positivity.
    """
    basis = liouville.standard_basis()
    d = liouville.DIM
    choi = np.zeros((d * d, d * d), dtype=complex)
    for j in range(liouville.N_BASIS):
        out = np.einsum("k,kab->ab", superop_basis[:, j], basis)
        choi += np.kron(basis[j].conj(), out)
    return choi


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> bool:
    """True when unitaries (or states) agree up to a global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    flat_a, flat_b = a.ravel(), b.ravel()
    k = int(np.argmax(np.abs(flat_b)))
    if abs(flat_b[k]) < atol:
        return bool(np.allclose(a, b, atol=atol))
    phase = flat_a[k] / flat_b[k]
    if abs(abs(phase) - 1.0) > atol:
        return False
    return bool(np.allclose(a, phase * b, atol=atol))


def exact_average_survival(slot_channel, spam: rb.SpamModel, length: int) -> dict:
    """Average survival over *all* sequences of a length, for each net Pauli.

    Propagates one accumulator per possible running net element; after the
    final step each accumulator is closed with that net element's inversion.
    Because the survival depends on a sequence only through the running
    product, this equals the literal average over all ``24**l`` sequences at
    ``O(l * 24^2)`` cost.

    Returns ``{(pauli, outcome): probability}`` for both outcomes.
    """
    if length < 1:
        raise ValueError("length must be positive")
    slot = slot_channel.matrix
    gates = clifford.superop_table()
    stepped = np.einsum("ij,njk->nik", slot, gates)
    table = clifford.clifford_table()
    compose_into = [[clifford.compose(table[i], table[d]).index
                     for d in range(clifford.GROUP_ORDER)]
                    for i in range(clifford.GROUP_ORDER)]
    prep = spam.prep_vector()

    states = [stepped[i] @ prep for i in range(clifford.GROUP_ORDER)]
    for _ in range(length - 1):
        nxt = [np.zeros(liouville.N_BASIS) for _ in range(clifford.GROUP_ORDER)]
        for d in range(clifford.GROUP_ORDER):
            moved = np.einsum("nij,j->ni", stepped, states[d])
            for i in range(clifford.GROUP_ORDER):
                nxt[compose_into[i][d]] += moved[i]
        states = nxt

    effects = {0: spam.dark_effect(), 1: spam.bright_effect()}
    norm = float(clifford.GROUP_ORDER) ** length
    out = {}
    for label in clifford.PAULI_LABELS:
        pauli = clifford.pauli_element(label)
        totals = {0: 0.0, 1: 0.0}
        for d in range(clifford.GROUP_ORDER):
            inv = clifford.compose(pauli, clifford.inverse(table[d]))
            v = gates[inv.index] @ states[d]
            for k in (0, 1):
                totals[k] += float(effects[k] @ v)
        for k in (0, 1):
            out[(label, k)] = totals[k] / norm
    return out


def record_stats(dataset: rb.RBDataset, value) -> tuple:
    """Per-length statistics of ``value(record)``, read off the record properties."""
    stats = []
    for length, group in sorted(dataset.by_length().items()):
        vals = np.array([value(r) for r in group])
        sem = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        stats.append(rb.PerLengthStats(length, vals.size, float(vals.mean()), sem))
    return tuple(stats)


def record_resample_stats(dataset: rb.RBDataset, n_resamples: int, seed) -> np.ndarray:
    """Record-based bootstrap statistics, stacked as ``rb._resample_stats`` returns them.

    The draws come in the package's order: per block of ``rb._RESAMPLE_BLOCK``
    resamples and per length, one (resamples, sequences) array of picks,
    then one scalar binomial draw per pick in row order.  Every resample is
    rebuilt as a new dataset of records (one ``dataclasses.replace`` per
    chosen record) and its statistics come from the record properties.
    """
    rng = np.random.default_rng(seed)
    groups = [group for _, group in sorted(dataset.by_length().items())]
    lanes = []
    for start in range(0, n_resamples, rb._RESAMPLE_BLOCK):
        resamples = [[] for _ in range(min(rb._RESAMPLE_BLOCK, n_resamples - start))]
        for group in groups:
            picks = rng.integers(0, len(group), (len(resamples), len(group)))
            for records, row in zip(resamples, picks):
                for j in row:
                    r = group[j]
                    dark = int(rng.binomial(r.shots, r.dark_counts / r.shots))
                    records.append(dataclasses.replace(r, dark_counts=dark))
        for records in resamples:
            resampled = rb.RBDataset(tuple(records))
            correct = record_stats(resampled, lambda r: r.correct_fraction)
            dark = record_stats(resampled, lambda r: r.dark_fraction)
            lanes.append([[s.mean for s in correct], [s.sem for s in correct],
                          [s.mean for s in dark], [s.sem for s in dark]])
    return np.array(lanes).transpose(1, 0, 2)


def _clipped_ratio(num, den, hi: float):
    """``clip(num / den, 0, hi)`` for ``den >= 0`` without overflow; 0 where ``den == 0``."""
    top, positive = hi * den, den > 0
    ratio = np.divide(np.minimum(np.maximum(num, 0.0), top), den,
                      out=np.zeros(np.shape(den)), where=positive)
    return np.where(positive & (num >= top), hi, ratio)


def amplitude_fit_oracle(x, y, w):
    """Bounded amplitude minimising ``sum w (y - 1/2 - A x)**2``, in residual form.

    ``x``, ``y`` and ``w`` share their shape, lengths last; returns the
    cost and ``(A,)`` over the other axes.
    """
    r = y - 0.5
    amplitude = _clipped_ratio((w * x * r).sum(-1), (w * x * x).sum(-1),
                               rb.PARAMETER_BOUNDS["amplitude"][1])
    residuals = r - amplitude[..., None] * x
    return (w * residuals * residuals).sum(-1), (amplitude,)


def intercept_asymptote_fit_oracle(x, y, w):
    """``(B, C)`` in [0, 1]**2 minimising ``sum w (y - B x - C)**2``, in residual form.

    The cheapest of the feasible free solution and the four edge solutions
    (B = 0, B = 1, C = 0, C = 1), each candidate scored from its own
    residuals.  Shapes as :func:`amplitude_fit_oracle`; returns the cost and
    ``(B, C)``.
    """
    wx = w * x
    sw, sx, sy = w.sum(-1), wx.sum(-1), (w * y).sum(-1)
    sxx, sxy = (wx * x).sum(-1), (wx * y).sum(-1)
    x_mean, y_mean = sx / sw, sy / sw
    dx = x - x_mean[..., None]
    sxx_c, sxy_c = (w * dx * dx).sum(-1), (w * dx * (y - y_mean[..., None])).sum(-1)
    b, c = np.empty((5, *sxx.shape)), np.empty((5, *sxx.shape))
    b[0] = _clipped_ratio(sxy_c, sxx_c, 1.0)
    c[0] = y_mean - b[0] * x_mean
    b[1], c[1] = 0.0, np.minimum(np.maximum(y_mean, 0.0), 1.0)
    b[2], c[2] = 1.0, np.minimum(np.maximum(y_mean - x_mean, 0.0), 1.0)
    b[3], c[3] = _clipped_ratio(sxy, sxx, 1.0), 0.0
    b[4], c[4] = _clipped_ratio(sxy - sx, sxx, 1.0), 1.0
    free = (sxx_c > 0) & (sxy_c >= 0) & (sxy_c <= sxx_c) & (c[0] >= 0) & (c[0] <= 1)
    residuals = y - b[..., None] * x - c[..., None]
    cost = (w * residuals * residuals).sum(-1)
    cost[0] = np.where(free, cost[0], np.inf)
    pick = np.argmin(cost, axis=0)
    return np.choose(pick, cost), (np.choose(pick, b), np.choose(pick, c))


LINEAR_FIT_ORACLES = {"standard": amplitude_fit_oracle,
                      "leakage": intercept_asymptote_fit_oracle}

#: each refinement of the oracle re-grids the bracket with this many evenly
#: spaced points and keeps the best point's two neighbours: the bracket
#: shrinks eightfold
_ZOOM = np.linspace(0.0, 1.0, 17)
#: refinements: they shrink a bracket of two coarse spacings to about 1e-13
#: of its exponent
_ZOOM_STEPS = 14


def profile_fit_oracle(law: str, lengths, means, sems) -> tuple[np.ndarray, ...]:
    """Bounded weighted least squares of one decay law on every lane at once.

    An earlier ``rb._profile_fit``, kept as the oracle of the current one:
    it solves the linear parameters in residual form (``LINEAR_FIT_ORACLES``)
    and scores the coarse grid that way, one (lanes, points, lengths) array
    per block of ``rb._GRID_LANES`` lanes, where the package works from each
    lane's weighted sums, and it refines the bracket with ``_ZOOM_STEPS``
    rounds of a ``_ZOOM`` grid, where the package bisects on the slope of
    the profiled cost.  The final pick is the package's.

    Variable projection: given the decay rate ``r``, the law is linear in
    its other parameters, which have a closed form.
    The profiled cost is searched over ``r`` in [1e-9, 1]: a coarse grid in
    ``-ln r`` brackets its global minimum, finer grids on the bracket
    refine it, and the cheapest of that result, the best coarse point and
    both bounds wins (a tie goes to rate 1, then the floor, then the coarse
    point).  ``means`` and ``sems`` are (lanes, lengths) arrays; returns the
    law's parameters, rate last, as (lanes,) arrays.  A lane with
    non-finite statistics gets non-finite parameters.
    """
    w = rb._lane_weights(sems)
    linear_fit = LINEAR_FIT_ORACLES[law]
    exponents = lengths + rb._LAWS[law].exponent_offset

    def profile(exponent, y, w):
        rate = np.clip(np.exp(-exponent), rb._RATE_FLOOR, 1.0)
        cost, params = linear_fit(rate[..., None] ** exponents, y, w)
        return cost, (*params, rate)

    def best_of(exponent, block=slice(None)):  # exponent: points or (lanes, points)
        cost = profile(exponent, means[block, None], w[block, None])[0]
        return np.argmin(cost, axis=-1)

    n = len(means)
    coarse = np.concatenate([best_of(rb._GRID, slice(i, i + rb._GRID_LANES))
                             for i in range(0, n, rb._GRID_LANES)])
    lo = rb._GRID[np.maximum(coarse - 1, 0)]
    hi = rb._GRID[np.minimum(coarse + 1, rb._GRID.size - 1)]
    lanes = np.arange(n)
    for _ in range(_ZOOM_STEPS):
        points = lo[:, None] + (hi - lo)[:, None] * _ZOOM
        best = best_of(points)
        lo = points[lanes, np.maximum(best - 1, 0)]
        hi = points[lanes, np.minimum(best + 1, _ZOOM.size - 1)]
    tried = np.stack([np.full(n, rb._GRID[0]), np.full(n, rb._GRID[-1]), rb._GRID[coarse],
                      points[lanes, best]])
    cost, params = profile(tried, means, w)
    pick = np.argmin(cost, axis=0)
    return tuple(np.choose(pick, p) for p in params)


def _rate_guess(lengths, excess, lo: float, hi: float, default: float) -> float:
    """Per-step decay rate of ``excess`` (means above the asymptote) from its ends."""
    first, last = excess[0], excess[-1]
    if first > 1e-12 and last > 1e-12 and lengths[-1] > lengths[0]:
        return float(np.clip((last / first) ** (1.0 / (lengths[-1] - lengths[0])),
                             lo, hi))
    return default


def curve_fit_decay(law: str, lengths, means, sems, ls_ratio: float = 1.0,
                    tol: float = 1e-8) -> list[float]:
    """One bounded, SEM-weighted ``curve_fit`` of a decay law from a guessed start.

    ``law`` is ``"standard"`` (returns amplitude, base) or ``"leakage"``
    (intercept, asymptote, t_minus).  The start point comes from the ends
    of the data and, for the leakage law, from ``ls_ratio`` through
    ``C0 = 1/(2(1+ratio))``; the solver is local, so it can stop at a local
    optimum.  Unweighted when any SEM is zero.  ``tol`` is the solver's
    ``ftol``, ``xtol`` and ``gtol``; at the default 1e-8 its parameters
    can be 1e-8 off its own optimum.
    """
    lengths, means, sems = (np.asarray(v, dtype=float) for v in (lengths, means, sems))
    if law == "standard":
        model, bounds = rb.standard_decay, ([0.0, 1e-9], [0.75, 1.0])
        excess = means - 0.5
        base0 = _rate_guess(lengths, excess, 1e-6, 1.0, 0.9)
        p0 = [float(np.clip(excess[0] / base0 ** lengths[0] if excess[0] > 0 else 0.4,
                            1e-6, 0.75)), base0]
    else:
        model, bounds = rb.leakage_decay, ([0.0, 0.0, 1e-9], [1.0, 1.0, 1.0])
        c0 = 1.0 / (2.0 * (1.0 + ls_ratio))
        p0 = [0.5 - c0, c0, _rate_guess(lengths, means - c0, 1e-3, 1.0 - 1e-9, 0.95)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, _ = curve_fit(model, lengths, means, p0=p0,
                            sigma=None if np.any(sems <= 0) else sems,
                            bounds=bounds, maxfev=20000, ftol=tol, xtol=tol, gtol=tol)
    return [float(v) for v in popt]


def weighted_cost(law: str, lengths, means, sems, params) -> float:
    """``sum ((mean - model) / sem)**2``, or unweighted when any SEM is zero.

    Evaluated in 40-digit decimal arithmetic from the exact float inputs:
    in float64 the rounding of small residuals (about 1e-12 of a cost near
    1e-8 with means near 1) would decide comparisons at a 1e-12 slack.
    """
    with decimal.localcontext(decimal.Context(prec=40)):
        p = [decimal.Decimal(float(v)) for v in params]
        weighted = all(float(s) > 0 for s in sems)
        total = decimal.Decimal(0)
        for length, mean, sem in zip(lengths, means, sems):
            n = int(length)
            assert n == length
            if law == "standard":
                model = p[0] * p[1] ** n + decimal.Decimal("0.5")
            else:
                model = p[0] * p[2] ** (n + 1) + p[1]
            r = decimal.Decimal(float(mean)) - model
            total += r * r / (decimal.Decimal(float(sem)) ** 2 if weighted else 1)
        return float(total)


def focus_oracle(sequences, interleaved_ops, initial_state: int,
                 model: rb.FocusModel, shots: int, seed=None) -> np.ndarray:
    """Per-sequence focus trajectories: the table ``rb.simulate_focus`` returns.

    Each sequence runs as its own ``(shots,)`` arrays, drawing its random
    numbers before the next sequence starts.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for seq in sequences:
        state = np.full(shots, initial_state, dtype=np.int8)
        ideal = np.full(shots, initial_state, dtype=np.int8)
        if model.prep_flip > 0:
            flip = rng.random(shots) < model.prep_flip
            state[flip] ^= 1
        for slot in range(1, seq.length + 1):
            meas_index = 0
            for op in interleaved_ops:
                if op == "measure":
                    if model.depump_per_measure > 0:
                        drop = (state == 1) & (rng.random(shots) < model.depump_per_measure)
                        state[drop] = 0
                    confusion = np.where(state == 1, model.bright_to_dark,
                                         model.dark_to_bright)
                    outcome = np.where(rng.random(shots) < confusion, 1 - state, state)
                    rows.append((seq.length, seq.seq_id, slot, meas_index, shots,
                                 int(np.sum(outcome != ideal))))
                    meas_index += 1
                elif op == "reset":
                    keep = rng.random(shots) < model.reset_error
                    state = np.where(keep, state, 0).astype(np.int8)
                    ideal = np.zeros(shots, dtype=np.int8)
                elif op == "x_pi":
                    state = (1 - state).astype(np.int8)
                    ideal = (1 - ideal).astype(np.int8)
                elif op == "random_su2":
                    ideal = rng.integers(0, 2, shots).astype(np.int8)
                    state = ideal.copy()
    return np.array(rows, dtype=np.int64).reshape(-1, len(rb.FOCUS_HEADER))

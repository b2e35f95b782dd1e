"""Shared test helpers: independent oracles and synthetic channel factories.

The all-sequences survival average here accumulates the running Clifford
product exactly; the package's closed-form ``rb.decay_coefficients`` must
match it.  The record-based bootstrap here rebuilds every resample as a
dataset of the drawn records; the package's per-length fraction-table
bootstrap must reproduce its per-resample statistics draw for draw.  The
per-probe analysis here fits each probe's point lanes and its resamples in
calls of their own; the package fits every lane of a campaign's law in one
batch and must give every probe the same fits and bootstrap bit for bit.  The
``curve_fit`` fits here are a local solver from a guessed start point; the
package's variable-projection fits must reach an equal or lower weighted
cost.  The profile fit here solves each law's linear part in residual form
(one residual array per candidate) and refines its rate bracket on zoom
grids; the package solves the linear part from weighted sums and finds the
root of the profiled cost's slope, and must reach an equal or lower cost, with
the same parameters wherever the two costs do not tie.  Costs are compared
in 40-digit decimal arithmetic (``weighted_cost``), so float64 rounding of
small residuals does not decide a comparison.  The bisection here halves
each lane's bracket 30 times on the sign of that slope; the package's
interpolating root search takes fewer steps and must reach no higher cost
(``assert_cost_within_slack``).  The ``csv.writer`` row writers here format
one cell at a time; the package's one-pass writers must write the same
bytes.  The per-sequence focus simulation here runs one trajectory array
per sequence; the package's per-length batched ``rb.simulate_focus`` must
return the same table whenever no random draw decides it, and the same
statistics otherwise.  The sequence draws here take one ``rng.integers``
call and one element-by-element inversion fold per sequence, the survival
here propagates one sequence at a time, and the SPAM report here groups by
row-wise ``np.unique``; the package draws, folds and propagates a length at
a time and groups by one sorted key, and must return equal records, leave
the generator in the same state, give bit-equal probabilities and equal
report entries.
The Lindblad oracle here intentionally uses a different construction from
the package (one 16x16 generator exponential in the column-stacked basis
instead of a 4x4 population exponential plus analytic coherence factors),
so agreement is a genuine cross-check.  The gate oracle here conjugates
every basis operator by the unitary; the package's ``liouville.embed_gate``
changes basis once from the column-stacked ``kron`` form.  The scipy
oracles (``scipy.linalg.expm``, ``scipy.special.jv``, ``brentq`` on ``J_0``
and the ``curve_fit`` depump fit) are the routes the package used before
its runtime dropped scipy; its numpy routes must reproduce them.
"""
from __future__ import annotations

import csv
import decimal
import math
import warnings

import numpy as np
from scipy import special
from scipy.linalg import expm
from scipy.optimize import OptimizeWarning, brentq, curve_fit

from mcmr import channels, clifford, liouville, micromotion, rb, varpro
from mcmr.errors import FitError


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
    """Superoperator of a block-diagonal unitary (:func:`unitary_superop_oracle`)."""
    u4 = np.zeros((liouville.DIM, liouville.DIM), dtype=complex)
    u4[:2, :2] = qubit_unitary
    u4[2:, 2:] = np.eye(2) if extra_unitary is None else extra_unitary
    return unitary_superop_oracle(u4)


def unitary_superop_oracle(u4) -> np.ndarray:
    """Superoperator of a 4x4 unitary, one conjugated basis operator per
    column: ``M[i, k] = Tr(B_i^dag U B_k U^dag)``."""
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


def resample_stats(dataset: rb.RBDataset, n_resamples: int, rng) -> np.ndarray:
    """The package's bootstrap statistics of ``dataset``: lanes 1 on of
    ``rb._lane_stats``, shape ``(4, n_resamples, lengths)``."""
    return rb._lane_stats(rb._fraction_tables(dataset), n_resamples, rng)[:, 1:]


def record_resample_stats(dataset: rb.RBDataset, n_resamples: int, seed) -> np.ndarray:
    """Record-based bootstrap statistics, stacked as ``resample_stats`` returns them.

    The draws come in the package's order: per block of ``rb._RESAMPLE_BLOCK``
    resamples and per length, one (resamples, sequences) array of picks.
    Every resample is rebuilt as a new dataset of the picked records, taken
    as they are, and its statistics come from the record properties.
    """
    rng = np.random.default_rng(seed)
    groups = [group for _, group in sorted(dataset.by_length().items())]
    lanes = []
    for start in range(0, n_resamples, rb._RESAMPLE_BLOCK):
        resamples = [[] for _ in range(min(rb._RESAMPLE_BLOCK, n_resamples - start))]
        for group in groups:
            picks = rng.integers(0, len(group), (len(resamples), len(group)))
            for records, row in zip(resamples, picks):
                records.extend(group[j] for j in row)
        for records in resamples:
            resampled = rb.RBDataset(tuple(records))
            correct = record_stats(resampled, lambda r: r.correct_fraction)
            dark = record_stats(resampled, lambda r: r.dark_fraction)
            lanes.append([[s.mean for s in correct], [s.sem for s in correct],
                          [s.mean for s in dark], [s.sem for s in dark]])
    return np.array(lanes).transpose(1, 0, 2)


def per_probe_analysis_oracle(dataset: rb.RBDataset, resamples: int, seed) -> rb.AnalysisResult:
    """``rb.analyze_dataset`` as it ran before a campaign's lanes were fitted
    together: the point fits one lane at a time (``rb.fit_standard``,
    ``rb.fit_leakage``), then the probe's resamples alone, one
    ``varpro.profile_fit`` batch per law, and the bootstrap summary from them."""
    correct, dark = rb.per_length_stats(dataset)
    std, leak = rb.fit_standard(correct), rb.fit_leakage(dark)
    boot = None
    if resamples:
        stats = resample_stats(dataset, resamples, np.random.default_rng(seed))
        lengths = np.array(dataset.lengths, dtype=float)
        values = {}
        for law, means, sems in (("standard", *stats[:2]), ("leakage", *stats[2:])):
            spec = rb._LAWS[law]
            values.update(zip(spec.params, varpro.profile_fit(spec, lengths, means, sems)))
        values["leakage"], values["seepage"] = (2.0 * values[k] * (1.0 - values["t_minus"])
                                                for k in ("intercept", "asymptote"))
        values["epsilon"] = rb.average_error(values["base"], values["leakage"])
        est = rb.scattering_estimates(values["base"], values["t_minus"])
        values["scattering_standard"], values["scattering_leakage"] = est.standard, est.leakage
        ok = np.all([np.isfinite(v) for v in values.values()], axis=0)
        failures = resamples - int(ok.sum())
        if failures > rb.BOOTSTRAP_FAILURE_BUDGET * resamples:
            raise FitError(f"bootstrap unstable: {failures}/{resamples} refits failed")
        samples = {k: values[k][ok] for k in rb._BOOTSTRAP_FIELDS}
        boot = rb.BootstrapResult(
            n_resamples=resamples, failures=failures,
            sigmas={k: float(a.std(ddof=1)) for k, a in samples.items()}, samples=samples,
            at_bound={k: int(np.isin(samples[k], bounds).sum())
                      for k, bounds in rb.PARAMETER_BOUNDS.items()},
            unidentified=int(np.sum(samples["intercept"] == 0.0)))
    return rb.AnalysisResult(
        standard=std, leakage_fit=leak, epsilon=rb.average_error(std.base, leak.leakage),
        scattering=rb.scattering_estimates(std.base, leak.t_minus), bootstrap=boot,
        lengths=dataset.lengths, sequences_per_length={s.length: s.n_sequences for s in correct},
        shots=tuple(sorted({r.shots for r in dataset.records})))


def assert_same_analysis(a: rb.AnalysisResult, b: rb.AnalysisResult) -> None:
    """Equal fits, estimates and bootstraps, every sample bit for bit."""
    assert (a.standard, a.leakage_fit, a.epsilon, a.scattering) == (
        b.standard, b.leakage_fit, b.epsilon, b.scattering)
    assert a.to_dict() == b.to_dict()
    assert (a.bootstrap is None) == (b.bootstrap is None)
    if a.bootstrap is not None:
        for name in ("n_resamples", "failures", "sigmas", "at_bound", "unidentified"):
            assert getattr(a.bootstrap, name) == getattr(b.bootstrap, name), name
        assert list(a.bootstrap.samples) == list(b.bootstrap.samples)
        for name, values in a.bootstrap.samples.items():
            np.testing.assert_array_equal(values, b.bootstrap.samples[name], strict=True)


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

    An earlier ``varpro.profile_fit``, kept as the oracle of the current one:
    it solves the linear parameters in residual form (``LINEAR_FIT_ORACLES``)
    and scores the coarse grid that way, one (lanes, points, lengths) array
    per block of ``GRID_LANES`` lanes, where the package works from each
    lane's weighted sums, and it refines the bracket with ``_ZOOM_STEPS``
    rounds of a ``_ZOOM`` grid, where the package searches for the root of
    the profiled cost's slope.  The final pick is the package's.

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
    w = varpro._lane_weights(sems)
    linear_fit = LINEAR_FIT_ORACLES[law]
    exponents = lengths + rb._LAWS[law].exponent_offset

    def profile(exponent, y, w):
        rate = np.clip(np.exp(-exponent), varpro.RATE_FLOOR, 1.0)
        cost, params = linear_fit(rate[..., None] ** exponents, y, w)
        return cost, (*params, rate)

    def best_of(exponent, block=slice(None)):  # exponent: points or (lanes, points)
        cost = profile(exponent, means[block, None], w[block, None])[0]
        return np.argmin(cost, axis=-1)

    n = len(means)
    coarse = np.concatenate([best_of(varpro._GRID, slice(i, i + GRID_LANES))
                             for i in range(0, n, GRID_LANES)])
    lo = varpro._GRID[np.maximum(coarse - 1, 0)]
    hi = varpro._GRID[np.minimum(coarse + 1, varpro._GRID.size - 1)]
    lanes = np.arange(n)
    for _ in range(_ZOOM_STEPS):
        points = lo[:, None] + (hi - lo)[:, None] * _ZOOM
        best = best_of(points)
        lo = points[lanes, np.maximum(best - 1, 0)]
        hi = points[lanes, np.minimum(best + 1, _ZOOM.size - 1)]
    tried = np.stack([np.full(n, varpro._GRID[0]), np.full(n, varpro._GRID[-1]),
                      varpro._GRID[coarse], points[lanes, best]])
    cost, params = profile(tried, means, w)
    pick = np.argmin(cost, axis=0)
    return tuple(np.choose(pick, p) for p in params)


#: halvings of the bisection oracle's bracket: a bracket of two coarse
#: spacings (a fifth of its exponent) shrinks to about 2e-10 of its exponent
BISECTIONS = 30


def best_linear_fit(spec: varpro.Law, x, y, w):
    """``spec.linear_fit`` of ``x = rate**e`` reduced to its fit: the first
    cheapest candidate's (lanes, points) cost and linear parameters."""
    cost, params = varpro._stacked(spec.linear_fit(spec.terms(x), spec.lanes(y, w)))
    k = np.argmin(cost, axis=0)
    return np.choose(k, cost), tuple(np.choose(k, p) for p in params)


#: lanes per block of the stacked coarse grid, and (grid point, length)
#: pairs scored at once
GRID_LANES = 16
GRID_BLOCK = 1 << 20


def stacked_coarse_grid_oracle(spec: varpro.Law, exponents, means, w) -> np.ndarray:
    """``varpro._coarse_grid`` as it was before it scored candidates one at a
    time: every block of ``GRID_LANES`` lanes forms the (K, lanes, points)
    cost stack of the law's candidates at every rate, ``x = rate**e`` and its
    rate-only terms again per block, and keeps each point's cheapest cost.
    The package must pick the same point on every lane."""
    step = max(1, GRID_BLOCK // exponents.size)
    rates = [np.clip(np.exp(-varpro._GRID[j:j + step]), varpro.RATE_FLOOR, spec.ceiling)[:, None]
             for j in range(0, varpro._GRID.size, step)]
    return np.concatenate([np.argmin(np.concatenate([
        varpro._stacked(spec.linear_fit(spec.terms(r ** exponents), spec.lanes(
            means[i:i + GRID_LANES], w[i:i + GRID_LANES])))[0].min(0)
        for r in rates], axis=-1), axis=-1) for i in range(0, len(means), GRID_LANES)])


def profile_slope(spec: varpro.Law, lengths, means, w, params) -> np.ndarray:
    """``varpro._profile_slope`` at ``params``: the linear parameters, then the rate."""
    *linear, rate = params
    exponents = lengths + spec.exponent_offset
    return varpro._profile_slope(spec, exponents, rate[..., None] ** exponents, means, w, linear)


def law_value(spec: varpro.Law, lengths, params):
    """The law at ``lengths`` (last axis) for ``params``, the rate last, each
    with a trailing axis."""
    *linear, rate = params
    return spec.model(rate ** (lengths + spec.exponent_offset), *linear)


def bisection_profile_fit_oracle(spec: varpro.Law, lengths, means, sems) -> tuple[np.ndarray, ...]:
    """``varpro.profile_fit`` as it was before its interpolating root search:
    the coarse grid's bracket halved ``BISECTIONS`` times on the sign of the
    profiled cost's slope, one midpoint per lane and step, then the same
    final pick.  The package must reach no higher cost on any lane."""
    w = varpro._lane_weights(sems)
    exponents = lengths + spec.exponent_offset

    def clipped(exponent):
        return np.clip(np.exp(-exponent), varpro.RATE_FLOOR, spec.ceiling)

    def solve(exponent):
        rate = clipped(exponent)
        return (*best_linear_fit(spec, rate[..., None] ** exponents, means, w)[1], rate)

    n = len(means)
    coarse = stacked_coarse_grid_oracle(spec, exponents, means, w)
    lo = varpro._GRID[np.maximum(coarse - 1, 0)]
    hi = varpro._GRID[np.minimum(coarse + 1, varpro._GRID.size - 1)]
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        params = [p[:, 0] for p in solve(mid[:, None])]
        rising = profile_slope(spec, lengths, means, w, params) > 0
        lo, hi = np.where(rising, lo, mid), np.where(rising, mid, hi)
    tried = np.stack([np.full(n, varpro._GRID[0]), np.full(n, varpro._GRID[-1]),
                      varpro._GRID[coarse], 0.5 * (lo + hi)], axis=-1)
    params = solve(tried)
    r = means[:, None] - law_value(spec, lengths, [p[..., None] for p in params])
    pick = np.argmin((w[:, None] * r * r).sum(-1), axis=-1)[:, None]
    return tuple(np.take_along_axis(p, pick, -1)[:, 0] for p in params)


def chandrupatla_profile_fit_oracle(spec: varpro.Law, lengths, means,
                                    sems) -> tuple[np.ndarray, ...]:
    """``varpro.profile_fit`` as it was before it tracked the box's active set:
    the same coarse grid, Chandrupatla step, safeguards, stopping rule and
    final pick, but every step interpolates on the profiled slope, also
    through values taken from different faces of the box (leakage lanes
    whose root sits where the winning candidate changes halve about 30
    times).  Standard and depump fits, one candidate each, must equal it
    bit for bit; no leakage lane may cost more."""
    w = varpro._lane_weights(sems)
    exponents = lengths + spec.exponent_offset

    def solve(exponent, y, wy):  # (lanes, points) -> parameters, rate last, each (lanes, points)
        rate = np.clip(np.exp(-exponent), varpro.RATE_FLOOR, spec.ceiling)
        return (*best_linear_fit(spec, rate[..., None] ** exponents, y, wy)[1], rate)

    n, coarse = len(means), stacked_coarse_grid_oracle(spec, exponents, means, w)
    lo = varpro._GRID[np.maximum(coarse - 1, 0)]
    hi = varpro._GRID[np.minimum(coarse + 1, varpro._GRID.size - 1)]

    def slope(x, y, wy):  # (lanes, points) -> (lanes, points)
        return profile_slope(spec, lengths, y[:, None], wy[:, None], solve(x, y, wy))

    f_lo, f_hi = slope(np.stack((lo, hi), axis=-1), means, w).T
    root = varpro._GRID[coarse]
    run = np.flatnonzero((f_lo <= 0) & (f_hi > 0))
    # [x1, x2] is the bracket, x1 its newest point, x3 the point dropped last
    x1, x2, f1, f2, y, wy = lo[run], hi[run], f_lo[run], f_hi[run], means[run], w[run]
    t, older, old = np.full(run.size, 0.5), x2 - x1, x2 - x1
    while run.size:
        x = x1 + t * (x2 - x1)
        f = slope(x[:, None], y, wy)[:, 0]
        same = (f > 0) == (f1 > 0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x1, x2, f1, f2 = x, np.where(same, x2, x1), f, np.where(same, f2, f1)
        width = np.abs(x2 - x1)
        best = np.where(np.abs(f1) < np.abs(f2), x1, x2)
        with np.errstate(all="ignore"):  # a non-finite step halves
            tlim = varpro._XRTOL * (np.abs(best) + varpro._GRID[1]) / width
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            t = f1 / (f3 - f2) * (f3 / (f1 - f2) + (x3 - x1) / (x2 - x1) * f2 / (f3 - f1))
            fits = ((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & np.isfinite(t)
                    & (width <= 0.5 * older))  # else halve
        t = np.minimum(np.maximum(np.where(fits, t, 0.5), tlim), 1.0 - tlim)
        older, old = old, width  # the bracket's widths two steps and one step back
        done = tlim > 0.5
        if done.any():
            root[run[done]] = best[done]
            run, x1, x2, f1, f2, t, older, old, y, wy = (
                a[~done] for a in (run, x1, x2, f1, f2, t, older, old, y, wy))
    tried = np.stack([np.full(n, varpro._GRID[0]), np.full(n, varpro._GRID[-1]),
                      varpro._GRID[coarse], root], axis=-1)
    params = solve(tried, means, w)
    r = means[:, None] - law_value(spec, lengths, [p[..., None] for p in params])
    pick = np.argmin((w[:, None] * r * r).sum(-1), axis=-1)[:, None]
    return tuple(np.take_along_axis(p, pick, -1)[:, 0] for p in params)


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


def assert_cost_within_slack(cost: float, oracle_cost: float, floor: float, context=()) -> None:
    """A fit's weighted ``cost`` reaches the oracle's or lower.

    Slack: 1e-12 of the oracle's cost, plus 1e-20 of ``floor``, the
    weighted sum of squared data: the rounding floor of an exactly
    determined fit.
    """
    assert cost <= oracle_cost * (1 + 1e-12) + 1e-20 * floor, (*context, cost, oracle_cost)


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


def generate_sequences_oracle(lengths, sequences_per_length: int, seed=None,
                              balanced: bool = True) -> list:
    """Per-sequence draws: the records ``rb.generate_sequences`` returns.

    Each sequence draws its Clifford indices in its own ``rng.integers``
    call and folds its inversion gate element by element.
    """
    rng = np.random.default_rng(seed)
    sequences = []
    for length in lengths:
        if balanced:
            half = sequences_per_length // 2
            labels = list(rng.choice(rb._DARK_PAULIS, half))
            labels += list(rng.choice(rb._BRIGHT_PAULIS, half))
            labels = [labels[i] for i in rng.permutation(sequences_per_length)]
        else:
            labels = list(rng.choice(rb.PAULI_LABELS, sequences_per_length))
        for seq_id, label in enumerate(labels):
            indices = tuple(int(i) for i in rng.integers(0, clifford.GROUP_ORDER, length))
            inv = clifford.inversion_element(indices, label)
            sequences.append(rb.RBSequence(
                length=length, seq_id=seq_id, clifford_indices=indices,
                pauli=str(label), inversion_index=inv.index,
                target_outcome=clifford.target_outcome(str(label))))
    return sequences


def survival_oracle(sequences, slot_channel, spam: rb.SpamModel = rb.PERFECT_SPAM) -> np.ndarray:
    """One sequence and one matrix-vector product at a time: the dark
    probabilities ``rb.survival_dark_probabilities`` returns."""
    slot = slot_channel.matrix
    gates = clifford.superop_table()
    stepped = np.einsum("ij,njk->nik", slot, gates)
    prep = spam.prep_vector()
    effect = spam.dark_effect()
    out = np.empty(len(sequences))
    for i, seq in enumerate(sequences):
        v = prep
        for idx in seq.clifford_indices:
            v = stepped[idx] @ v
        v = gates[seq.inversion_index] @ v
        out[i] = liouville.born_probability(effect, v)
    return out


def spam_report_oracle(records) -> tuple:
    """Row-wise ``np.unique`` grouping: the entries ``rb.spam_report`` returns."""
    table = np.asarray(records, dtype=np.int64).reshape(-1, len(rb.FOCUS_HEADER))
    clusters, in_cluster = np.unique(table[:, [3, 0, 1]], axis=0, return_inverse=True)
    groups, cluster_group = np.unique(clusters[:, :2], axis=0, return_inverse=True)
    in_cluster, cluster_group = in_cluster.ravel(), cluster_group.ravel()
    counts = np.zeros((len(groups), 2), dtype=object)
    np.add.at(counts, cluster_group[in_cluster], table[:, 4:].astype(object))
    cluster_errors = np.bincount(in_cluster, weights=table[:, 5].astype(float))
    variance = np.zeros(len(groups))
    for g in range(len(groups)):
        errors = cluster_errors[cluster_group == g]
        if errors.size > 1:
            variance[g] = errors.size * errors.var(ddof=1)
    entries = []
    for meas_index in np.unique(groups[:, 0]).tolist():
        rows = groups[:, 0] == meas_index
        per_length = tuple((length, s, e, e / s) for (_, length), (s, e)
                           in zip(groups[rows].tolist(), counts[rows].tolist()))
        shots, errors = counts[rows].sum(axis=0).tolist()
        rate = errors / shots
        binomial = float(np.sqrt(max(rate * (1 - rate), 1.0 / shots) / shots))
        sigma = max(binomial, float(np.sqrt(variance[rows].sum())) / shots)
        entries.append(rb.SpamReportEntry(meas_index, shots, errors, rate, sigma,
                                          per_length))
    return tuple(entries)


def focus_oracle(sequences, interleaved_ops, initial_state: int,
                 model: rb.FocusModel, shots: int, seed=None) -> np.ndarray:
    """Per-sequence focus trajectories: the table ``rb.simulate_focus`` returns.

    Each sequence runs as its own ``(shots,)`` arrays, drawing its random
    numbers before the next sequence starts, and only for a probability
    above 0.
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
                    outcome = state
                    if model.dark_to_bright > 0 or model.bright_to_dark > 0:
                        confusion = np.where(state == 1, model.bright_to_dark,
                                             model.dark_to_bright)
                        outcome = np.where(rng.random(shots) < confusion, 1 - state, state)
                    rows.append((seq.length, seq.seq_id, slot, meas_index, shots,
                                 int(np.sum(outcome != ideal))))
                    meas_index += 1
                elif op == "reset":
                    keep = (rng.random(shots) < model.reset_error if model.reset_error > 0
                            else np.zeros(shots, dtype=bool))
                    state = np.where(keep, state, 0).astype(np.int8)
                    ideal = np.zeros(shots, dtype=np.int8)
                elif op == "x_pi":
                    state = (1 - state).astype(np.int8)
                    ideal = (1 - ideal).astype(np.int8)
                elif op == "random_su2":
                    ideal = rng.integers(0, 2, shots).astype(np.int8)
                    state = ideal.copy()
    return np.array(rows, dtype=np.int64).reshape(-1, len(rb.FOCUS_HEADER))


# ---------------------------------------------------------------------------
# the scipy routes of earlier versions


def carrier_null_oracle(bracket) -> float:
    """``brentq`` on ``scipy.special.j0``, as ``micromotion.carrier_null_index`` was."""
    return float(brentq(special.j0, *bracket, xtol=1e-14, rtol=8.9e-16))


def fit_depump_oracle(times, fractions, shots=None, free_amplitude=False, tol=None):
    """``(gamma, gamma_sigma, amplitude, amplitude_sigma)`` of the ``curve_fit``
    depump fit ``micromotion.fit_depump`` was, from its half-rise start guess;
    ``tol`` sets ``ftol``, ``xtol`` and ``gtol`` (scipy's defaults, 1e-8, then)."""
    t, f = np.asarray(times, dtype=float), np.asarray(fractions, dtype=float)
    sigma = None
    if shots is not None:
        sigma = micromotion._depump_sigma(f, np.broadcast_to(float(shots), t.shape))
    a0 = max(float(f.max()), 1e-3) if free_amplitude else micromotion.BRIGHT_ASYMPTOTE
    above = np.nonzero(f >= 0.5 * a0)[0]
    t_half = t[above[0]] if above.size and t[above[0]] > 0 else max(float(np.median(t)), 1e-12)
    p0 = [math.log(2.0) / (3.0 * t_half)] + ([a0] if free_amplitude else [])
    bounds = ([0.0, 0.0], [np.inf, 1.0]) if free_amplitude else (0.0, np.inf)

    def curve(t, gamma, amplitude=micromotion.BRIGHT_ASYMPTOTE):
        return amplitude * (1.0 - np.exp(-3.0 * gamma * t))

    tols = {} if tol is None else {"ftol": tol, "xtol": tol, "gtol": tol}
    popt, pcov = curve_fit(curve, t, f, p0=p0, sigma=sigma, absolute_sigma=sigma is not None,
                           bounds=bounds, maxfev=10000, **tols)
    sigmas = np.sqrt(np.diag(pcov))
    if free_amplitude:
        return popt[0], sigmas[0], popt[1], sigmas[1]
    return popt[0], sigmas[0], micromotion.BRIGHT_ASYMPTOTE, 0.0


# ---------------------------------------------------------------------------
# the row-by-row CSV writers of earlier versions


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_scan_csv_oracle(path, config, nulls, displacements, indices, suppression) -> None:
    """``scan.csv`` as ``mcmr scan`` wrote it, one ``csv.writer`` row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for name, index in zip(("first", "second"), nulls):
            fh.write(f"# {name}_null_modulation_index={_fmt(index)}\n")
            fh.write(f"# {name}_null_displacement_m="
                     f"{_fmt(micromotion.displacement_for_index(config, index))}\n")
        writer = csv.writer(fh)
        writer.writerow(("displacement_m", "modulation_index", "suppression"))
        for d, n, s in zip(displacements, indices, suppression):
            writer.writerow((_fmt(d), _fmt(n), _fmt(s)))


def write_depump_csv_oracle(path, times, shots: int, counts) -> None:
    """``depump_samples.csv`` as ``mcmr depump`` wrote it, one ``csv.writer`` row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time_s", "shots", "dark_counts", "dark_fraction"))
        for t, d in zip(times, counts):
            writer.writerow((_fmt(t), shots, int(d), _fmt(d / shots)))


def write_dataset_csv_oracle(dataset, path) -> None:
    """A dataset CSV as ``rb.RBDataset.to_csv`` wrote it, one ``csv.writer`` row at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rb.DATASET_HEADER)
        for r in dataset.records:
            writer.writerow([r.length, r.seq_id, r.pauli, r.target_outcome,
                             r.shots, r.dark_counts, r.bright_counts])


def write_focus_csv_oracle(records, path) -> None:
    """A focus CSV as ``rb.write_focus_csv`` wrote it, through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rb.FOCUS_HEADER)
        writer.writerows(np.asarray(records, dtype=np.int64).tolist())

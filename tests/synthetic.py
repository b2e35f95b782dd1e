"""Shared test helpers: independent oracles and synthetic channel factories.

The all-sequences survival average here accumulates the running Clifford
product exactly; the package's closed-form ``rb.decay_coefficients`` must
match it.  The record-based bootstrap here rebuilds every resample as records, one
scalar binomial draw each; the package's per-length array bootstrap must
reproduce it draw for draw.  The Lindblad oracle here intentionally uses a
different construction from the package (one 16x16 generator exponential in
the column-stacked basis instead of a 4x4 population exponential plus
analytic coherence factors), so agreement is a genuine cross-check.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import expm

from mcmr import channels, clifford, liouville, rb
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
    parts.append(channels.LeakageChannel(phase_q, kind="qubit-phase"))
    parts.append(channels.LeakageChannel(phase_e, kind="extra-phase"))
    q = float(rng.uniform(0.0, 0.3))
    z4 = np.diag([1.0, -1.0, 1.0, 1.0])
    dephase = liouville.kraus_to_superop(
        [np.sqrt(1 - q) * np.eye(4), np.sqrt(q) * z4])
    parts.append(channels.LeakageChannel(dephase, kind="dephase"))
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


def record_bootstrap(dataset: rb.RBDataset, n_resamples: int, seed,
                     ls_ratio: float = 1.0) -> tuple[int, dict]:
    """Record-based bootstrap: ``(failures, samples)`` as ``rb.bootstrap_analysis``.

    Every resample is rebuilt as a new dataset of records (one
    ``dataclasses.replace`` and one scalar binomial draw per chosen record)
    and the fit inputs come from the record properties.  The fits are the
    package's, called through the module like the bootstrap calls them.
    """
    rng = np.random.default_rng(seed)
    groups = dataset.by_length()
    samples = {k: [] for k in rb._BOOTSTRAP_FIELDS}
    failures = 0
    for _ in range(n_resamples):
        records = []
        for _, group in sorted(groups.items()):
            picks = rng.integers(0, len(group), len(group))
            for j in picks:
                r = group[j]
                dark = int(rng.binomial(r.shots, r.dark_counts / r.shots))
                records.append(dataclasses.replace(r, dark_counts=dark))
        resampled = rb.RBDataset(tuple(records))
        try:
            std = rb.fit_standard(record_stats(resampled,
                                               lambda r: r.correct_fraction))
            leak = rb.fit_leakage(record_stats(resampled, lambda r: r.dark_fraction),
                                  ls_ratio=ls_ratio)
        except FitError:
            failures += 1
            continue
        est = rb.scattering_estimates(std.base, leak.t_minus)
        samples["amplitude"].append(std.amplitude)
        samples["base"].append(std.base)
        samples["intercept"].append(leak.intercept)
        samples["asymptote"].append(leak.asymptote)
        samples["t_minus"].append(leak.t_minus)
        samples["leakage"].append(leak.leakage)
        samples["seepage"].append(leak.seepage)
        samples["epsilon"].append(rb.average_error(std.base, leak.leakage))
        samples["scattering_standard"].append(est.standard)
        samples["scattering_leakage"].append(est.leakage)
    return failures, {k: np.array(v) for k, v in samples.items()}

"""The dense spectrum without eigenvectors, from the r x r self-energy
problem.

`closed_form_spectrum` serves every coupling of rank r >= 2 after
`spectral._deflate` has taken its exact degeneracies out, on that reduced
model: it counts the energies between adjacent mode frequencies by inertia
(Haynsworth), brackets them with the secular route's bracket builder
(`spectral._brackets`), refines each on its branch with the secular
route's safeguarded rational iteration (`spectral._iterate`, which returns
each energy's offset at its last evaluation, as on the secular route), and
takes the spin rows of the eigenvectors from M(E) at that offset. As on
the secular route, one evaluate (`_branch_evaluate`) serves both the
bracket builder's midpoint probe, whose f_v = v^H M(E) v has the sign of
the energy's branch of the self-energy M(E), and every step. The pole-row
kernel of both routes, `spectral._pole_row` at numer = -1, forms the row
1 / (E - omega_k) of every one of these passes with the pole of its origin
left out, which a pass that needs it puts back; `_self_energy` forms M(E)
from that row; and one chunk loop, `spectral._in_chunks`, runs each of
them (the count, every step with the probe among them, the eigenvectors
and the overlaps of the certificate) in row chunks and hands each chunk
its (rows x modes) scratch arrays, which a pass names by dtype, with its
most rows, and the loop allocates once. It never forms a d x d matrix:
O(d N_b r^2) time and O(chunk N_b) memory. Its pole sums stay dense on an
evenly spaced bath too: the secular route's near/far sums, carried over
to the r^2 entries of M(E), moved the certificate's verdict on near-dark
models at its overlap bound both ways.
It certifies its result or raises DiagonalizationError, on which
`dynamics._reduced_spectrum` falls back to `spectral.diagonalize`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import ModelParams
from .spectral import (
    _CLUSTER_ULPS,
    _EPS,
    DiagonalizationError,
    _assemble,
    _Brackets,
    _brackets,
    _deflate,
    _Deflated,
    _in_chunks,
    _iterate,
    _pole_row,
)

__all__ = ["closed_form_spectrum"]

#: certificate of the closed form (chosen by measurement, see
#: closed_form_spectrum), the first in units of eps * ||H||
_PHASE_ULPS = 2
_OVERLAP_TOL = 5e-14


def closed_form_spectrum(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of build_h1(params), ascending, and the N x d spin block
    of matching eigenvectors, without forming any d x d matrix: the closed
    form of the problem that spectral._deflate reduces the model to, at any
    rank r, with the dark and pinned eigenpairs appended (spectral._assemble).

    With the reduced problem's coupling rows G (N_b' x r, distinct
    frequencies Omega, each row above the deflation threshold), an
    eigenvector [v; b] of energy E has b = (E - Omega)^-1 G v and
    M(E) v = 0, where M(E) = (E - epsilon) I - G^H (E - Omega)^-1 G is the
    r x r self-energy problem of the bordered matrix (Arbenz, Gander &
    Golub, Linear Algebra Appl. 104, 1988). The eigenvector's squared norm
    is K = 1 + ||b||^2, so its spin column is v / sqrt(K). Between two
    adjacent frequencies the sorted eigenvalues mu_1(E) <= ... <= mu_r(E)
    of M rise with slope at least 1, so each crosses zero at most once
    there. The energies are found in three steps:

    - count (_count): by Haynsworth inertia additivity (Linear Algebra
      Appl. 1, 1968), #{E_j < omega_k} = (k - 1) + #{positive eigenvalues of
      B_k = [[A_k, u_k], [u_k^H, 0]]}, where A_k is M(omega_k) without the
      pole of mode k and u_k = conj(g_k). The counts give the number of
      energies in each gap between adjacent frequencies (and below the
      lowest and above the highest) and the branch mu_i that vanishes at
      each (spectral._brackets, the secular route's bracket builder);
    - start: tau_k = u_k^H A_k^-1 u_k, the first-order offset from omega_k
      of the energy attached to it, taken to second order (_count), where it
      lands in the half of a one-energy gap on its own side; otherwise the
      middle of the half of the gap that the sign of the branch at the
      gap's midpoint picks (the probe of spectral._brackets, one call of
      _branch_evaluate, whose f_v there has that sign; an outer energy
      starts mid-bracket);
    - refine (_iterate): each energy is held as an offset tau from the pole
      of its half, every difference E - omega_k formed as tau - delta_k
      (as in the secular iteration), and takes the safeguarded steps of
      _iterate on f_v(E) = E - epsilon - sum_k |(G v)_k|^2 / (E - omega_k),
      whose value and slope K match mu_i's at the iterate, with v the
      branch's eigenvector from a batched r x r eigh there; the sign of
      mu_i keeps the bracket. Each energy keeps its last evaluation, where
      the step had fallen to a few ulp of tau. Its eigenvector is then
      formed at that energy, deflated of the pole it is held from where
      that is the more accurate (_branch_roots).

    The result is certified in O(d N_b r), so that NaN fails, or
    DiagonalizationError is raised. With r_j = (H - E_j) phi_j the residual
    of the normalized eigenvector phi_j, formed from E_j and the spin part
    of phi_j (see _branch_roots), v_j its spin column and mu_j its Rayleigh
    quotient less E_j:

    - completeness: every energy ends strictly inside the gap its count
      gave it, and the energies ascend at least _CLUSTER_ULPS ulp of ||H||
      apart, so they are the d eigenvalues and each eigenvector is
      determined;
    - the spin-weighted eigenvalue error sum_j |v_j|^2 |dE_j|, with |dE_j|
      at most ||r_j|| and at most |mu_j| + ||r_j||^2 / gap_j (the
      gaps to the neighbouring energies of this route), is at most
      _PHASE_ULPS ulp of ||H|| per spin direction, the order of eigh's own
      error, so that the phases of the spin propagator drift no faster than
      on the dense route;
    - the phi_j are orthonormal to _OVERLAP_TOL: any two obey
      |<phi_i|phi_j>| <= (||r_i|| + ||r_j||) / |E_i - E_j|, and the pairs
      (at most d) for which that bound exceeds _OVERLAP_TOL have their
      overlap computed.

    The d certified vectors are then an orthonormal eigenbasis, which is
    the norm guard behind p0 = 1 - p1 on this route.
    """
    model = _deflate(params)
    return _assemble(model, *_closed_form(model))


def _closed_form(model: _Deflated) -> tuple[np.ndarray, np.ndarray]:
    """The reduced problem's energies, ascending, and the r x (N_b' + r)
    spin columns of its eigenvectors in model.basis (see
    closed_form_spectrum)."""
    epsilon, r = model.epsilon, model.g.shape[1]
    if not model.omegas.size:  # no coupled mode: M(E) = (E - epsilon) I
        return np.full(r, epsilon), np.eye(r)
    size = model.omegas.size + r
    vectors = np.empty((size, r), dtype=model.g.dtype)
    evaluate = _branch_evaluate(model, vectors)

    def probe(zeros, lower, half, branch):
        # f_v = v^H M(E) v at the gap's midpoint, held from its left pole,
        # has the sign of the zero's branch there
        right = evaluate(half, model.omegas[lower], branch, zeros, lower)[0] < 0.0
        x_mid = np.where(right, -half, half)
        return right, x_mid, 0.5 * x_mid

    # an energy on a coupled frequency, or a few ulp from one, can give inf
    # and NaN: eigh refuses them, and every check is written so NaN fails
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        brackets = _brackets(model, model.norm + 1.0, probe, *_count(model))
        data = (brackets.base, brackets.branch, np.arange(size), brackets.origin)
        roots = _branch_roots(brackets, _iterate(evaluate, data, brackets), vectors, model)
        energies = roots.energies
        ulp = _EPS * max(1.0, -energies[0], energies[-1])  # of ||H||_2
        inside = np.where(
            brackets.side == 0,
            (roots.tau / brackets.delta_far > 0.0) & (np.abs(roots.tau) < np.abs(brackets.delta_far)),
            brackets.side * roots.tau > 0.0,
        )
        apart = np.diff(energies) > _CLUSTER_ULPS * ulp
        phase = _phase_error(energies, roots)
        overlap = _max_overlap(roots, model)
    if not (np.all(inside) and np.all(apart) and phase <= _PHASE_ULPS * ulp * r
            and overlap <= _OVERLAP_TOL):
        raise DiagonalizationError(
            f"closed form not certified: {np.count_nonzero(~inside)} energies outside their "
            f"counted gaps, {np.count_nonzero(~apart)} gaps under {_CLUSTER_ULPS} ulp, "
            f"spin-weighted eigenvalue error {phase:.3e}, eigenvector overlap {overlap:.3e}"
        )
    return energies, roots.columns


def _count(model: _Deflated) -> tuple[np.ndarray, np.ndarray]:
    """For each coupled frequency omega_k, #{E_j < omega_k} and the offset
    from omega_k of the energy attached to it, to second order (see
    closed_form_spectrum).

    A_k = (omega_k - epsilon) I + sum_{j != k} conj(g_j) g_j^T / (omega_j - omega_k)
    is M(omega_k) without the pole of mode k: _self_energy of the row of
    spectral._pole_row at t = 0 from omega_k with origin k, one GEMM of a
    row chunk of the Cauchy matrix 1 / (omega_k - omega_j) (diagonal 0)
    with the gg table, formed in the chunk's scratch from _in_chunks, which
    runs the chunks.
    Haynsworth additivity on the pivot A_k gives B_k the inertia of A_k
    plus that of its Schur complement -tau_k, so one batched r x r eigh
    A_k = Q diag(lambda) Q^H gives both
    tau_k = sum_i |q_i^H u_k|^2 / lambda_i and #{positive eigenvalues of
    B_k} = #{lambda_i > 0} + [tau_k < 0]. A bordered matrix with a zero
    corner and u_k != 0 has at least one eigenvalue of each sign; counts
    that break this, or that fall from one frequency to the next, and a
    singular A_k (tau_k not finite) raise DiagonalizationError. With
    M(omega_k + x) = A_k + x D_k - u_k u_k^H / x + O(x^2), the offset solves
    x = u_k^H (A_k + x D_k)^-1 u_k, and one Newton step from tau_k gives
    tau_k / (1 + z^H D_k z) with z = A_k^-1 u_k;
    D_k = I + sum_{j != k} conj(g_j) g_j^T / (omega_j - omega_k)^2 is one
    more GEMM, of the squared Cauchy chunk.
    """
    nb, n = model.g.shape

    def count(cauchy, k):
        base = model.omegas[k]
        cauchy = _pole_row(cauchy, -1.0, np.zeros(k.size), base, k, model.omegas)
        a = _self_energy(model, cauchy, base - model.epsilon)
        lam, q = np.linalg.eigh(a)
        proj = np.einsum("kai,ka->ki", q, model.g[k])  # conj(Q^H u_k)
        t = np.sum(np.abs(proj) ** 2 / lam, axis=1)
        z = np.einsum("kai,ki->ka", q, proj.conj() / lam)
        np.multiply(cauchy, cauchy, out=cauchy)
        slope = (cauchy @ model.gg).reshape(-1, n, n)  # D_k - I
        s = np.einsum("ka,kab,kb->k", z.conj(), slope, z).real + np.einsum("ka,ka->k", z.conj(), z).real
        return k + np.count_nonzero(lam > 0.0, axis=1) + (t < 0.0), t / (1.0 + s)

    below, tau = _in_chunks(nb, float, rows=nb)(count)(np.arange(nb))
    positive = below - np.arange(nb)
    if not (np.all(np.isfinite(tau)) and np.all((positive >= 1) & (positive <= n))
            and np.all(np.diff(below) >= 0)):
        raise DiagonalizationError("closed form not certified: inconsistent energy count")
    return below, tau


def _branch_evaluate(model: _Deflated, vectors: np.ndarray):
    """evaluate(tau, base, branch, position, origin) of _iterate and of the
    midpoint probe on the branches, in the row chunks of _in_chunks: at
    E = base + tau the counted branch's v, from an eigh of M(E) over the
    kernel's row with the origin's pole put back, then
    f_v(E) = E - epsilon - sum_k W_k / (E - omega_k) with W_k = |(G v)_k|^2,
    which is v^H M(E) v, the branch's eigenvalue, the sum of its pole
    terms' slopes W_k / (E - omega_k)^2 and that sum over the poles left of
    tau. Each call also stores v at the rows' positions (each energy's own
    row) in vectors, so that every energy keeps the v of its last
    evaluation, at the offset that _iterate returns, where v is exact. Its
    (rows x modes) arrays r, q and G v are the chunk's scratch from
    _in_chunks."""

    def evaluate(r, q, w, tau, base, branch, position, origin):
        rows, e_eps = np.arange(tau.size), (base - model.epsilon) + tau
        r = _pole_row(r, -1.0, tau, base, origin, model.omegas)
        r[rows, origin] = 1.0 / tau  # the origin's pole, put back
        v = np.linalg.eigh(_self_energy(model, r, e_eps))[1][rows, :, branch]
        vectors[position] = v
        np.matmul(v, model.g.T, out=w)
        if w.dtype.kind == "c":
            np.abs(w, out=q)
            w = q
        np.multiply(w, w, out=q)
        q *= r
        f = e_eps - q.sum(axis=1)
        d_all = np.einsum("ij,ij->i", q, r)
        np.maximum(q, 0.0, out=q)  # the poles left of tau
        return f, d_all, np.einsum("ij,ij->i", q, r)

    return _in_chunks(model.omegas.size, float, float, model.g.dtype, rows=len(vectors))(evaluate)


class _Roots(NamedTuple):
    """The energies and their spin columns (see _branch_roots)."""

    energies: np.ndarray  # base + tau
    columns: np.ndarray  # r x d spin columns, in the reduced basis
    shift: np.ndarray  # |mu_j|, from E_j to the Rayleigh quotient of phi_j
    residual: np.ndarray  # ||r_j||
    base: np.ndarray  # the frequency each root is held from
    tau: np.ndarray  # the offset from it
    origin: np.ndarray  # the index of that frequency
    bath: np.ndarray  # the component of phi_j on that frequency's mode


def _branch_roots(
    brackets: _Brackets, tau: np.ndarray, vectors: np.ndarray, model: _Deflated
) -> _Roots:
    """The energies base + tau, the spin columns of their eigenvectors and
    the exact residuals of these pairs (see closed_form_spectrum).

    Each eigenvector is [y; b] / c, with b_k = (g_k . y) / (E - omega_k)
    except at the energy's origin omega_o, whose component b_o is its own,
    and c the norm. It is taken deflated: y = R(E)^-1 u_o and b_o = 1, with
    R(E) = M(E) + u_o u_o^H / tau the self-energy without the origin's pole,
    which is the eigenvector wherever tau = u_o^H R(E)^-1 u_o, that is
    M(E) y = 0 (Gu & Eisenstat's remedy for the eigenvectors of a secular
    equation). Taken from the branch's v instead, y = v and b_o =
    (g_o . v) / tau, a ratio of two small numbers, carry the rounding of v,
    eps ||M(E)|| absolute, divided by tau. But R(E) is nearly singular for
    a nearly dark state, so where the deflated residual exceeds eps |E|,
    the pair with v (the row of vectors) is formed too, and the one with
    the smaller residual is kept. Either way the residual of the pair is
    [R y - u_o b_o; 0; tau b_o - g_o . y] / c (zero on the other modes by
    construction), formed without dividing by tau, and the pair's Rayleigh
    quotient lies y^H (R y - u_o b_o) + conj(b_o) (tau b_o - g_o . y), over
    c^2, from E. R(E) is _self_energy over the row of spectral._pole_row,
    which leaves the origin's pole out, and the energies run in the row
    chunks of _in_chunks, whose scratch holds each chunk's (rows x modes)
    arrays r, G y and b.
    """

    def roots(r, w, b, t, o, base, vectors):
        m, e_eps = t.size, (base - model.epsilon) + t
        r = _pole_row(r, -1.0, t, base, o, model.omegas)
        regular = _self_energy(model, r, e_eps)
        u = model.g[o].conj()
        try:
            y = np.linalg.solve(regular, u[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # an exactly singular R(E)
            y = np.full(u.shape, np.nan, dtype=u.dtype)
        b_o = np.ones(m, dtype=model.g.dtype)
        pair = _pair(y, b_o, r, o, e_eps, t, model, w, b)
        redo = np.flatnonzero(~(pair[-1] <= (_EPS * (base + t)) ** 2))
        if redo.size:
            k, v = redo.size, vectors[redo]
            b_v = np.reciprocal(t[redo]) * np.einsum("ij,ij->i", model.g[o[redo]], v)
            # the redone rows' 1 / (E - omega_k), formed again in the first
            # rows of the scratch, which the first pair no longer needs
            r_v = _pole_row(r[:k], -1.0, t[redo], base[redo], o[redo], model.omegas)
            other = _pair(v, b_v, r_v, o[redo], e_eps[redo], t[redo], model, w[:k], b[:k])
            keep = ~(other[-1] >= pair[-1][redo])  # written so that a NaN loses
            better = redo[keep]
            y[better], b_o[better] = v[keep], b_v[keep]
            for a, a_other in zip(pair, other):
                a[better] = a_other[keep]
        c2, spin, pole, res2 = pair
        quotient = np.einsum("ij,ij->i", y.conj(), spin) + b_o.conj() * pole
        return (y / np.sqrt(c2)[:, None]).T, b_o / np.sqrt(c2), np.abs(quotient) / c2, np.sqrt(res2)

    chunked = _in_chunks(model.omegas.size, float, model.g.dtype, model.g.dtype, rows=tau.size)(roots)
    columns, bath, shift, residual = chunked(tau, brackets.origin, brackets.base, vectors)
    return _Roots(brackets.base + tau, columns, shift, residual, brackets.base, tau, brackets.origin, bath)


def _pair(y, b_o, r, o, e_eps, t, model, w, b):
    """For unnormalized eigenvectors [y; b] with origin components b_o (see
    _branch_roots, r = 1 / (E - omega_k) from spectral._pole_row, 0 at the
    origin): the squared norm c^2, the spin residual R y - u_o b_o, the
    origin's residual tau b_o - g_o . y and the normalized squared
    residual. G y and b are formed in the (rows x modes) arrays w and b."""
    np.matmul(y, model.g.T, out=w)
    np.multiply(r, w, out=b)
    spin = e_eps[:, None] * y - b @ model.g.conj() - model.g[o].conj() * b_o[:, None]
    pole = t * b_o - w[np.arange(t.size), o]
    c2 = (
        np.einsum("ij,ij->i", y.conj(), y).real + np.einsum("ij,ij->i", b.conj(), b).real
        + np.abs(b_o) ** 2
    )
    return c2, spin, pole, (np.einsum("ij,ij->i", spin.conj(), spin).real + np.abs(pole) ** 2) / c2


def _phase_error(energies: np.ndarray, roots: _Roots) -> float:
    """sum_j |v_j|^2 |dE_j| over the roots, with |dE_j| bounded by ||r_j||
    and by |mu_j| + ||r_j||^2 / gap_j, each root's gap taken to its
    neighbours among the ascending energies."""
    gap = np.minimum(np.diff(energies, prepend=-np.inf), np.diff(energies, append=np.inf))
    error = np.fmin(roots.residual, roots.shift + roots.residual**2 / gap)
    return float(np.sum(np.abs(roots.columns) ** 2, axis=0) @ error)


def _self_energy(model: _Deflated, r, e_eps):
    """M(E) = (E - epsilon) I - r @ gg, one r x r matrix per row of a finished
    row r of pole terms 1 / (E - omega_k) (spectral._pole_row at numer = -1,
    with the origin's pole put back or left out), given E - epsilon: the one
    place the closed form forms the self-energy. A non-finite M(E) (an
    energy on a coupled frequency) raises DiagonalizationError."""
    n = model.g.shape[1]
    m = np.negative(r @ model.gg).reshape(-1, n, n)
    m[:, np.arange(n), np.arange(n)] += e_eps[:, None]
    if not np.all(np.isfinite(m)):
        raise DiagonalizationError("self-energy not finite: an energy sits on a coupled frequency")
    return m


def _max_overlap(roots: _Roots, model: _Deflated) -> float:
    """The largest overlap of two eigenvectors whose bound
    (||r_i|| + ||r_j||) / |E_i - E_j| exceeds _OVERLAP_TOL, computed in the
    row chunks of _in_chunks and their scratch (0 if there is none), or inf
    if more than d pairs do or a residual is not finite. The energies
    ascend."""
    e, residual, d = roots.energies, roots.residual, roots.energies.size
    reach = 2.0 * float(np.max(residual)) / _OVERLAP_TOL
    if not np.isfinite(reach):
        return np.inf
    pairs = []
    for step in range(1, d):
        gap = e[step:] - e[:-step]
        if not np.any(gap < reach):
            break
        near = np.flatnonzero(~((residual[step:] + residual[:-step]) / gap <= _OVERLAP_TOL))
        pairs.append(np.stack([near, near + step]))
        if sum(p.shape[1] for p in pairs) > d:
            return np.inf
    i, j = np.concatenate(pairs, axis=1) if pairs else np.zeros((2, 0), dtype=int)

    def overlaps(r, bath_a, bath_b, a, b):
        overlap = np.einsum("ij,ij->j", roots.columns[:, a].conj(), roots.columns[:, b])
        bath_a = _bath_part(roots, a, model, r, bath_a).conj()
        overlap += np.einsum("ij,ij->i", bath_a, _bath_part(roots, b, model, r, bath_b))
        return (np.abs(overlap),)

    chunked = _in_chunks(model.omegas.size, float, model.g.dtype, model.g.dtype, rows=i.size)(overlaps)
    (overlap,) = chunked(i, j)
    return float(np.max(overlap, initial=0.0))


def _bath_part(roots: _Roots, idx: np.ndarray, model: _Deflated, r, b) -> np.ndarray:
    """(E - Omega)^-1 G v of the roots idx, one row per root, in the
    (rows x modes) array b, with r for 1 / (E - Omega) from
    spectral._pole_row, whose origin entry the root's own bath component
    replaces."""
    np.matmul(roots.columns[:, idx].T, model.g.T, out=b)
    b *= _pole_row(r, -1.0, roots.tau[idx], roots.base[idx], roots.origin[idx], model.omegas)
    b[np.arange(idx.size), roots.origin[idx]] = roots.bath[idx]
    return b

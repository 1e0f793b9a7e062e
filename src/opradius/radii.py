"""Numerical radius, rho-radius for 1 <= rho <= 2, spectral radius, and
numerical-range boundary sampling.

The numerical radius is the global maximum over theta of the support function

    h(theta) = lambda_max((e^{i theta} A + e^{-i theta} A*) / 2),

sampled on a uniform 16-point coarse grid and then refined by certified
interval bisection. The certificate uses the cosine minorant: if theta*
attains the maximum w, then h(theta) >= w cos(theta - theta*) for every
theta, because the maximizing boundary point alone contributes that much.
Hence whenever the evaluated grid has spacing d, some evaluated point is
within d/2 of theta* and

    w <= best_evaluated / cos(d / 2).

Intervals whose endpoints both fall below best * cos(d/2) cannot contain
theta* and are discarded; the rest are bisected until the bracket
best * (1/cos(d/2) - 1) drops below the requested tolerance. Convergence is
quadratic in d, so a handful of rounds past the coarse grid suffices even for
tolerances near 1e-12, whatever the grid. The exception is a support function
that is flat to within tol, as for a matrix whose numerical range is a disk
about 0: nothing is pruned, so the sweep evaluates about 2 pi/sqrt(8 tol/w)
angles (262,144 for the 2 x 2 nilpotent at tol 1e-10).

Every radius takes one pipeline over a stack of same-size matrices: zero
matrices get value 0, rho = 1 reads the top singular pair, and any other rho
sweeps a kernel per matrix (S_theta or H_theta below at rho = 2, K_theta in
between) in lockstep, then takes eigenvectors and witnesses at the best angles.
Every interval of the sweep carries the index of the matrix that owns it, one
stacked eigvalsh call evaluates the live angles of all owners together, and
each owner keeps its own best value, best angle, stopping round and gap. An
owner's result is therefore bit for bit that of its own sweep, while the
per-round Python overhead is paid once for the whole stack; a single matrix
is the stack of one.

When the caller claims a rotation symmetry U* A U ~ e^{2 pi i/m} A for a
signed permutation U e_j = signs[j] e_{perm[j]}, every sign exactly +1 or -1
and so U unitary by construction, the sweep covers one period [0, 2 pi/|m|]
on a closed grid instead of the whole circle. U* A U is a gather of A's
entries with sign flips, exact and without a dense product, and the rotation
is checked, not trusted: with r = ||U* A U - e^{2 pi i/m} A||_F, unitary
invariance gives |h(theta + 2 pi/m) - h(theta)| <= r, and a copy of theta*
lies within |m|//2 shifts of the period, so on the period

    h(theta) >= w cos(theta - phi) - slack,   slack = (|m| // 2) r,

for some phi in [0, 2 pi/|m|]. The certificate becomes
w <= (best + slack) / cos(d/2) and intervals are pruned below
best * cos(d/2) - slack. A claim whose slack exceeds tol/2 is ignored and the
full circle is swept, so a false claim costs time, never correctness.

A complex symmetric A (A^T = A, as the extremal family and its inverse are)
has real symmetric rotated Hermitian parts H_theta = Re(e^{i theta} A),
the entrywise real part (Garcia & Putinar, Trans. AMS 358, 2006), which the
float64 eigensolver takes at about a quarter of the complex cost. The
symmetry is measured, not trusted. With A_s = (A + A^T)/2 and
e = ||A - A^T||_F / 2, the real symmetric
S_theta = cos(theta) Re A_s - sin(theta) Im A_s has top eigenvalue

    f(theta) = max over real unit v of Re(e^{i theta} <Av, v>) <= h(theta),

so its values and its top eigenvectors remain lower bounds and witnesses;
and H_theta - S_theta is the rotated Hermitian part of (A - A^T)/2, whose
norm is at most e, so

    h(theta) - f(theta) <= e.

Hence f(theta) >= w cos(theta - phi) - slack - e, and sweeping f with slack
+ e certifies w(A) itself. Each matrix of a stack takes this real path when
slack + e <= tol/2, and the complex one otherwise. The rule is applied per
matrix, so a stack entry is still bit for bit its own sweep.

The operator rho-radius for 1 <= rho <= 2 is the sphere maximum of

    g(h) = alpha |<Ah, h>| + sqrt(alpha^2 |<Ah, h>|^2 + beta ||Ah||^2),
    alpha = 1 - 1/rho,  beta = 2/rho - 1.

rho = 1 gives the operator norm, taken from one SVD, and rho = 2 the
numerical radius above. In between, writing |<Ah, h>| = max_theta
<H_theta h, h> with H_theta = (e^{i theta} A + e^{-i theta} A*)/2 gives
w_rho(A) = max_theta u*(theta), where u*(theta) is the largest root of the
hyperbolic pencil u^2 I - 2 alpha u H_theta - beta A*A. That root is the top
eigenvalue of the 2n x 2n Hermitian linearization

    K_theta = [[2 alpha H_theta, sqrt(beta) |A|], [sqrt(beta) |A|, 0]],

|A| = (A*A)^{1/2}: eliminating y = sqrt(beta) |A| x / u from an eigenvector
[x; y] leaves (2 alpha H_theta + beta A*A / u) x = u x. The left side's top
eigenvalue falls below u for every u > u*(theta), so u*(theta) is the
maximum over unit h of the larger root alpha <H_theta h, h> + sqrt(alpha^2
<H_theta h, h>^2 + beta ||Ah||^2) of the scalar pencil, and the maximum of
that over theta is g(h). The same sweep certifies max_theta u*(theta). If
h* attains w_rho and <Ah*, h*> = e^{-i theta*} |<Ah*, h*>|, then h* alone
gives, with c = cos(theta - theta*),

    u*(theta) >= alpha c t + sqrt(alpha^2 c^2 t^2 + beta s^2) >= c w_rho

for c >= 0 (t = |<Ah*, h*>|, s = ||Ah*||), and u*(theta) >= 0 >= c w_rho
otherwise: the cosine minorant again, so the gap, the prune threshold and
the guard carry over unchanged. The value is max(best, g(x/||x||)) for the
top eigenvector half x at the best angle, so it is attained up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _signed_conjugate, as_matrix

__all__ = [
    "RadiusEstimate",
    "SupportPoint",
    "numerical_radius",
    "rho_radius",
    "rho_radii",
    "spectral_radius",
    "range_boundary",
    "support_points",
    "sphere_maximize",
    "DEFAULT_SEED",
]

# Default seed of the sphere optimizer's random starts and of the CLI; runs
# with the same seed agree bit for bit.
DEFAULT_SEED = 1729

TOL_MIN = 1e-12
TOL_MAX = 1e-2
_MAX_ROUNDS = 64
# Coarse grid of every sweep. Refinement makes the final accuracy independent
# of it, so it only sets the cost.
_COARSE = 16
# Largest stack of rotated Hermitian parts or pencil linearizations built at
# once, counted as 16 dim^2 bytes per matrix. Building a stack takes about two
# temporaries of its size, so the peak is a small multiple of this; longer
# stacks are evaluated in chunks, which keeps n = 500 sweeps and lockstep
# sweeps over many matrices in bounded memory.
_BATCH_BYTES = 128 * 2**10


@dataclass(frozen=True)
class RadiusEstimate:
    """A computed radius plus method metadata.

    value        computed radius, a certified lower bound within `tolerance`
                 of the true value.
    rho          which radius: 1 is the operator norm and 2 the numerical
                 radius, which numerical_radius reports as rho = 2.0.
    tolerance    certified gap: the true radius lies in [value, value +
                 tolerance] up to eigensolver rounding.
    exact        True when the value comes from a certified path; every radius
                 this module returns is certified.
    witness      unit vector attaining the reported value, when available.
    evaluations  angles at which the sweep evaluated its function, coarse
                 grid included; 0 when no sweep ran.
    rounds       refinement rounds the sweep ran past the coarse grid.
    """

    value: float
    rho: float
    tolerance: float
    exact: bool
    witness: np.ndarray | None
    evaluations: int = 0
    rounds: int = 0


@dataclass(frozen=True)
class SupportPoint:
    """One sample of the numerical-range boundary.

    support_value = Re(e^{i theta} boundary_point) holds by construction:
    boundary_point is <Av, v> for the top eigenvector v of the rotated
    Hermitian part at angle theta.
    """

    theta: float
    support_value: float
    boundary_point: complex


def _as_stack(mats) -> np.ndarray:
    """Validate a sequence of same-size square matrices and stack it.

    Each matrix goes through as_matrix; the stack is complex128 when any
    matrix is complex, else float64.
    """
    stack = [as_matrix(m) for m in mats]
    if not stack:
        raise ValueError("need at least one matrix")
    if len({m.shape for m in stack}) > 1:
        raise ValueError("matrices of a stack must all have the same size")
    return np.stack(stack)


def _chunks(count: int, dim: int):
    """Slices of range(count) whose stacks of dim x dim complex matrices fit
    _BATCH_BYTES."""
    step = max(1, _BATCH_BYTES // (16 * dim * dim))
    return (slice(i, i + step) for i in range(0, count, step))


def _top_eigenvalues(build, dim: int, owner: np.ndarray,
                     thetas: np.ndarray) -> np.ndarray:
    """lambda_max of each matrix of build(owner, thetas), built in chunks."""
    out = np.empty(thetas.size)
    for s in _chunks(thetas.size, dim):
        out[s] = np.linalg.eigvalsh(build(owner[s], thetas[s]))[..., -1]
    return out


def _top_eigenpairs(build, dim: int, owner: np.ndarray,
                    thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_max, top eigenvector) of each matrix of build(owner, thetas),
    the vectors row by row as complex128."""
    lam = np.empty(thetas.size)
    vec = np.empty((thetas.size, dim), dtype=np.complex128)
    for s in _chunks(thetas.size, dim):
        w, v = np.linalg.eigh(build(owner[s], thetas[s]))
        lam[s], vec[s] = w[..., -1], v[..., -1]
    return lam, vec


def _hermitian_builder(a: np.ndarray):
    """build(owner, thetas, out=None): the matrices
    (e^{i theta} A + e^{-i theta} A*) / 2 for A = a[owner[i]] at thetas[i].

    owner is an index array. The result is built in place, so a stack costs
    about two of its size in temporaries.
    """
    # complex even for real a, so its gathered copy takes the product in
    # place; the operand order keeps every entry bit for bit equal to the
    # direct (ph A + conj(ph) A*) / 2
    ah = a.conj().transpose(0, 2, 1).astype(np.complex128)

    def build(owner, thetas, out=None):
        ph = np.exp(1j * thetas)[:, None, None]
        h = np.multiply(ph, a[owner], out=out)
        t = ah[owner]
        h += np.multiply(np.conj(ph), t, out=t)
        h /= 2
        return h
    return build


def _symmetric_builder(a: np.ndarray):
    """build(owner, thetas): the real symmetric matrices
    cos(theta) Re A_s - sin(theta) Im A_s, A_s = (A + A^T) / 2, for
    A = a[owner[i]] at thetas[i].
    """
    sym = (a + a.transpose(0, 2, 1)) / 2
    re, im = sym.real.copy(), sym.imag.copy()

    def build(owner, thetas):
        s = re[owner]
        s *= np.cos(thetas)[:, None, None]
        t = im[owner]
        t *= np.sin(thetas)[:, None, None]
        s -= t
        return s
    return build


def support_points(a, thetas) -> list[SupportPoint]:
    """Boundary samples of the numerical range at the given support angles."""
    a = as_matrix(a)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    lam, vec = _top_eigenpairs(_hermitian_builder(a[None]), a.shape[0],
                               np.zeros(thetas.size, dtype=np.intp), thetas)
    return [SupportPoint(float(t), float(h), complex(v.conj() @ (a @ v)))
            for t, h, v in zip(thetas, lam, vec)]


def range_boundary(a, samples: int = 256) -> list[SupportPoint]:
    """Sample the numerical-range boundary on a uniform theta grid.

    The convex hull of the returned boundary points approximates W(A) from
    the inside.
    """
    if samples < 8:
        raise ValueError("samples must be >= 8")
    thetas = 2 * np.pi * np.arange(samples) / samples
    return support_points(a, thetas)


def _certified_gap(best, width: float, slack):
    # (best + slack) / cos(width/2) - best, arranged so that slack = 0 gives
    # exactly the bits of the plain full-circle bound
    c = np.cos(width / 2)
    return best * (1.0 / c - 1.0) + slack / c


def _rotation_slack(a: np.ndarray, rotation) -> tuple[int, float]:
    """(|m|, (|m| // 2) ||U* A U - e^{2 pi i/m} A||_F) for a claimed rotation
    (perm, signs, m) by the signed permutation U e_j = signs[j] e_{perm[j]}."""
    perm, signs, m = rotation
    perm, signs, n = np.asarray(perm), np.asarray(signs), a.shape[0]
    if perm.dtype.kind not in "iu" or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"rotation perm must be a permutation of range({n})")
    if signs.shape != (n,) or not np.all((signs == 1) | (signs == -1)):
        raise ValueError(f"rotation signs must be {n} entries, each +1 or -1")
    if not isinstance(m, (int, np.integer)) or m == 0:
        raise ValueError(f"rotation order must be a nonzero integer, got {m!r}")
    m = int(m)
    resid = _signed_conjugate(a, perm, signs) - np.exp(2j * np.pi / m) * a
    return abs(m), (abs(m) // 2) * float(np.linalg.norm(resid))


@dataclass(frozen=True)
class _Sweep:
    """Per-owner results of a lockstep sweep, one array entry per owner."""

    best: np.ndarray
    best_theta: np.ndarray
    gap: np.ndarray
    evaluations: np.ndarray
    rounds: np.ndarray


def _sweep(values, count: int, tol: float, coarse: int, order: int = 1,
           slack: float | np.ndarray = 0.0) -> _Sweep:
    """Certified maxima of `count` functions of theta, swept in lockstep.

    values(owner, thetas) returns the value of function owner[i] at
    thetas[i] for every i. Each function must dominate
    w cos(theta - phi) - slack, where w is its maximum, phi the angle of a
    maximizer and slack a scalar or one value per owner; with order > 1 only
    the closed period [0, 2 pi/order] is swept and phi must lie in it. Every
    interval carries the index of its owner, and each owner keeps its own
    best value, best angle and stopping round, so its result is bit for bit
    that of a sweep of its function alone. The true maximum of function i
    lies in [best[i], best[i] + gap[i]].
    """
    owners = np.arange(count)
    # one period on a closed grid of `segments` intervals; on the full circle
    # h(2 pi) = h(0) closes the grid without an evaluation
    period = 2 * np.pi / order
    segments = coarse if order == 1 else max(8, -(-coarse // order)) - 1
    grid = period * np.arange(segments + 1) / segments
    points = segments + (order > 1)
    vals = values(np.repeat(owners, points), np.tile(grid[:points], count))
    vals = vals.reshape(count, points)[:, np.arange(segments + 1) % points]
    # intervals of the current generation: [left, left + width]
    left = np.tile(grid[:-1], count)
    h_left, h_right = vals[:, :-1].ravel(), vals[:, 1:].ravel()
    width = period / segments
    owner = np.repeat(owners, segments)
    # the first largest value is never the closing copy of h(0)
    k = np.argmax(vals, axis=1)
    best = vals[owners, k]
    best_theta = grid[k]
    evaluations = np.full(count, points)
    rounds = np.zeros(count, dtype=int)
    gap = np.empty(count)
    live = np.ones(count, dtype=bool)

    for _ in range(_MAX_ROUNDS):
        current = _certified_gap(best, width, slack)
        done = live & (current <= tol)
        guard = 1e-12 * np.maximum(1.0, np.abs(best))
        threshold = (best * np.cos(width / 2) - guard - slack)[owner]
        keep = ~done[owner] & ((h_left >= threshold) | (h_right >= threshold))
        left, h_left, h_right = left[keep], h_left[keep], h_right[keep]
        owner = owner[keep]
        # an owner also stops when none of its intervals survives the prune
        done |= live & (np.bincount(owner, minlength=count) == 0)
        gap[done] = current[done]
        live &= ~done
        if owner.size == 0:
            break
        mid = left + width / 2
        h_mid = values(owner, mid)
        # each owner's first largest midpoint, as np.argmax would pick it
        top = np.full(count, -np.inf)
        np.maximum.at(top, owner, h_mid)
        at_top = np.flatnonzero(h_mid == top[owner])
        first = np.full(count, h_mid.size)
        np.minimum.at(first, owner[at_top], at_top)
        better = live & (top > best)
        best[better] = h_mid[first[better]]
        best_theta[better] = mid[first[better]]
        evaluations += np.bincount(owner, minlength=count)
        rounds[live] += 1
        left = np.concatenate([left, mid])
        h_left = np.concatenate([h_left, h_mid])
        h_right = np.concatenate([h_mid, h_right])
        owner = np.concatenate([owner, owner])
        width /= 2
    gap[live] = _certified_gap(best, width, slack)[live]
    return _Sweep(best, best_theta, gap, evaluations, rounds)


def _radii(mats: np.ndarray, rho: float, tol: float, order: int = 1,
           slack: float = 0.0) -> list[RadiusEstimate]:
    """Certified rho-radii of a stack, for rho in [1, 2] and tol in range;
    order and slack carry a measured rotation claim to the sweep. The module
    docstring gives each kernel and the rule that picks it."""
    out = [RadiusEstimate(0.0, rho, 0.0, True, None)] * len(mats)
    nonzero = np.flatnonzero(mats.reshape(len(mats), -1).any(axis=1))
    if not nonzero.size:
        return out
    if nonzero.size < len(mats):
        mats = mats[nonzero]
    n = mats.shape[-1]
    alpha, beta = 1.0 - 1.0 / rho, 2.0 / rho - 1.0
    if rho == 2.0:
        skew = np.linalg.norm(mats - mats.transpose(0, 2, 1), axis=(1, 2)) / 2
        real = slack + skew <= tol / 2
        kinds = ((~real, _hermitian_builder(mats)), (real, _symmetric_builder(mats)))
        slack, dim = np.where(real, slack + skew, slack), n
    else:
        s, vh = np.linalg.svd(mats)[1:]
        if rho == 1.0:
            for i, j in enumerate(nonzero):
                out[j] = RadiusEstimate(float(s[i, 0]), 1.0, 0.0, True, vh[i, 0].conj())
            return out
        off = np.sqrt(beta) * ((vh.conj().transpose(0, 2, 1) * s[:, None, :]) @ vh)
        hermitian, dim = _hermitian_builder(mats), 2 * n

        def pencil(owner, thetas):
            # K_theta = [[2 alpha H_theta, off], [off, 0]] with off =
            # sqrt(beta) |A|, Hermitian as off is
            k = np.zeros((thetas.size, dim, dim), dtype=np.complex128)
            top = hermitian(owner, thetas, out=k[:, :n, :n])
            np.multiply(2 * alpha, top, out=top)
            k[:, :n, n:] = k[:, n:, :n] = off[owner]
            return k
        kinds = ((np.ones(len(mats), dtype=bool), pencil),)

    def values(owner, thetas):
        # one stack per kernel: float64 S_theta apart from complex128 H_theta
        h = np.empty(thetas.size)
        for mask, build in kinds:
            sel = mask[owner]
            h[sel] = _top_eigenvalues(build, dim, owner[sel], thetas[sel])
        return h

    sw = _sweep(values, len(mats), tol, _COARSE, order, slack)
    owners = np.arange(len(mats))
    vecs = np.empty((len(mats), dim), dtype=np.complex128)
    for mask, build in kinds:
        vecs[mask] = _top_eigenpairs(build, dim, owners[mask], sw.best_theta[mask])[1]
    for i, a in enumerate(mats):
        x = vecs[i, :n]
        witness = x / np.linalg.norm(x)
        # |<Av, v>| >= h(best_theta) at rho = 2, g(v) >= u*(best_theta) in
        # between: at least best, and never above w_rho(A)
        value = (abs(complex(witness.conj() @ (a @ witness))) if rho == 2.0 else
                 float(_sphere_objective(a, witness[None, :], alpha, beta)[0][0]))
        out[nonzero[i]] = RadiusEstimate(
            max(float(sw.best[i]), value), rho, float(sw.gap[i]), True, witness,
            int(sw.evaluations[i]), int(sw.rounds[i]))
    return out


def numerical_radius(a, tol: float = 1e-9,
                     rotation: tuple | None = None) -> RadiusEstimate:
    """Numerical radius w(A) = sup |<Ah, h>| over unit vectors, certified.

    The returned value is a lower bound on w(A) within `tol` of it; the
    actual certified gap is stored in the tolerance field.

    rotation=(perm, signs, m) claims U* A U ~ e^{2 pi i/m} A for the signed
    permutation U e_j = signs[j] e_{perm[j]}: perm a permutation of range(n),
    each sign exactly +1 or -1 (so U is unitary) and m a nonzero integer, else
    ValueError. The claim is measured; when its slack is at most tol/2 only
    one period of the support function is swept and the slack is folded into
    the gap, otherwise the claim is ignored and the full circle is swept.
    """
    a = as_matrix(a)
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}]")
    order, slack = _rotation_slack(a, rotation) if rotation is not None else (1, 0.0)
    if slack > tol / 2:
        order, slack = 1, 0.0
    return _radii(a[None], 2.0, tol, order, slack)[0]


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus, via the general (Schur-based) eigensolver."""
    a = as_matrix(a)
    return float(np.max(np.abs(np.linalg.eigvals(a))))


# g on the unit sphere: the 1 < rho < 2 witness value and sphere_maximize's objective
def _sphere_objective(a: np.ndarray, h: np.ndarray, alpha: float, beta: float):
    ah = h @ a.T
    q = np.sum(h.conj() * ah, axis=1)
    t = np.abs(q)
    s = np.linalg.norm(ah, axis=1)
    return alpha * t + np.sqrt((alpha * t) ** 2 + beta * s * s), q, t, s, ah


def _sphere_gradient(a, h, q, t, s, ah, alpha, beta):
    # Wirtinger ascent direction 2 dg/d(conj h) for
    # g = alpha t + sqrt(alpha^2 t^2 + beta s^2); the modulus t = |<Ah, h>| is
    # smoothed through its phase, which keeps the direction bounded as t -> 0.
    astar_h = h @ a.conj()
    ata_h = ah @ a.conj()
    tt = np.maximum(t, 1e-300)
    grad_t = (np.conj(q)[:, None] * ah + q[:, None] * astar_h) / tt[:, None]
    root = np.maximum(np.sqrt((alpha * t) ** 2 + beta * s * s), 1e-300)
    return alpha * grad_t + (alpha * alpha * t[:, None] * grad_t + beta * ata_h) / root[:, None]


def _normalize_rows(h: np.ndarray) -> np.ndarray:
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def sphere_maximize(
    a,
    rho: float,
    restarts: int = 32,
    iters: int = 200,
    seed: int = DEFAULT_SEED,
) -> tuple[float, np.ndarray]:
    """Multistart projected gradient ascent for the rho-radius objective.

    Returns (best value, best unit vector). The value is a lower bound on the
    true sphere maximum, not certified. No radius in this package is computed
    with it: it is the independent oracle that acceptance criterion 09 and
    the radii tests check the certified sweeps against. Deterministic for
    fixed (a, rho, restarts, iters, seed); ties across restarts resolve to the
    lowest index.
    """
    a = as_matrix(a)
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    n = a.shape[0]
    alpha = 1.0 - 1.0 / rho
    beta = 2.0 / rho - 1.0

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    h = rng.standard_normal((restarts, n)) + 1j * rng.standard_normal((restarts, n))
    # structured starts improve reliability on badly conditioned objectives
    gram = a.conj().T @ a
    gram = (gram + gram.conj().T) / 2
    _, gv = np.linalg.eigh(gram)
    h[0] = gv[:, -1]
    if restarts >= 2:
        _, rv = np.linalg.eigh((a + a.conj().T) / 2)
        h[1] = rv[:, -1]
    if restarts >= 3:
        _, iv = np.linalg.eigh((a - a.conj().T) / 2j)
        h[2] = iv[:, -1]
    h = _normalize_rows(h)

    step = np.full(restarts, 0.25)
    g, q, t, s, ah = _sphere_objective(a, h, alpha, beta)
    for _ in range(iters):
        grad = _sphere_gradient(a, h, q, t, s, ah, alpha, beta)
        cand = _normalize_rows(h + step[:, None] * grad)
        gc, qc, tc, sc, ahc = _sphere_objective(a, cand, alpha, beta)
        better = gc > g
        h[better] = cand[better]
        q[better], t[better], s[better], ah[better] = (
            qc[better], tc[better], sc[better], ahc[better])
        g = np.maximum(g, gc)
        step = np.where(better, step * 1.3, step * 0.5)
        np.clip(step, 0.0, 1e3, out=step)
        if float(step.max()) < 1e-13:
            break
    i = int(np.argmax(g))
    return float(g[i]), h[i]


def _check_rho(rho: float) -> float:
    """rho clamped into [1, 2]; rho more than 1e-12 outside is rejected."""
    if not 1.0 - 1e-12 <= rho <= 2.0 + 1e-12:
        raise ValueError(f"rho must lie in [1, 2], got {rho}"
                         + ("; the rho > 2 regime is unsupported" if rho > 2 else ""))
    return min(max(rho, 1.0), 2.0)


def rho_radii(mats, rho: float, tol: float = 1e-6) -> list[RadiusEstimate]:
    """Operator rho-radii of a stack of same-size matrices, swept in lockstep.

    Entry i equals rho_radius(mats[i], rho, tol) bit for bit: one certified
    sweep evaluates the live angles of every matrix together, and each matrix
    keeps its own best value, stopping round and gap. Zero matrices get value
    0, gap 0 and no witness.
    """
    mats = _as_stack(mats)
    rho = _check_rho(rho)
    tol = min(max(tol, TOL_MIN), TOL_MAX)
    return _radii(mats, rho, tol)


def rho_radius(a, rho: float, tol: float = 1e-6) -> RadiusEstimate:
    """Operator rho-radius w_rho(A) for 1 <= rho <= 2, certified.

    rho = 1 is the operator norm, from one SVD, and rho = 2 the numerical
    radius. In between, the maximum over theta of lambda_max(K_theta) is
    swept with the same certified bisection (see the module docstring); the
    value is a lower bound within the reported tolerance of w_rho(A) and is
    attained by the witness up to rounding. tol is clamped into [1e-12, 1e-2].
    rho outside [1, 2] is rejected; the restricted sup formula for rho > 2 is
    deliberately unsupported. This is rho_radii on a stack of one.
    """
    return rho_radii([a], rho, tol)[0]

"""Numerical radius, rho-radius for 1 <= rho <= 2, and numerical-range
boundary sampling.

The numerical radius is the global maximum over theta of the support function
h(theta) = lambda_max(H_theta) of the rotated Hermitian part

    H_theta = Re(e^{i theta} A) = cos(theta) H + sin(theta) K,
    H = (A + A*)/2,  K = i (A - A*)/2,

sampled on a uniform coarse grid of intervals of width at most pi/4, as few
as cover the swept range (8 angles on the full circle), and then refined
interval by interval. Every swept function f, h here and the rho-pencil's
u*(theta) below, has an exact minorant: if the maximum W of f is attained at
the angle phi, then for every theta

    f(theta) >= W m(cos(theta - phi)),
    m(c) = alpha c + sqrt(alpha^2 c^2 + beta),

with the pencil's alpha = 1 - 1/rho and beta = 2/rho - 1. At rho = 2,
alpha = 1/2 and beta = 0 make m(c) = max(c, 0), the cosine minorant of h:
the maximizing boundary point alone contributes W cos(theta - phi). m is
positive and increasing on (0, 1], so if phi = a + x lies in an interval
[a, a + d], d < pi/2, then

    W <= f(a)/m(cos x)   and   W <= f(a + d)/m(cos(d - x)),

increasing and decreasing in x. The one interval rule, _vertex, bounds W by
V, the largest value these allow: f(a + d)/m(cos d) when the first exceeds
the second at x = 0, f(a)/m(cos d) when the second exceeds the first at x =
d, and otherwise the larger of the two at an estimate of their crossing,
which bounds W whatever the estimate; an endpoint value <= 0 rules phi out of
the interval. At rho = 2 the crossing is the vertex where the support lines
Re(e^{i a} z) = h(a) and Re(e^{i (a + d)} z) = h(a + d) meet, and V is its
modulus, a corner of their outer polygon (Johnson, SIAM J. Numer. Anal. 15,
1978). An interval is split at the crossing estimate, clipped into its middle
half, while V exceeds best + tol for the largest value best evaluated so far,
so f is evaluated where the bound peaks (Piyavskii 1972; Shubert, SIAM J.
Numer. Anal. 9, 1972); the V of an end case is at most its larger endpoint
value, so without slack an end case never splits. An interval that stops
being split leaves V behind, and the largest V less best is the certified
gap; each V carries a rounding guard of 1e-12 max(1, |best|), at most tol/2.
At rho = 2, equal endpoint values put the vertex mid-interval at V =
h/cos(d/2), and V never exceeds max(h(a), h(a + d)) / cos(d/2), the bound of
uniform bisection. Convergence is therefore quadratic in d, and a handful of
rounds past the coarse grid suffices even for tolerances near 1e-12, whatever
the grid. The exception is a support function that is flat to within tol, as
for a matrix whose numerical range is a disk about 0: every interval is split
down to width sqrt(8 tol/w), so the sweep evaluates about 2 pi/sqrt(8 tol/w)
angles. Near rho = 1 the minorant is as flat as u*, so rho near 1 is not a
flat case; a disk still is, at about 2 pi/sqrt(8 tol/((rho - 1) w)) angles.

Every radius takes one pipeline, and a call of it makes one sweep for all of
its input: zero matrices get value 0, rho = 1 reads the top singular pair
from one SVD per size and dtype, and any other rho groups the matrices by
size and dtype into kernel records (inputs, build, dim), one kernel per
matrix (S_theta or H_theta below at rho = 2, K_theta in between); a unit
vector v attains the value g(v) below at every rho, which at rho = 2 is
|<Av, v>|. The sweep numbers its owners (the swept matrices) in record order,
so each record owns one contiguous range; it sweeps all of them in lockstep,
then each record takes a witness at each owner's best angle from one shifted
solve (_witnesses), not an eigh: the sweep already knows the top eigenvalue
there. Every interval of the sweep carries the index of the owner it
belongs to; stacked eigvalsh calls per kernel record, each on at most
_BATCH_BYTES of kernels, evaluate the live angles of its owners together,
and each owner keeps its own tol, slack and order (full circle or one
period, below), and its own best value, best angle, stopping round and gap.
An owner's result is therefore bit for bit that of its own sweep, while the
per-round Python overhead is paid once for the whole call. family_radii is
the call of a member's A and A^-1; rho_radii, random_test and
scaling_experiment stream their matrices through _streamed, one call per
block whose inputs reach _BLOCK_BYTES, so a list of any length, up to n =
500, is swept in bounded memory. Every kernel is built like H_theta, as
cos(theta) P + sin(theta) Q for a pair fixed before the sweep: (H, K) for
H_theta, (Re A_s, -Im A_s) for S_theta and (2 alpha H, 2 alpha K) for the
top-left block of K_theta.

Every radius is homogeneous, w_rho(2^e A) = 2^e w_rho(A). An n x n stack with
n max|a_ij| above half the float64 maximum raises ValueError before any work,
at every rho; every other matrix, like every input of support_points and
sphere_maximize, is divided exactly by 2^e, 2^(e-1) <= max|a_ij| < 2^e
(_unit_scale), so nothing overflows, swept to tol/2^e, e capped at the
smallest normal exponent, and its value, gap and witness value scaled back.

When the caller claims a rotation symmetry U* A U ~ e^{2 pi i/m} A for a
signed permutation U e_j = signs[j] e_{perm[j]}, every sign exactly +1 or -1
and so U unitary by construction, the sweep covers one period [0, 2 pi/|m|]
of that matrix on a closed grid instead of the whole circle. U* A U is a
gather of A's entries with sign flips, exact and without a dense product,
and the rotation is checked, not trusted: with r = ||U* A U - e^{2 pi i/m}
A||_F, unitary invariance gives |h(theta + 2 pi/m) - h(theta)| <= r, and a
copy of theta* lies within |m|//2 shifts of the period, so on the period

    h(theta) >= w cos(theta - phi) - (|m| // 2) r

for some phi in [0, 2 pi/|m|]. The period closes, like the half circle, on
its first node: h(0) stands in for h(2 pi/|m|), one shift more, so the slack
is (|m| // 2 + 1) r (0 at |m| = 1, a claim of nothing, swept on the full
circle). The interval rule takes h + slack in place of h at both endpoints,
so the slack enters the gap. Claims are made per matrix at rho = 2, None for
no claim, and each is measured on its own unit-scale matrix: a claim whose
slack exceeds that matrix's tol/2 is refused and its matrix swept on the
full circle, so a false claim costs time, never correctness. Owners of one
period and of the full circle share a sweep, on one grid rule (_sweep).

A complex symmetric A (A^T = A, as the extremal family and its inverse are)
has real symmetric H_theta, the entrywise real part (Garcia & Putinar,
Trans. AMS 358, 2006), a cheaper float64 eigenproblem. The symmetry is
measured, not trusted. With A_s = (A + A^T)/2 and e = ||A - A^T||_F / 2,
the real symmetric S_theta = cos(theta) Re A_s - sin(theta) Im A_s has top
eigenvalue

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
<H_theta h, h> gives w_rho(A) = max_theta u*(theta), where u*(theta) is the
largest root of the hyperbolic pencil u^2 I - 2 alpha u H_theta - beta A*A.
That root is the top eigenvalue of the 2n x 2n Hermitian linearization

    K_theta = [[2 alpha H_theta, sqrt(beta) A*], [sqrt(beta) A, 0]],

built from A itself: eliminating y = sqrt(beta) A x / u from an eigenvector
[x; y] leaves (2 alpha H_theta + beta A*A / u) x = u x. (With the polar
factor A = Q |A|, diag(I, Q*) K_theta diag(I, Q) is the form with sqrt(beta)
|A| in both off-diagonal blocks: same spectrum, same top halves x, but an SVD
to build.) The left side's top eigenvalue falls below u for every u >
u*(theta), so u*(theta) is the maximum over unit h of the larger root alpha
<H_theta h, h> + sqrt(alpha^2 <H_theta h, h>^2 + beta ||Ah||^2) of the scalar
pencil, and the maximum of that over theta is g(h). The same sweep
certifies W = max_theta u*(theta), against the minorant W m(cos(theta -
phi)) stated at the top.

Proof: let x* attain W, t = |<Ax*, x*>| and <Ax*, x*> = e^{-i phi} t. Then
<H_theta x*, x*> = t c for c = cos(theta - phi), and W^2 = 2 alpha t W + beta
||Ax*||^2 eliminates ||Ax*||, so x* alone gives

    u*(theta) >= alpha t c + sqrt(alpha^2 t^2 c^2 + W^2 - 2 alpha t W).

The right side decreases in t on [0, W]: its t-derivative has the sign of
c sqrt(...) - (W - alpha t c^2), where W - alpha t c^2 > 0 and (W - alpha t
c^2)^2 - c^2 (...) = W^2 (1 - c^2) >= 0. And t <= ||Ax*|| gives W >=
(alpha + sqrt(alpha^2 + beta)) t = (alpha + 1/rho) t = t, so the right side
is at least its value at t = W, which is W m(c) by 1 - 2 alpha = beta.

For rho < 2, m increases from m(-1) = beta > 0 to m(1) = 1, and near rho =
1 it is almost flat, as u* is; the sweep bounds its intervals with the rule
above. The witness x is the top half of the approximate top eigenvector at
the best angle, and its value g(x/||x||), taken as ratios on x itself, is
attained up to rounding.

Every witness value v replaces best only where it exceeds the solve's shift
sigma = best + 2^-44 max(1, |best|): a v within the shift is rounding of the
same top eigenvalue, and taking it could lift the value above the radius (as
for c I, whose every vector is an eigenvector). Any unit vector attains its
value, so the witness never enters the gap; the bracket [best, best + gap] is
the sweep's alone.

One eigensolve gives two support values, at theta and at its antipode theta
+ pi (Johnson 1978), because every kernel above flips sign there:
H_{theta + pi} = -H_theta and S_{theta + pi} = -S_theta, and with D =
diag(I, -I), a real diagonal unitary,

    D K_theta D = [[2 alpha H_theta, -sqrt(beta) A*], [-sqrt(beta) A, 0]],

so -D K_theta D = [[2 alpha H_{theta + pi}, sqrt(beta) A*], [sqrt(beta) A,
0]] = K_{theta + pi}. A similarity keeps the spectrum, so f(theta + pi)
= lambda_max(-kernel_theta) = -lambda_min(kernel_theta) for each of the three
kernels. The full-circle sweep therefore covers the half circle [0, pi] in
interval pairs ([l, r], [l + pi, r + pi]), each end of a pair carrying the
values of both halves. A pair's bound is the larger of its two interval
bounds, it is split at the split angle of that half, and one eigensolve there
gives the new values of both halves. The 8 coarse angles take 4 eigensolves,
and a flat support function, which never prunes, half those of the full
circle. A rotation sweep folds each row to (lambda_max, lambda_max), and
every grid closes on its first node: order m starts from ceil(8/m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _check_rho
from .linalg import _check_count, _signed_conjugate, as_matrix

__all__ = [
    "RadiusEstimate",
    "SupportPoint",
    "numerical_radius",
    "rho_radius",
    "rho_radii",
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
# Coarse grid of every sweep: the fewest intervals of width at most
# 2 pi/_COARSE, which must be below pi/2, that cover the swept range, one
# eigensolve each: _COARSE/2 on the half circle, ceil(_COARSE/order) on a
# period. Refinement makes the final accuracy independent of it, so it only
# sets the cost.
_COARSE = 8
# Largest stack of kernels built at once, at their own itemsize: 8 bytes an
# entry for float64 S_theta, 16 for complex ones. Building a stack takes about
# two temporaries of its size; longer stacks are evaluated in chunks, which
# keeps n = 500 sweeps in bounded memory.
_BATCH_BYTES = 128 * 2**10
# Input bytes at which _streamed sweeps the block of jobs it holds.
_BLOCK_BYTES = 2**21
_NOT_FINITE = "radius bracket is not finite: matrix entries too large for float64"


def _check_tol(tol: float) -> float:
    """tol, unchanged; tol outside [TOL_MIN, TOL_MAX], or NaN, is rejected."""
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {tol}")
    return tol


@dataclass(frozen=True)
class RadiusEstimate:
    """A computed radius plus method metadata.

    value        computed radius, a certified lower bound within `tolerance`
                 of the true value.
    rho          which radius: 1 is the operator norm and 2 the numerical
                 radius, which numerical_radius reports as rho = 2.0.
    tolerance    certified gap: the true radius lies in [value, value +
                 tolerance] up to eigensolver rounding. It is at most the
                 requested tol unless the sweep's round cap (_MAX_ROUNDS) ran
                 out first.
    exact        True when the value comes from a certified path; every radius
                 this module returns is certified.
    witness      unit vector attaining the reported value, when available.
    evaluations  eigenproblems the sweep solved, coarse grid included; on the
                 full circle each gives the values at theta and theta + pi.
                 0 when no sweep ran.
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


def _unit_scale(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(stack / 2^e, e), 2^(e-1) <= max|a_ij| < 2^e for each matrix (e = 0 if
    zero), by ldexp on the real and imaginary parts: 2^-e may not be a float."""
    e = np.frexp(np.abs(stack).max(axis=(1, 2)))[1]
    parts = np.ascontiguousarray(stack).view(np.float64)
    return np.ldexp(parts, -e[:, None, None]).view(stack.dtype), e


def _scale_back(x: np.ndarray, e) -> np.ndarray:
    """x 2^e of unit-scale results, by ldexp on the real and imaginary parts;
    a result beyond float64 raises ValueError, without a warning."""
    with np.errstate(over="ignore"):
        out = np.ldexp(x.view(np.float64), e).view(x.dtype)
    if not np.isfinite(out).all():
        raise ValueError(_NOT_FINITE)
    return out


def _chunks(count: int, dim: int, itemsize: int):
    """Slices of range(count) whose stacks of dim x dim matrices of itemsize
    bytes per entry fit _BATCH_BYTES, one matrix at least."""
    step = max(1, _BATCH_BYTES // (itemsize * dim * dim))
    return (slice(i, i + step) for i in range(0, count, step))


def _top_eigenvalues(build, dim: int, owner: np.ndarray,
                     thetas: np.ndarray) -> np.ndarray:
    """(lambda_max, -lambda_min) of each matrix of build(owner, thetas), one
    row per matrix, built in chunks: the support values at theta and at
    theta + pi of a kernel that flips sign there."""
    out = np.empty((thetas.size, 2))
    for s in _chunks(thetas.size, dim, build.itemsize):
        w = np.linalg.eigvalsh(build(owner[s], thetas[s]))
        out[s, 0], out[s, 1] = w[..., -1], -w[..., 0]
    return out


def _top_eigenpairs(build, dim: int, owner: np.ndarray,
                    thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_max, top eigenvector) of each matrix of build(owner, thetas),
    the vectors row by row as complex128."""
    lam = np.empty(thetas.size)
    vec = np.empty((thetas.size, dim), dtype=np.complex128)
    for s in _chunks(thetas.size, dim, build.itemsize):
        w, v = np.linalg.eigh(build(owner[s], thetas[s]))
        lam[s], vec[s] = w[..., -1], v[..., -1]
    return lam, vec


def _witnesses(build, dim: int, owner: np.ndarray, thetas: np.ndarray,
               sigma: np.ndarray) -> np.ndarray:
    """Approximate top eigenvectors of build(owner, thetas), one row each as
    complex128, by one step of inverse iteration (Ipsen, SIAM Review 39,
    1997): the solve of (sigma I - K) x = b for the fixed b_i = cos(i), each
    sigma just above its matrix's top eigenvalue, which the sweep has
    computed. The rows are not normalized. A chunk whose solve raises or is
    not finite takes eigh's eigenvectors instead."""
    out = np.empty((thetas.size, dim), dtype=np.complex128)
    b = np.cos(np.arange(1.0, dim + 1))[:, None]
    for s in _chunks(thetas.size, dim, build.itemsize):
        shifted = build(owner[s], thetas[s])
        shifted *= -1
        shifted.reshape(len(shifted), -1)[:, ::dim + 1] += sigma[s, None]
        try:
            # b as one column per matrix: a 1-D b broadcasts over a stack
            # only from numpy 2.0 on
            x = np.linalg.solve(shifted, np.broadcast_to(b, shifted.shape[:-1] + (1,)))[..., 0]
        except np.linalg.LinAlgError:
            x = None
        if x is None or not np.isfinite(x).all():
            x = np.linalg.eigh(build(owner[s], thetas[s]))[1][..., -1]
        out[s] = x
    return out


def _ratios(a: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(|<Ax, x>|, ||Ax||^2) / ||x||^2 for a vector x of any length: ratios
    on x itself, since normalizing x first rounds and can lift the attained
    value above the radius (0.5 I would read 0.50000000000000011)."""
    ax = a @ x
    xx = float((x.conj() @ x).real)
    return abs(complex(x.conj() @ ax)) / xx, float((ax.conj() @ ax).real) / xx


def _pencil_g(t, s2, alpha: float, beta: float):
    """g = alpha t + sqrt((alpha t)^2 + beta s^2), the rho-pencil objective,
    at t = |<Ah, h>| and s2 = ||Ah||^2 of a unit h, elementwise."""
    return alpha * t + np.sqrt((alpha * t) ** 2 + beta * s2)


def _hermitian_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H, K) of each matrix of a stack, complex128 even for real a."""
    ah = a.conj().transpose(0, 2, 1)
    return (a + ah).astype(np.complex128) / 2, 1j * (a - ah) / 2


def _real_parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re A_s, -Im A_s) of each matrix of a stack, float64 copies that keep
    no complex A_s alive."""
    sym = (a + a.transpose(0, 2, 1)) / 2
    return sym.real.copy(), -sym.imag


def _rotation_builder(p: np.ndarray, q: np.ndarray):
    """build(owner, thetas, out=None): the matrices cos(theta) P + sin(theta) Q
    for P = p[owner[i]] and Q = q[owner[i]] at thetas[i], written into out
    when it is given; build.itemsize is the bytes of one of their entries."""

    def build(owner, thetas, out=None):
        r = np.take(p, owner, axis=0, out=out)
        r *= np.cos(thetas)[:, None, None]
        t = q[owner]
        t *= np.sin(thetas)[:, None, None]
        r += t
        return r
    build.itemsize = p.itemsize
    return build


def _pencil_builder(mats: np.ndarray, alpha: float, beta: float):
    """build(owner, thetas): the 2n x 2n linearizations K_theta = [[2 alpha
    H_theta, sqrt(beta) A*], [sqrt(beta) A, 0]] of A = mats[owner[i]] at
    thetas[i], Hermitian by construction, complex128 (build.itemsize 16)."""
    n = mats.shape[-1]
    top_left = _rotation_builder(*(2 * alpha * x for x in _hermitian_parts(mats)))
    lower = np.sqrt(beta) * mats

    def build(owner, thetas):
        k = np.zeros((thetas.size, 2 * n, 2 * n), dtype=np.complex128)
        top_left(owner, thetas, out=k[:, :n, :n])
        k[:, n:, :n] = lower[owner]
        k[:, :n, n:] = k[:, n:, :n].conj().transpose(0, 2, 1)
        return k
    build.itemsize = 16
    return build


def support_points(a, thetas) -> list[SupportPoint]:
    """Boundary samples of the numerical range at the given support angles,
    which must be finite."""
    (a,), e = _unit_scale(as_matrix(a)[None])
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    bad = thetas[~np.isfinite(thetas)]
    if bad.size:
        raise ValueError(f"support angles must be finite, got {bad[0]}")
    lam, vec = _top_eigenpairs(_rotation_builder(*_hermitian_parts(a[None])),
                               a.shape[0], np.zeros(thetas.size, dtype=np.intp),
                               thetas)
    points = np.array([v.conj() @ (a @ v) for v in vec], dtype=np.complex128)
    return [SupportPoint(float(t), float(h), complex(z))
            for t, h, z in zip(thetas, _scale_back(lam, e), _scale_back(points, e))]


def range_boundary(a, samples: int = 256) -> list[SupportPoint]:
    """Sample the numerical-range boundary on a uniform theta grid.

    The convex hull of the returned boundary points approximates W(A) from
    the inside.
    """
    samples = _check_count("samples", samples, 8)
    thetas = 2 * np.pi * np.arange(samples) / samples
    return support_points(a, thetas)


def _vertex(alpha: float, beta: float):
    """vertex(p, q, d): (bound, split offset) of intervals [a, a + d], d <
    pi/2, from their endpoint values p and q, shifted by any slack, by the
    interval rule of the module docstring for the minorant m(c) = alpha c +
    sqrt(alpha^2 c^2 + beta). The crossing estimate x starts at the vertex
    angle arctan2(q - p cos d, p sin d) of the support lines, exact at beta
    = 0, and takes three Newton steps on log(p/m(cos x)) - log(q/m(cos(d -
    x))) when beta > 0, on the crossing intervals only. A crossing is split
    at x clipped into [d/4, 3d/4], an end case at d/4 or 3d/4. The bound is
    -inf when p <= 0 or q <= 0, because W > 0 leaves no room for phi there.
    """

    def m(c):
        c = alpha * c
        return c + np.sqrt(c * c + beta)

    def slope(x):
        # -d/dx log m(cos x)
        return alpha * np.sin(x) / np.sqrt((alpha * np.cos(x)) ** 2 + beta)

    def vertex(p, q, d):
        live = (p > 0) & (q > 0)
        cos_d = np.cos(d)
        md = m(cos_d)
        low, high = p * md >= q, q * md >= p
        x = np.clip(np.arctan2(q - p * cos_d, p * np.sin(d)), 0, d)
        if beta > 0:
            # Newton steps on the intervals whose two constraints cross
            cross = live & ~low & ~high
            pc, qc, xc = p[cross], q[cross], x[cross]
            dc = d[cross]
            for _ in range(3):
                step = np.log(pc * m(np.cos(dc - xc)) / (qc * m(np.cos(xc))))
                xc = np.clip(xc - step / (slope(xc) + slope(dc - xc)), 0, dc)
            x[cross] = xc
        top = np.maximum(p / m(np.cos(x)), q / m(np.cos(d - x)))
        top = np.where(low, q / md, np.where(high, p / md, top))
        lo, hi = d / 4, 3 * d / 4
        offset = np.where(low, lo, np.where(high, hi, np.clip(x, lo, hi)))
        return np.where(live, top, -np.inf), offset
    return vertex


def _check_rotation(rotation, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(perm, signs, m) of a well-formed rotation claim on n x n matrices."""
    if len(rotation) != 3:
        raise ValueError(f"rotation must be (perm, signs, m), got {len(rotation)} "
                         "entries")
    perm, signs, m = rotation
    perm, signs = np.asarray(perm), np.asarray(signs)
    if perm.dtype.kind not in "iu" or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"rotation perm must be a permutation of range({n})")
    if signs.shape != (n,) or not np.all((signs == 1) | (signs == -1)):
        raise ValueError(f"rotation signs must be {n} entries, each +1 or -1")
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m == 0:
        raise ValueError(f"rotation order must be a nonzero integer, got {m!r}")
    return perm, signs, int(m)


def _rotation_slack(a: np.ndarray, rotation) -> tuple[int, float]:
    """(|m|, (|m| // 2 + 1) ||U* A U - e^{2 pi i/m} A||_F) of a checked claim,
    slack 0 at |m| = 1, a claim of nothing that sweeps the full circle."""
    perm, signs, m = rotation
    resid = _signed_conjugate(a, perm, signs) - np.exp(2j * np.pi / m) * a
    return abs(m), (abs(m) // 2 + (abs(m) > 1)) * float(np.linalg.norm(resid))


def _sweep(values, count: int, tol: float | np.ndarray, vertex,
           order: int | np.ndarray = 1,
           slack: float | np.ndarray = 0.0) -> tuple[np.ndarray, ...]:
    """Certified maxima of `count` functions of theta, swept in lockstep.

    values(owner, thetas) returns, for every i, the values of function
    owner[i] at thetas[i] and at thetas[i] + pi, one row each. Each function
    must dominate w m(cos(theta - phi)) - slack, where w > 0 is its maximum,
    phi the angle of a maximizer, tol, order and slack each a scalar or one
    value per owner and m the minorant of the interval rule vertex =
    _vertex(alpha, beta), one rule for every rho in (1, 2]: max(c, 0) at rho
    = 2 for H_theta and S_theta, the pencil's m in between for K_theta.

    Every owner sweeps the closed period [0, 2 pi/p], p = max(order, 2), on
    ceil(_COARSE/p) intervals in pairs ([l, r], [l + pi, r + pi]), each row
    of values giving one value to each half; order 1 is the full circle.
    Order > 1 is one period, where phi must lie, with rows folded to
    (f(theta), f(theta)): the copy ties, so it never changes best, a bound or
    a split. The last node takes node 0's row reversed, unevaluated: on a
    period f(0) stands in for f(2 pi/p), and the slack must cover that.

    Every interval pair carries its own endpoints and the index of its
    owner, and each half is bounded by vertex: no phi in it allows a
    maximum above that bound. A pair is split, at the split offset of its
    half with the larger bound (the first on a tie) while that bound plus a
    rounding guard exceeds best + tol; once it stops, bound plus guard goes
    into its owner's running maximum, which closes the owner's gap. Each
    owner keeps its pairs' order and its own best value, best angle and
    stopping round, so its result is bit for bit that of a sweep of its
    function alone. Returns the per-owner arrays (best, best_theta, gap,
    evaluations, rounds): the true maximum of function i lies in [best[i],
    best[i] + gap[i]], best_theta[i] is the angle of best[i], evaluations[i]
    counts its rows of values and rounds[i] its refinement rounds.
    """
    owners = np.arange(count)
    tol, order, slack = (np.broadcast_to(x, (count,)) for x in (tol, order, slack))
    # node k of owner i is at period[i] k/segments[i]
    p = np.maximum(order, 2)
    period, segments = 2 * np.pi / p, -(-_COARSE // p)
    node_owner = np.repeat(owners, segments + 1)
    k = np.arange(node_owner.size) - np.repeat(np.cumsum(segments) - segments + owners,
                                               segments + 1)
    theta = period[node_owner] * k / segments[node_owner]
    best, best_theta = np.full(count, -np.inf), np.zeros(count)

    def folded(owner, thetas):
        # the one place that tells a period from the full circle
        vals = values(owner, thetas)
        fold = order[owner] > 1
        vals[fold, 1] = vals[fold, 0]
        return vals

    def raise_best(owner, thetas, vals):
        # each owner's first largest value, its first-half values before its
        # second-half ones (angle order on the coarse grid), where it beats best
        new, new_owner = vals.T.ravel(), np.tile(owner, 2)
        new_theta = np.concatenate([thetas, thetas + np.pi])
        top = np.full(count, -np.inf)
        np.maximum.at(top, new_owner, new)
        at_top = np.flatnonzero(new == top[new_owner])
        first = np.full(count, new.size)
        np.minimum.at(first, new_owner[at_top], at_top)
        better = top > best
        best[better] = new[first[better]]
        best_theta[better] = new_theta[first[better]]

    last = k == segments[node_owner]
    vals = np.empty((theta.size, 2))
    vals[~last] = folded(node_owner[~last], theta[~last])
    raise_best(node_owner[~last], theta[~last], vals[~last])
    # the closing node, never evaluated
    vals[last] = vals[k == 0, ::-1]
    # interval pairs [left, right] + (0, pi) with their endpoint values
    left, right = theta[~last], theta[k > 0]
    h_left, h_right = vals[~last], vals[k > 0]
    owner = node_owner[~last]
    evaluations = segments.copy()
    rounds = np.zeros(count, dtype=int)
    bound = np.full(count, -np.inf)

    def bounds():
        # rounding guard on every bound, at most tol/2 so that tol = 1e-12
        # stays reachable for |best| > 1
        guard = np.minimum(1e-12 * np.maximum(1.0, np.abs(best)), tol / 2)
        s = slack[owner, None]
        # widths in the endpoints' shape: no ufunc of the rule broadcasts
        width = np.repeat((right - left)[:, None], 2, axis=1)
        top, offset = vertex(h_left + s, h_right + s, width)
        pair, half = np.arange(owner.size), np.argmax(top, axis=1)
        return top[pair, half] + guard[owner], offset[pair, half]

    for _ in range(_MAX_ROUNDS):
        upper, offset = bounds()
        # upper - best, not best + tol: the final gap is the same difference
        split = upper - best[owner] > tol[owner]
        np.maximum.at(bound, owner[~split], upper[~split])
        left, right, h_left, h_right, owner, offset = (
            x[split] for x in (left, right, h_left, h_right, owner, offset))
        # intervals split per owner; an owner stops when it splits none
        split_count = np.bincount(owner, minlength=count)
        if owner.size == 0:
            break
        cut = left + offset
        h_cut = folded(owner, cut)
        raise_best(owner, cut, h_cut)
        evaluations += split_count
        rounds += split_count > 0
        left, right = np.concatenate([left, cut]), np.concatenate([cut, right])
        h_left = np.concatenate([h_left, h_cut])
        h_right = np.concatenate([h_cut, h_right])
        owner = np.concatenate([owner, owner])
    else:
        # _MAX_ROUNDS ran out: the live intervals close their owners' gaps
        np.maximum.at(bound, owner, bounds()[0])
    return best, best_theta, bound - best, evaluations, rounds


def _radii(mats: list[np.ndarray], rho: float, tol: float,
           rotations: list) -> list[RadiusEstimate]:
    """Certified rho-radii of square matrices, for rho in [1, 2] and tol in
    range; rotations holds one well-formed claim (perm, signs, m), or None,
    per matrix, read at rho = 2. Each size-and-dtype group is checked and
    taken to unit scale as one stack, where each claim is measured and kept
    or refused for its own matrix; at rho = 1 the group takes one stacked
    SVD, else it becomes kernel records (inputs, build, dim). One sweep
    serves them all, record k owning sweep indices start[k]:start[k + 1],
    each owner with its own tol, order and slack, and each witness x takes
    the value g(x/||x||), as ratios on x."""
    out = [RadiusEstimate(0.0, rho, 0.0, True, None)] * len(mats)
    groups = {}
    for i, m in enumerate(mats):
        if m.any():
            groups.setdefault((m.shape, m.dtype), []).append(i)
    alpha, beta = 1.0 - 1.0 / rho, 2.0 / rho - 1.0
    # per matrix: unit-scale copy, exponent e and tol/2^e, e capped for
    # subnormals, and the sweep's order and slack
    unit, exps, tols = {}, np.zeros(len(mats), dtype=np.intc), np.zeros(len(mats))
    orders, slacks, records = np.ones(len(mats), dtype=int), np.zeros(len(mats)), []
    for group in groups.values():
        stack, inputs = np.stack([mats[i] for i in group]), np.array(group)
        n = stack.shape[-1]
        if np.abs(stack).max() > np.finfo(np.float64).max / (2 * n):
            raise ValueError(_NOT_FINITE)
        stack, exps[inputs] = _unit_scale(stack)
        tols[inputs] = np.ldexp(tol, -np.maximum(exps[inputs], np.finfo(np.float64).minexp))
        unit.update(zip(group, stack))
        if rho == 1.0:
            s, vh = np.linalg.svd(stack)[1:]
            for j, v, x in zip(group, np.ldexp(s[:, 0], exps[inputs]), vh[:, 0]):
                out[j] = RadiusEstimate(float(v), 1.0, 0.0, True, x.conj())
        elif rho == 2.0:
            for j, a in zip(group, stack):
                if rotations[j] is not None:
                    order, slack = _rotation_slack(a, rotations[j])
                    # a claim whose slack exceeds tol/2 sweeps the full circle
                    if slack <= tols[j] / 2:
                        orders[j], slacks[j] = order, slack
            skew = np.linalg.norm(stack - stack.transpose(0, 2, 1), axis=(1, 2)) / 2
            real = slacks[inputs] + skew <= tols[inputs] / 2
            slacks[inputs[real]] += skew[real]
            # a group on one path builds its pair from the stack itself, not
            # from a copy, which would raise the n = 500 peak
            records += [(inputs[mask],
                         _rotation_builder(*parts(stack if mask.all() else stack[mask])), n)
                        for mask, parts in ((~real, _hermitian_parts),
                                            (real, _real_parts)) if mask.any()]
        else:
            records.append((inputs, _pencil_builder(stack, alpha, beta), 2 * n))
    start = np.cumsum([0] + [len(inputs) for inputs, *_ in records])

    def values(owner, thetas):
        # one stack per kernel record: float64 S_theta apart from complex128
        # H_theta, and each size apart
        h = np.empty((thetas.size, 2))
        for k, (_, build, dim) in enumerate(records):
            sel = (start[k] <= owner) & (owner < start[k + 1])
            h[sel] = _top_eigenvalues(build, dim, owner[sel] - start[k], thetas[sel])
        return h

    owned = np.array([j for inputs, *_ in records for j in inputs], dtype=np.intp)
    best, best_theta, gap, evaluations, rounds = _sweep(
        values, start[-1], tols[owned], _vertex(alpha, beta), orders[owned],
        slacks[owned])
    for k, (inputs, build, dim) in enumerate(records):
        own = np.arange(start[k], start[k + 1])
        sigma = best[own] + 2.0 ** -44 * np.maximum(1.0, np.abs(best[own]))
        for i, j, shift, v in zip(own, inputs, sigma, _witnesses(
                build, dim, own - start[k], best_theta[own], sigma)):
            x = v[:len(unit[j])]
            # g(x/||x||), at rho = 2 exactly |<Ax, x>|/||x||^2, replaces best
            # only above the shift: below it, it is rounding of the same top
            # eigenvalue and may exceed w_rho(A)
            attained = _pencil_g(*_ratios(unit[j], x), alpha, beta)
            value = attained if attained > shift else best[i]
            # both scale back by 2^e
            value, gap_j = np.ldexp([value, gap[i]], exps[j])
            out[j] = RadiusEstimate(float(value), rho, float(gap_j), True,
                                    x / np.linalg.norm(x), int(evaluations[i]),
                                    int(rounds[i]))
    return out


def _streamed(jobs, rho: float, tol: float):
    """(key, estimates) of each job (key, mats, claims) of an iterable, in
    order, one claim or None per matrix. Jobs join a block until its
    matrices' bytes reach _BLOCK_BYTES, and the block takes one _radii call
    before the next job is pulled: a block holds less than _BLOCK_BYTES plus
    its last job, and every estimate is bit for bit its own sweep."""
    block, size = [], 0
    for job in jobs:
        block.append(job)
        size += sum(m.nbytes for m in job[1])
        if size >= _BLOCK_BYTES:
            done, block, size = _swept(block, rho, tol), [], 0
            del job  # else it stays alive while the next job is built
            yield from done
    if block:
        yield from _swept(block, rho, tol)


def _swept(block: list, rho: float, tol: float) -> list:
    """(key, estimates) of each job of a block, from one _radii call."""
    ests = iter(_radii([m for _, mats, _ in block for m in mats], rho, tol,
                       [c for *_, claims in block for c in claims]))
    return [(key, [next(ests) for _ in mats]) for key, mats, _ in block]


def numerical_radius(a, tol: float = 1e-9,
                     rotation: tuple | None = None) -> RadiusEstimate:
    """Numerical radius w(A) = sup |<Ah, h>| over unit vectors, certified.

    The returned value is a lower bound on w(A) within the tolerance field
    of it, the certified gap, which is at most `tol` unless the round cap
    runs out first. tol outside [1e-12, 1e-2], or NaN, raises ValueError.

    rotation=(perm, signs, m) claims U* A U ~ e^{2 pi i/m} A for the signed
    permutation U e_j = signs[j] e_{perm[j]}: perm a permutation of range(n),
    each sign exactly +1 or -1 (so U is unitary) and m a nonzero integer, else
    ValueError. The claim is measured; when its slack is at most tol/2 only
    one period of the support function is swept and the slack is folded into
    the gap, otherwise the claim is ignored and the full circle is swept.
    This is the engine's call on one matrix and its claim; family_radii and
    scaling_experiment make it on many, each result bit for bit its own.
    """
    a = as_matrix(a)
    checked = None if rotation is None else _check_rotation(rotation, a.shape[0])
    return _radii([a], 2.0, _check_tol(tol), [checked])[0]


# g on the unit sphere, sphere_maximize's objective
def _sphere_objective(a: np.ndarray, h: np.ndarray, alpha: float, beta: float):
    ah = h @ a.T
    q = np.sum(h.conj() * ah, axis=1)
    t, s = np.abs(q), np.linalg.norm(ah, axis=1)
    return _pencil_g(t, s * s, alpha, beta), q, t, s, ah


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
    rho = _check_rho(rho)
    (a,), e = _unit_scale(as_matrix(a)[None])
    restarts = _check_count("restarts", restarts, 1)
    iters = _check_count("iters", iters, 0)
    n, alpha, beta = a.shape[0], 1.0 - 1.0 / rho, 2.0 / rho - 1.0

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
    return float(_scale_back(g[i], e[0])), h[i]


def rho_radii(mats, rho: float, tol: float = 1e-6) -> list[RadiusEstimate]:
    """Operator rho-radii of any square matrices, swept in lockstep blocks.

    Entry i equals rho_radius(mats[i], rho, tol) bit for bit: each matrix
    keeps the float64 or complex128 stack of its own call and its own best
    value, stopping round and gap, in one certified sweep per block whose
    matrices reach _BLOCK_BYTES, so a long list takes bounded memory. Zero
    matrices get value 0, gap 0 and no witness.
    """
    mats = [as_matrix(m) for m in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    jobs = ((None, [m], [None]) for m in mats)
    return [est for _, (est,) in _streamed(jobs, _check_rho(rho), _check_tol(tol))]


def rho_radius(a, rho: float, tol: float = 1e-6) -> RadiusEstimate:
    """Operator rho-radius w_rho(A) for 1 <= rho <= 2, certified.

    rho = 1 is the operator norm, from one SVD, and rho = 2 the numerical
    radius. In between, the maximum over theta of lambda_max(K_theta) is
    swept with the same certified refinement (see the module
    docstring); the value is a lower bound within the reported tolerance of
    w_rho(A) and is attained by the witness up to rounding. tol outside
    [1e-12, 1e-2], or NaN, raises ValueError.
    rho outside [1, 2] is rejected; the restricted sup formula for rho > 2 is
    deliberately unsupported. This is rho_radii on a list of one.
    """
    return rho_radii([a], rho, tol)[0]

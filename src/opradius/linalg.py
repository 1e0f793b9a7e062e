"""Dense matrix kernels: singular values, the unitary polar factor, inversion,
conjugation by a signed permutation, the JSON matrix file format, atomic
file writes, and the BLAS thread cap the CLI runs its subcommands under.

Operators are square numpy arrays: complex input becomes complex128 and real
input stays float64, so the real band and certificate matrices of the
extremal family take the cheaper real LAPACK paths. Singular values and the
polar factor both come from one LAPACK SVD, which keeps the condition number
unsquared down to the documented floor sigma_min/sigma_max = 1e-12. Every
function is a pure function of its inputs and never mutates its arguments,
so concurrent calls on shared read-only matrices are safe.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import os

import numpy as np

__all__ = [
    "as_matrix",
    "singular_values",
    "inverse",
    "matrix_to_payload",
    "matrix_from_payload",
    "load_matrix",
    "save_matrix",
]

# sigma_min/sigma_max below which a matrix is treated as singular.
CONDITION_FLOOR = 1e-12


def as_matrix(a) -> np.ndarray:
    """Validate and return a square matrix with finite entries.

    Complex input becomes complex128 and anything else float64.
    """
    m = np.asarray(a)
    m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix must have dimension >= 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _check_count(name: str, value, minimum: int, cap: int | None = None) -> int:
    """value as an int; bools, non-integers and values outside [minimum, cap] raise."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if cap is not None and value > cap:
        raise ValueError(f"{name} is capped at {cap}, got {value!r}")
    return int(value)


def singular_values(a) -> np.ndarray:
    """Singular values of a square matrix, descending, from the LAPACK SVD.

    The SVD is backward stable, so every value is accurate to a small multiple
    of eps * sigma_max. A Gram-matrix route would lose half the digits of
    sigma_min: about 1e-8 absolute error instead of 1e-16 near the 1e-12
    condition floor.
    """
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def _check_invertible(sv: np.ndarray) -> None:
    if sv[0] == 0.0 or sv[-1] <= CONDITION_FLOOR * sv[0]:
        raise np.linalg.LinAlgError(
            f"matrix is singular to working precision "
            f"(sigma_min/sigma_max = {0.0 if sv[0] == 0.0 else sv[-1] / sv[0]:.3e})"
        )


def inverse(a) -> np.ndarray:
    """Matrix inverse, rejecting inputs with sigma_min <= 1e-12 sigma_max."""
    a = as_matrix(a)
    return _inverse(a, singular_values(a))


def _inverse(a: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """inverse(a) for a validated matrix whose singular values sv are known."""
    _check_invertible(sv)
    return np.linalg.inv(a)


def _polar_svd(a) -> tuple[np.ndarray, np.ndarray]:
    """(W Vh, s) from the SVD A = W diag(s) Vh of an invertible matrix.

    W Vh is the unitary polar factor (Higham, SIAM J. Sci. Stat. Comput. 7,
    1986), the nearest unitary to A in operator norm; matrices with
    sigma_min <= 1e-12 sigma_max are rejected.
    """
    w, s, vh = np.linalg.svd(as_matrix(a))
    _check_invertible(s)
    return w @ vh, s


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS this process has mapped
    (numpy's), or None where there is none or it has no such functions.

    Only a library already in /proc/self/maps is opened: a second copy would
    start its own thread pool and cap nothing.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:  # no /proc: not Linux
        return None
    # the pathname is the sixth field of a mapping that has one
    paths = sorted({f[5].rstrip("\n") for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _serial_blas():
    """Run the block on one OpenBLAS thread and restore the count found on
    exit.

    The thread count is process-wide state, so only the CLI, which owns its
    process, enters this. On one thread the results no longer depend on
    OPENBLAS_NUM_THREADS. Without an OpenBLAS that exposes its thread count
    (MKL, Accelerate, another platform) this does nothing.
    """
    blas = _openblas_threads()
    found = blas[0]() if blas is not None else 1
    if found == 1:
        yield
        return
    blas[1](1)
    try:
        yield
    finally:
        blas[1](found)


def _signed_conjugate(a: np.ndarray, perm, signs) -> np.ndarray:
    """U* A U for the signed permutation U e_j = signs[j] e_{perm[j]}: entry (i, j)
    is signs[i] signs[j] A[perm[i], perm[j]], the dense product up to signed zeros."""
    return a[np.ix_(perm, perm)] * np.outer(signs, signs)


# ---------------------------------------------------------------------------
# Matrix file format: {"dim": n, "re": [n*n floats], "im": [n*n floats]},
# row-major. This is the wire format accepted by every CLI --matrix flag.
# ---------------------------------------------------------------------------


def matrix_to_payload(a) -> dict:
    """Serialize a matrix to the JSON payload dict."""
    m = as_matrix(a)
    n = m.shape[0]
    return {
        "dim": n,
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }


def matrix_from_payload(payload: dict) -> np.ndarray:
    """Parse the JSON payload dict back into a validated matrix."""
    if not isinstance(payload, dict):
        raise ValueError("matrix payload must be a JSON object")
    missing = {"dim", "re", "im"} - set(payload)
    if missing:
        raise ValueError(f"matrix payload is missing keys: {sorted(missing)}")
    n = _check_count("matrix payload 'dim'", payload["dim"], 1)
    entries = payload["re"], payload["im"]
    message = "matrix payload 're'/'im' must hold dim*dim floats"
    # JSON numbers only: a float64 conversion alone takes "1.5" and true too
    if not all(isinstance(x, list) and len(x) == n * n
               and set(map(type, x)) <= {int, float} for x in entries):
        raise ValueError(message)
    try:
        re, im = (np.array(x, dtype=np.float64) for x in entries)
    except OverflowError:  # an integer beyond float64's range
        raise ValueError(message) from None
    return as_matrix((re + 1j * im).reshape(n, n))


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_payload(json.load(fh))


def save_matrix(path, a) -> None:
    """Write a matrix file atomically."""
    atomic_write(path, json.dumps(matrix_to_payload(a)))


def atomic_write(path, text: str) -> None:
    """Write text to path through a temp file in its directory, then rename.

    The temp file is created with mode 0o666 less the umask, the mode a plain
    open(path, "w") gives a new file; the random name and O_EXCL keep it from
    clobbering another writer's temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

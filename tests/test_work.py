"""Exact work counts of the north-star runs.

Each run goes through `cli.main` with numpy's dense kernels wrapped, counting
the matrices each kernel solves (a stack of k matrices counts k) and the
calls it takes. Wall times on a shared machine resolve about 10% at best;
these counts are exact. A change that adds work to a run fails here; one that
removes work lowers the pin.
"""

import numpy as np
import pytest

from opradius import cli

KERNELS = ("svd", "inv", "solve", "eigvalsh", "eigh")

# (matrices, calls) per kernel; a kernel a run never calls has no entry.
# random-test draws 200 samples of dims 2-8 at the default seed.
VERIFY = {"svd": (5, 5), "inv": (1, 1), "solve": (1, 1), "eigvalsh": (9, 9),
          "eigh": (2, 2)}
PINS = {
    "extremal scaling --kmin 1 --kmax 18": {
        "svd": (18, 18), "inv": (18, 18), "eigvalsh": (108, 71), "eigh": (36, 26)},
    "extremal verify --n 148": VERIFY,
    "extremal verify --n 252": VERIFY,
    "extremal verify --n 500": VERIFY,
    "random-test --rho 1 --samples 200": {"svd": (600, 207), "inv": (200, 200)},
    "random-test --rho 1.5 --samples 200": {
        "svd": (200, 200), "inv": (200, 200), "eigvalsh": (8033, 170), "eigh": (400, 9)},
    "random-test --rho 2 --samples 200": {
        "svd": (200, 200), "inv": (200, 200), "eigvalsh": (7694, 96), "eigh": (400, 7)},
}


def counted(kernel, name, counts):
    def wrapper(a, *args, **kwargs):
        matrices, calls = counts.get(name, (0, 0))
        counts[name] = (matrices + int(np.prod(np.shape(a)[:-2])), calls + 1)
        return kernel(a, *args, **kwargs)
    return wrapper


@pytest.mark.parametrize("run", list(PINS))
def test_work_is_at_most_its_pin(run, monkeypatch, capsys):
    counts = {}
    for name in KERNELS:
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), name, counts))
    assert cli.main(run.split()) == 0
    capsys.readouterr()
    over = {name: (got, PINS[run].get(name, (0, 0))) for name, got in counts.items()
            if any(g > p for g, p in zip(got, PINS[run].get(name, (0, 0))))}
    assert over == {}, f"(matrices, calls) against pin: {over}"

"""Shared test helpers: random graphs and the finite-difference oracle."""

import numpy as np
import pytest

from gadkit import _blas
from gadkit.autodiff import Tape, Tensor, backward
from gadkit.graph import build_graph


def random_graph(rng, n, avg_degree=4.0, feature_dim=5, anomaly_frac=0.1):
    """Erdos-Renyi graph with gaussian features and random anomaly labels."""
    p = min(avg_degree / max(n - 1, 1), 1.0)
    mask = rng.random((n, n)) < p
    iu, ju = np.where(np.triu(mask, k=1))
    features = rng.standard_normal((n, feature_dim))
    labels = np.zeros(n, dtype=np.int64)
    n_anom = max(1, int(anomaly_frac * n))
    labels[rng.choice(n, size=n_anom, replace=False)] = 1
    return build_graph(list(zip(iu, ju)), features, labels)


def dense_adjacency(g):
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u in range(g.num_nodes):
        a[u, g.neighbors(u)] = 1.0
    return a


def analytic_and_numeric_grads(make_loss, arrays, step=1e-5):
    """Analytic grads via backward() vs central finite differences.

    make_loss takes one Tensor per input array and returns a scalar Tensor.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = make_loss(*tensors)
    backward(tape, loss, params=tensors)
    analytic = [t.grad.copy() for t in tensors]

    def value():
        return make_loss(*[Tensor(a) for a in arrays]).item()

    numeric = []
    for a in arrays:
        grad = np.zeros_like(a)
        flat_a, flat_g = a.ravel(), grad.ravel()
        for j in range(flat_a.size):
            orig = flat_a[j]
            flat_a[j] = orig + step
            hi = value()
            flat_a[j] = orig - step
            lo = value()
            flat_a[j] = orig
            flat_g[j] = (hi - lo) / (2.0 * step)
        numeric.append(grad)
    return analytic, numeric


def max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1.0, np.abs(n))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def assert_gradients_match(make_loss, arrays, tol=1e-4, step=1e-5):
    analytic, numeric = analytic_and_numeric_grads(make_loss, arrays, step=step)
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"gradient mismatch: max relative error {err:.3e}"


@pytest.fixture
def blas_threads():
    """OpenBLAS set to 2 threads for the test, restored after it.

    Two, not the machine's default, so that holding BLAS to one thread
    shows even on a one-core machine.
    """
    before = _blas.threads()
    if before is None:
        pytest.skip("no OpenBLAS thread get/set functions found in "
                    f"numpy's bundled library ({_blas.library_pattern()})")
    _blas.set_threads(2)
    assert _blas.threads() == 2
    yield 2
    _blas.set_threads(before)

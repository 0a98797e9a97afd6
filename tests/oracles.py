"""Reference implementations used only as test oracles.

Coded independently of the package under test: plain numpy, matrices
only, no shared helpers.
"""

import numpy as np


def matrix_complete_admm(y, observed, rho=1.1, mu0=1e-4, mu_max=1e10, eps=1e-8,
                         max_iters=500):
    """Nuclear-norm matrix completion of a single 2-d array by ADMM.

    y holds observed values (zero where unobserved); observed is a boolean
    array marking the known entries.
    """
    x = np.zeros_like(y)
    e = np.zeros_like(y)
    z = np.zeros_like(y)
    mu = mu0
    for _ in range(max_iters):
        u, s, vh = np.linalg.svd(y - e + z / mu, full_matrices=False)
        x_new = (u * np.maximum(s - 1.0 / mu, 0.0)) @ vh
        e_new = np.where(observed, 0.0, y - x_new + z / mu)
        z = z + mu * (y - x_new - e_new)
        done = (np.max(np.abs(y - x_new - e_new)) <= eps
                and np.max(np.abs(x_new - x)) <= eps
                and np.max(np.abs(e_new - e)) <= eps)
        x, e = x_new, e_new
        mu = min(rho * mu, mu_max)
        if done:
            break
    return x


def prox_unfolded_unscreened(t3, q, lam, n1, n2):
    """The Q-nuclear prox with one SVD per transformed slice, none skipped.

    Same arguments and results as ``tqrank.qnorm._prox_unfolded``: t3 is the
    (n1*n2, n3) mode-3 unfolding, q an (n3, r) column-orthonormal transform.
    """
    g3 = t3 @ q
    stack = np.moveaxis(np.reshape(g3, (n1, n2, -1), order="F"), 2, 0)
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    s = np.maximum(s - lam, 0.0)
    shrunk = np.matmul(u * s[:, None, :], vh)
    g3_shrunk = np.reshape(np.moveaxis(shrunk, 0, 2), (n1 * n2, -1), order="F")
    x3 = g3_shrunk @ q.T + (t3 - g3 @ q.T)
    return x3, float(s.sum())

"""Chebyshev interpolation and quadrature in the draw u in [-1, 1], math only.

A function of u fitted on NODES first-kind Chebyshev nodes x is resolved when
the fit meets it at the 2*NODES Chebyshev nodes y between them within TOLERANCE
(tables). A polynomial of degree < 2*NODES is summed over a row of draws exactly
on the nodes y, with weights from the draws' power sums S_k = sum_i T_k(u_i).
fidelity loads this module only when a point may take the fit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: a function of u is fitted on this many Chebyshev nodes
NODES = 8
#: the largest error of a resolved fit at the quadrature nodes, which lie between its own
TOLERANCE = 1e-13


def _chebyshev(x: np.ndarray, degrees: int) -> np.ndarray:
    """T_j(x) for j < degrees, one row per j, by T_{j+1} = 2x*T_j - T_{j-1}."""
    t = np.empty((degrees, len(x)))
    t[0], t[1] = 1.0, x
    for j in range(2, degrees):
        t[j] = 2.0 * x * t[j - 1] - t[j - 2]
    return t


@functools.cache
def tables():
    """The fit's u values (the NODES nodes x, then the 2*NODES quadrature nodes
    y, both first-kind Chebyshev points), the map from values at x to the fit's
    values at y, and the (2*NODES, 2*NODES) map from the power sums
    S_k = sum_i T_k(u_i) to weights W with sum_i p(u_i) = sum_k W_k p(y_k) for every
    polynomial p of degree < 2*NODES. Built once per process, on first use, so
    a run that fits nothing builds none."""
    x, y = (np.array([math.cos(math.pi * (j + 0.5) / k) for j in range(k)])
            for k in (NODES, 2 * NODES))

    def transform(points):  # values at the points -> Chebyshev coefficients
        scale = np.full((len(points), 1), 2.0 / len(points))
        scale[0] = 1.0 / len(points)
        return scale * _chebyshev(points, len(points))

    return (np.concatenate((x, y)), (_chebyshev(y, NODES).T @ transform(x)).T,
            transform(y))


def power_sums(u: np.ndarray, degrees: int) -> np.ndarray:
    """S_k = sum_i T_k(u_i) over the last axis of u, for k < degrees (even).

    T_k for k <= h = degrees/2 come from T_{k+1} = 2u*T_k - T_{k-1}, and the sums
    above h from T_{h+j} = 2*T_h*T_j - T_{h-j}, so no row above T_h is formed.
    """
    h = degrees // 2
    t = np.empty((h + 1, *u.shape))
    t[0], t[1] = 1.0, u
    two_u = u + u
    for k in range(2, h + 1):
        np.subtract(np.multiply(two_u, t[k - 1], out=t[k]), t[k - 2], out=t[k])
    low = np.add.reduce(t, axis=-1)
    high = 2.0 * np.add.reduce(np.multiply(t[1:h], t[h], out=t[1:h]), axis=-1) - low[h - 1:0:-1]
    return np.moveaxis(np.concatenate((low, high)), 0, -1)


def weights(u: np.ndarray) -> np.ndarray:
    """Per row of draws u, (rows, draws), the weights W of the 2*NODES quadrature
    nodes y with sum_i p(u_i) = sum_k W_k p(y_k) for every polynomial p of degree
    < 2*NODES. Each row is its own (1 x 2*NODES) product, so its weights do not
    depend on the number of rows."""
    return np.matmul(power_sums(u, 2 * NODES)[:, None], tables()[2])[:, 0]

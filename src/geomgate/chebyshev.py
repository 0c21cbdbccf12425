"""Chebyshev fit of a lock-step point's basis rows in the draw u, and the
quadrature that sums a polynomial in u over a state's draws.

fidelity._paths loads this module only when a point may take the fit
(lock-step draws, m >= fidelity._FIT_MIN_SHOTS), so other runs never compile
it; a sweep fits once, over all its feasible points, before its batches run.
It computes no rows of its own: a point's basis rows are fidelity._rows's,
less those at u = 0, as the estimator reads them. They are fitted on NODES
first-kind Chebyshev nodes x in u in [-1, 1]; the fit resolves them when it
meets them at the 2*NODES Chebyshev nodes y between its own within TOLERANCE.
A polynomial of degree < 2*NODES is then summed over a state's draws exactly on
the nodes y, with weights from the power sums S_k = sum_i T_k(u_i) of the draws.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import fidelity

#: a point's basis rows are fitted in u on this many Chebyshev nodes
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
    """The fit's u values (0, the NODES nodes x, then the 2*NODES quadrature
    nodes y, both first-kind Chebyshev points), the map from values at x to the fit's
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

    return (np.concatenate(([0.0], x, y)), (_chebyshev(y, NODES).T @ transform(x)).T,
            transform(y))


def fit(params: list, live: list, cfg: fidelity.EstimatorConfig) -> np.ndarray:
    """Per point, whether the fit resolves its basis rows (a bool array).

    The rows are fidelity._rows's (r, s*det, s*w0, sigma of each block) at the
    relative draws of tables(), under the columns of fidelity._columns, less those at
    u = 0: the rows the estimator reads at the nodes y. The rows a block's axis does
    not read are zeroed, so the check reads the model's own rows: a point is
    resolved when the fit on the nodes x meets them at the nodes y within TOLERANCE
    (never when they are not finite). live is the blocks the estimator reads
    (fidelity._weights). fit takes as many points at a time as keep a (blocks,
    points, u) array within fidelity._CHUNK_ELEMENTS elements; _rows' work array,
    (5*blocks + 2, points, u), holds five of them and two rows.
    """
    u, to_y, _ = tables()
    cols, b, spec = fidelity._columns(params, live, cfg), len(live), cfg.spec
    noisy0, scale = 1.0 + spec.delta0 * u, 1.0 + spec.delta1 * u
    span = max(1, fidelity._CHUNK_ELEMENTS // (b * len(u)))
    resolved = []
    for lo in range(0, len(params), span):
        c = fidelity._cut(cols, slice(lo, lo + span))
        work = np.empty((5 * b + 2, len(c["pio"]), 1, len(u)))
        # (4, blocks, points, 1, u); index 0 of u is u = 0
        rows = fidelity._rows(c, noisy0, scale, work)
        change = rows - rows[..., :1]
        noisy = c["axis"][0]
        change[1:3] *= noisy
        change[3] *= 1.0 - noisy
        at_x, at_y = change[..., 1:NODES + 1], change[..., NODES + 1:]
        resolved.append(np.abs(np.matmul(at_x, to_y) - at_y).max(axis=(0, 1, 3, 4)) <= TOLERANCE)
    return np.concatenate(resolved)


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

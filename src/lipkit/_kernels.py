"""Hot numeric kernels in plain numpy.

Callers supply every noise stream, as an array or an iterator of draws, so
each kernel is a deterministic function of its arguments.
"""

from __future__ import annotations

import numpy as np


def backend_name():
    return "numpy"


def power_iterate(a, at, u0, iters):
    """Alternating power iteration; returns (u, v, per-step sigma estimates).

    Update k -> k+1 uses the step-k pair on both sides:
        v' = normalize(at @ u),  u' = normalize(a @ v).
    The start couples v0 to u0 (v0 = normalize(at @ u0)) so the estimate
    u^T A v converges to +sigma_1.
    """
    m = a.shape[0]
    u = u0 / np.sqrt(np.dot(u0, u0))
    v = at @ u
    nv = np.sqrt(np.dot(v, v))
    if nv == 0.0:
        # u0 fell in the left null space; restart from a fixed basis vector
        u = np.zeros(m)
        u[0] = 1.0
        v = at @ u
        nv = np.sqrt(np.dot(v, v))
    v = v / nv
    history = np.empty(iters)
    av = a @ v
    for t in range(iters):
        nu = np.sqrt(np.dot(av, av))
        u_next = av / nu if nu > 0.0 else u
        v_next = at @ u
        nv = np.sqrt(np.dot(v_next, v_next))
        v = v_next / nv if nv > 0.0 else v
        u = u_next
        # the next step's u is normalize(a @ v) for this same v
        av = a @ v
        history[t] = np.dot(u, av)
    return u, v, history


def shapley_accumulate(values, weights, popcounts, n_players):
    """Exact Shapley sums; values indexed by coalition bitmask."""
    psi = np.zeros(n_players)
    masks = np.arange(values.shape[0], dtype=np.int64)
    for i in range(n_players):
        bit = np.int64(1) << i
        without = masks[(masks & bit) == 0]
        psi[i] = np.sum(
            weights[popcounts[without]] * (values[without | bit] - values[without])
        )
    return psi


def em_path(x0, drift, sqrt_cov, dt, noise_scale, normals, keep):
    """Euler-Maruyama steps x <- x - drift(x) dt + noise_scale sqrt_cov z from
    x0, one state (d,) or a stack of paths (n_paths, d). ``normals`` yields
    each step's standard-normal draw z, shaped like x0; ``drift(x)`` must not
    modify x. Returns only the states at the steps in ``keep`` (0 is x0)."""
    keep = set(keep)
    x = x0
    kept = [x] if 0 in keep else []
    for t, z in enumerate(normals, 1):
        x = x - drift(x) * dt  # a new array: x0 and kept states stay as they are
        x += noise_scale * (z @ sqrt_cov.T)
        if t in keep:
            kept.append(x)
    return kept


def direct_dft(samples, axis_proj, ts, scale):
    """out[j] = scale * sum_i samples[i] * exp(-2*pi*i * ts[j] * proj[i]) on a
    1-D or 2-D grid. ``samples`` is the grid flattened in C order, and
    ``axis_proj`` holds one projection per axis, so that sample (x, y) has
    proj = axis_proj[0][x] + axis_proj[1][y]. A 1-D grid is the (n x 1) grid
    whose second projection is 0.

    The phase splits by axis, exp(-2*pi*i*t*(p0 + p1)) = exp(-2*pi*i*t*p0) *
    exp(-2*pi*i*t*p1), so out[j] = scale * sum_y (E0[j] @ F)[y] * E1[j, y]
    with F the (n0 x n1) grid: T*(n0 + n1) exponentials and T*n0*n1
    multiply-adds. ts is taken in chunks so that no temporary holds more than
    about 4M entries.
    """
    p0, p1 = (*axis_proj, np.zeros(1))[:2]
    grid = samples.reshape(p0.shape[0], p1.shape[0])
    out = np.empty(ts.shape[0], dtype=np.complex128)
    chunk = max(1, 4_000_000 // max(1, *grid.shape))
    for start in range(0, ts.shape[0], chunk):
        t = ts[start:start + chunk]
        n = t.shape[0]
        e0 = np.exp(-2j * np.pi * np.outer(t, p0))
        e1 = np.exp(-2j * np.pi * np.outer(t, p1))
        # the real and imaginary rows of E0 in one real product, so the grid
        # is never copied to complex
        rows = np.concatenate((e0.real, e0.imag)) @ grid
        out[start:start + n] = np.sum((rows[:n] + 1j * rows[n:]) * e1, axis=1)
    return out * scale

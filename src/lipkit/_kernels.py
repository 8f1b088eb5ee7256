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
    for t in range(iters):
        u_next = a @ v
        nu = np.sqrt(np.dot(u_next, u_next))
        if nu > 0.0:
            u_next = u_next / nu
        else:
            u_next = u
        v_next = at @ u
        nv = np.sqrt(np.dot(v_next, v_next))
        if nv > 0.0:
            v_next = v_next / nv
        else:
            v_next = v
        u = u_next
        v = v_next
        history[t] = np.dot(u, a @ v)
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


def direct_dft(samples, proj, ts, scale):
    """out[j] = scale * sum_i samples[i] * exp(-2*pi*i * ts[j] * proj[i]).

    The phase matrix is built in chunks of ts to bound memory on large grids.
    """
    out = np.empty(ts.shape[0], dtype=np.complex128)
    chunk = max(1, int(4_000_000 // max(1, samples.shape[0])))
    for start in range(0, ts.shape[0], chunk):
        stop = min(start + chunk, ts.shape[0])
        phase = np.exp(-2j * np.pi * np.outer(ts[start:stop], proj))
        out[start:stop] = phase @ samples
    return out * scale

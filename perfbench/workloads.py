"""Seeded inputs, job lists and independent output checks for each workload.

``build(name, seed, workdir, quick)`` writes every input file of a workload
into ``workdir`` and returns its jobs. A job is one ``lipkit`` invocation
plus a check that reads the job's stdout and output files and recomputes
the expected result with plain numpy, without importing lipkit. Inputs are
written before any timing starts; the program only ever sees these files.

Why these workloads (each one stresses layers the others bypass):

* graph-certify -- ``bound`` on a residual network with hundreds of cut
  vertices and tied weights: the quadratic ``articulation_bound``, per-node
  spectral norms recomputed for tied weights, power iteration on the large
  weights, and a multi-megabyte JSON parse. Never touches svdcalc,
  dynamics, fourlip or specgame.
* sv-dynamics -- ``dynamics --traj-out`` and ``svd-deriv --order 2``: dense
  mn x mn Hessians, one per stored trajectory row, an ``eigh`` per row,
  and a large CSV written by the CLI. Never touches netbounds.
* spectral-game -- ``fourier`` (FFT, direct DFT along a line, radial ESD,
  band removal) on a 2-D signal and ``shapley`` (exact and Monte Carlo):
  the signal and game CSV readers and Shapley accumulation. Bypasses the
  dense linear algebra.
* cli-short -- small invocations where interpreter start and import are
  almost all of the wall time; the only workload that measures
  ``activations``.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("graph-certify", "sv-dynamics", "spectral-game", "cli-short")

# Full and quick (smoke-test) sizes. The quick sizes still take every code
# path the full ones take (power iteration needs a side above 256).
SIZES = {
    "graph-certify": {
        "full": dict(blocks=150, small=64, n_small=8, big=512, n_big=2, big_every=100),
        "quick": dict(blocks=6, small=8, n_small=3, big=260, n_big=1, big_every=5),
    },
    "sv-dynamics": {
        "full": dict(dyn=12, steps=100, hess=24),
        "quick": dict(dyn=3, steps=5, hess=3),
    },
    "spectral-game": {
        "full": dict(grid=256, tones=12, n_t=64, players=16, perms=20000),
        "quick": dict(grid=32, tones=3, n_t=4, players=4, perms=50),
    },
}

REL_TOL = 1e-12


def fmt(x):
    return format(float(x), ".17g")


@dataclass
class Verdict:
    """Outcome of one job's output check: failed check names, checks that
    failed only through a documented defect of the program (``known``),
    and numbers the check measured on the way (diagnostics, not pass/fail)."""

    failures: list = field(default_factory=list)
    diag: dict = field(default_factory=dict)
    known: list = field(default_factory=list)

    def require(self, ok, name):
        if not ok:
            self.failures.append(name)


@dataclass
class Job:
    name: str
    argv: list
    check: Callable[[str], Verdict]


def all_of(*checks):
    """One job's check made of several; every failure is reported."""

    def check(stdout):
        verdict = Verdict()
        for part in checks:
            result = part(stdout)
            verdict.failures += result.failures
            verdict.known += result.known
            verdict.diag.update(result.diag)
        return verdict

    return check


# ---------------------------------------------------------------------------
# small file helpers
# ---------------------------------------------------------------------------

def write_matrix(path, arr):
    with open(path, "w") as fh:
        for row in np.atleast_2d(arr):
            fh.write(",".join(fmt(x) for x in row) + "\n")


def read_matrix(path):
    with open(path) as fh:
        text = fh.read()
    lines = text.split()
    width = lines[0].count(",") + 1
    return np.array(",".join(lines).split(","), dtype=np.float64).reshape(len(lines), width)


def labelled(stdout, label):
    """Float after ``label = `` on its first stdout line, or None."""
    m = re.search(r"^" + re.escape(label) + r" = (\S+)$", stdout, re.M)
    return float(m.group(1)) if m else None


def labelled_all(stdout, prefix):
    return [float(v) for v in re.findall(r"^" + re.escape(prefix) + r"\[\d+\] = (\S+)$", stdout, re.M)]


def spaced_matrix(rng, m, n, top=3.0, bottom=0.5):
    """Random m x n matrix with well separated singular values, so every
    derivative formula is far from a crossing."""
    k = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.linspace(top, bottom, k)
    return (u[:, :k] * s) @ v[:, :k].T


# ---------------------------------------------------------------------------
# graph-certify
# ---------------------------------------------------------------------------

ACTS = ("relu", "tanh", "gelu", {"name": "leaky_relu", "alpha": 0.1}, "swish")


def residual_network(rng, blocks, small, n_small, big, n_big, big_every):
    """A chain of residual blocks. Per block: linear a -> activation r,
    which forks into linear c and a unit skip s, joined by the add node e.
    a, r and e are cut vertices, so a network of B blocks has 3B cuts.
    Weights are Gaussian scaled to spectral norm about 1 (so the path sum
    stays finite) and tied: every linear node draws from a small pool, and
    every ``big_every``-th one from the pool of big matrices, whose side is
    above the 256 columns where ``--spectral auto`` switches to power
    iteration."""
    matrices = {}
    for i in range(n_small):
        matrices[f"w{small}_{i}"] = rng.standard_normal((small, small)) / (2 * math.sqrt(small))
    for i in range(n_big):
        matrices[f"w{big}_{i}"] = rng.standard_normal((big, big)) / (2 * math.sqrt(big))
    nodes = [{"id": "in", "kind": "input"}]
    edges = []
    prev = "in"
    n_linear = 0

    def weight():
        nonlocal n_linear
        n_linear += 1
        if n_linear % big_every == 0:
            return f"w{big}_{(n_linear // big_every) % n_big}"
        return f"w{small}_{n_linear % n_small}"

    for b in range(blocks):
        a, r, c, s, e = (f"b{b}{x}" for x in "arcse")
        nodes += [
            {"id": a, "kind": "linear", "weight_ref": weight()},
            {"id": r, "kind": "activation", "activation": ACTS[b % len(ACTS)]},
            {"id": c, "kind": "linear", "weight_ref": weight()},
            {"id": s, "kind": "scalar_lip", "lip": 1.0},
            {"id": e, "kind": "scalar_lip", "lip": 1.0},
        ]
        edges += [[prev, a], [a, r], [r, c], [r, s], [c, e], [s, e]]
        prev = e
    nodes.append({"id": "out", "kind": "scalar_lip", "lip": 1.0})
    edges.append([prev, "out"])
    return {"nodes": nodes, "edges": edges, "matrices": matrices}


def save_network(path, net):
    doc = {
        "source": net["nodes"][0]["id"],
        "sink": net["nodes"][-1]["id"],
        "nodes": net["nodes"],
        "edges": net["edges"],
        "matrices": {
            ref: {"rows": w.shape[0], "cols": w.shape[1], "data": w.ravel().tolist()}
            for ref, w in net["matrices"].items()
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def exact_norms(net):
    return {ref: float(np.linalg.norm(w, 2)) for ref, w in net["matrices"].items()}


def check_bound(net, norms, csv_path):
    """The reported bound must be at least the path sum over the graph with
    every linear node's constant replaced by its exact spectral norm and
    the other constants taken from the job's per-node CSV.

    Known defect (ROADMAP item 3): ``--spectral auto`` puts the power
    iteration's estimate of sigma_1, which is never above sigma_1 and
    usually a little below it, into the product, so the bound can fall
    short of the exact path sum. Such a shortfall is recorded in
    ``Verdict.known`` instead of ``failures`` only when the rest of the
    output is right: every closed-form constant is the exact norm, no
    power-iteration estimate is above the exact norm, and the bound is at
    least the path sum of the job's own per-node constants. Any other
    shortfall is a failure."""
    preds = {}
    for u, v in net["edges"]:
        preds.setdefault(v, []).append(u)
    weight_of = {n["id"]: n.get("weight_ref") for n in net["nodes"]}
    sink = net["nodes"][-1]["id"]

    def path_sum(lips):
        s = {}
        for node in net["nodes"]:  # generated in topological order
            nid = node["id"]
            s[nid] = 1.0 if nid not in preds else lips[nid] * sum(s[u] for u in preds[nid])
        return s[sink]

    def check(stdout):
        verdict = Verdict()
        reported = labelled(stdout, "bound")
        verdict.require(reported is not None, "bound_printed")
        try:
            with open(csv_path) as fh:
                rows = [line.rstrip("\n").split(",") for line in fh][1:]
        except OSError:
            rows = []
        verdict.require(len(rows) == len(net["nodes"]), "per_node_csv_complete")
        if verdict.failures:
            return verdict
        own, exact, undershoot = {}, {}, 0.0
        for nid, lip, provenance, _ in rows:
            ref, own[nid] = weight_of[nid], float(lip)
            exact[nid] = norms[ref] if ref else own[nid]
            if provenance == "power_iteration":
                undershoot = max(undershoot, (norms[ref] - own[nid]) / norms[ref])
                verdict.require(own[nid] <= norms[ref] * (1.0 + REL_TOL),
                                "power_iteration_not_above_norm")
            elif ref:
                verdict.require(abs(own[nid] - norms[ref]) <= norms[ref] * REL_TOL,
                                "closed_form_is_exact_norm")
        exact_sum = path_sum(exact)
        verdict.diag["netbounds.bound_excess_rel"] = reported / exact_sum - 1.0
        verdict.diag["specest.power_iteration.rel_undershoot_max"] = undershoot
        verdict.require(reported >= path_sum(own) * (1.0 - REL_TOL), "bound_below_own_path_sum")
        if reported < exact_sum * (1.0 - REL_TOL):
            if verdict.failures or undershoot <= 0.0:
                verdict.failures.append("bound_below_exact_path_sum")
            else:
                verdict.known.append("bound_below_exact_path_sum")
        return verdict

    return check


def build_graph_certify(rng, d, size):
    net = residual_network(rng, **size)
    path = os.path.join(d, "net.json")
    save_network(path, net)
    norms = exact_norms(net)
    jobs = []
    for name, extra in (
        ("bound-dag-auto", []),
        ("bound-articulation-auto", ["--method", "articulation"]),
        ("bound-dag-full", ["--method", "dag", "--spectral", "full"]),
    ):
        out = os.path.join(d, f"{name}.csv")
        jobs.append(Job(name, ["bound", "--net", path, *extra, "--out", out],
                        check_bound(net, norms, out)))
    return jobs


# ---------------------------------------------------------------------------
# sv-dynamics
# ---------------------------------------------------------------------------

def check_dynamics(theta, steps, traj_path):
    sigma1 = float(np.linalg.norm(theta, 2))

    def check(stdout):
        verdict = Verdict()
        printed = labelled(stdout, "sigma1")
        verdict.require(printed is not None and abs(printed - sigma1) <= REL_TOL * sigma1,
                        "sigma1_equals_exact_norm")
        try:
            with open(traj_path) as fh:
                rows = [line.split(",") for line in fh.read().split()[1:]]
        except OSError:
            rows = []
        verdict.require(len(rows) == steps + 1, "trajectory_row_count")
        if rows:
            verdict.require(abs(float(rows[0][1]) - sigma1) <= REL_TOL * sigma1,
                            "trajectory_first_sigma1_exact")
            verdict.require(all(float(r[4]) >= 0.0 for r in rows), "kappa_nonnegative")
        return verdict

    return check


def check_hessian(a, out_path):
    """Symmetry, H vec(A) = 0 (sigma_1 is 1-homogeneous, so its gradient is
    0-homogeneous), and the finite-difference deviation the CLI prints."""
    m, n = a.shape

    def check(stdout):
        verdict = Verdict()
        verdict.require(stdout.count("\n") == m * n + 1, "hessian_rows_printed")
        dev = labelled(stdout, "max_abs_deviation")
        try:
            h = read_matrix(out_path)
        except (OSError, ValueError):
            verdict.failures.append("hessian_csv_readable")
            return verdict
        verdict.require(h.shape == (m * n, m * n), "hessian_shape")
        if verdict.failures:
            return verdict
        scale = max(1.0, float(np.abs(h).max()))
        verdict.require(np.array_equal(h, h.T), "hessian_symmetric")
        hv = h @ a.ravel(order="F")
        verdict.require(float(np.abs(hv).max()) <= 1e-10 * scale * np.linalg.norm(a),
                        "hessian_annihilates_vec_a")
        verdict.require(dev is not None and dev <= 1e-6 * scale, "hessian_matches_fd")
        return verdict

    return check


def build_sv_dynamics(rng, d, seed, size):
    k, steps = size["dyn"], size["steps"]
    theta = spaced_matrix(rng, k, k)
    grad = 0.1 * rng.standard_normal((k, k))
    root = rng.standard_normal((k * k, k * k)) / (k * k)
    cov = root @ root.T + 1e-3 * np.eye(k * k)
    cov = 0.5 * (cov + cov.T)
    paths = {x: os.path.join(d, f"{x}.csv") for x in ("theta", "grad", "cov", "a")}
    write_matrix(paths["theta"], theta)
    write_matrix(paths["grad"], grad)
    write_matrix(paths["cov"], cov)
    hk = size["hess"]
    a = spaced_matrix(rng, hk, hk)
    write_matrix(paths["a"], a)
    # compare against what the program will read back, digit for digit
    theta, a = read_matrix(paths["theta"]), read_matrix(paths["a"])
    traj = os.path.join(d, "traj.csv")
    hess = os.path.join(d, "hessian.csv")
    return [
        Job("dynamics", ["dynamics", "--matrix", paths["theta"], "--grad", paths["grad"],
                         "--cov", paths["cov"], "--eta", "0.05", "--dt", "0.01",
                         "--steps", str(steps), "--seed", str(seed), "--traj-out", traj],
            check_dynamics(theta, steps, traj)),
        Job("svd-deriv-order2", ["svd-deriv", "--matrix", paths["a"], "--k", "1", "--order", "2",
                                 "--check-fd", "--out", hess],
            check_hessian(a, hess)),
    ]


# ---------------------------------------------------------------------------
# spectral-game
# ---------------------------------------------------------------------------

def write_signal(path, samples, spacing):
    with open(path, "w") as fh:
        fh.write(f"# dx={fmt(spacing)} dy={fmt(spacing)}\n")
        for row in samples:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def read_signal(path):
    with open(path) as fh:
        fh.readline()
        text = fh.read()
    lines = text.split()
    return np.array(",".join(lines).split(","), dtype=np.float64).reshape(len(lines), -1)


def band_limited_signal(rng, n, tones):
    """Sum of cosines at integer frequencies |k| <= n/8 on the unit square
    (spacing 1/n), so the samples resolve the signal exactly."""
    x = np.arange(n) / n
    out = np.zeros((n, n))
    top = max(1, n // 8)
    freqs = []
    for _ in range(tones):
        kx, ky = (int(v) for v in rng.integers(-top, top + 1, size=2))
        amp, phase = rng.uniform(0.2, 1.0), rng.uniform(0, 2 * np.pi)
        out += amp * np.cos(2 * np.pi * (kx * x[:, None] + ky * x[None, :]) + phase)
        freqs.append((kx, ky))
    return out, freqs


def check_fourier_bound(stdout):
    verdict = Verdict()
    bound, sup = labelled(stdout, "spectral_bound"), labelled(stdout, "grid_sup")
    verdict.require(bound is not None and sup is not None and bound >= sup,
                    "spectral_bound_at_least_grid_sup")
    return verdict


def check_fourier_bound_esd(n_rings):
    def check(stdout):
        verdict = check_fourier_bound(stdout)
        snr = labelled_all(stdout, "snr")
        verdict.require(len(snr) == n_rings and all(v >= 0 for v in snr), "snr_rings")
        return verdict

    return check


def check_direction(samples, spacing, direction, ts):
    """Recompute a few of the transform values by direct summation."""
    n = samples.shape[0]
    coords = spacing * np.arange(n)
    proj = (direction[0] * coords[:, None] + direction[1] * coords[None, :]).ravel()
    flat = samples.ravel()
    picks = sorted({0, len(ts) // 2, len(ts) - 1})
    want = {j: spacing * spacing * complex(flat @ np.exp(-2j * np.pi * ts[j] * proj)) for j in picks}
    scale = spacing * spacing * float(np.abs(flat).sum())

    def check(stdout):
        verdict = Verdict()
        got = re.findall(r"^t=\S+ re=(\S+) im=(\S+)$", stdout, re.M)
        verdict.require(len(got) == len(ts), "direction_rows")
        if len(got) == len(ts):
            err = max(abs(complex(float(got[j][0]), float(got[j][1])) - want[j]) for j in picks)
            verdict.require(err <= 1e-9 * scale, "direction_matches_direct_sum")
        return verdict

    return check


def check_band(stdout):
    # The ratio line is criterion 7, known to be red; only the report is checked.
    verdict = Verdict()
    for label in ("eps", "band_bound", "sup_diff"):
        verdict.require(labelled(stdout, label) is not None, f"band_{label}_printed")
    return verdict


def additive_square_game(rng, players):
    """v(S) = sum_{i in S} a_i + c |S|^2, whose Shapley values are
    a_i + c M in closed form."""
    a = rng.uniform(0.0, 1.0, players)
    c = float(rng.uniform(0.1, 1.0))
    masks = np.arange(1 << players)
    bits = (masks[:, None] >> np.arange(players)) & 1
    values = bits @ a + c * bits.sum(axis=1) ** 2
    return values, a + c * players


def write_game(path, values):
    with open(path, "w") as fh:
        for mask, val in enumerate(values):
            fh.write(f"{mask},{fmt(val)}\n")


def check_shapley(values, psi_exact, mc=False, score=False):
    total = float(values[-1] - values[0])

    def check(stdout):
        verdict = Verdict()
        psi = np.array(labelled_all(stdout, "psi"))
        eff = labelled(stdout, "efficiency")
        verdict.require(psi.shape == psi_exact.shape, "psi_printed")
        verdict.require(eff is not None and abs(eff - total) <= 1e-9 * max(1.0, abs(total)),
                        "efficiency")
        if psi.shape != psi_exact.shape:
            return verdict
        err = float(np.abs(psi - psi_exact).max())
        if mc:
            bound = labelled(stdout, "err_bound")
            verdict.require(bound is not None and err <= bound, "mc_within_err_bound")
        else:
            verdict.require(err <= 1e-9 * max(1.0, abs(total)), "closed_form_psi")
        if score:
            value = labelled(stdout, "score")
            verdict.require(value is not None and 0.0 <= value <= 1.0, "score_in_unit_interval")
        return verdict

    return check


def build_spectral_game(rng, d, seed, size):
    n = size["grid"]
    spacing = 1.0 / n
    samples, freqs = band_limited_signal(rng, n, size["tones"])
    noise = rng.standard_normal((n, n))
    sig, noi = os.path.join(d, "signal.csv"), os.path.join(d, "noise.csv")
    write_signal(sig, samples, spacing)
    write_signal(noi, noise, spacing)
    samples = read_signal(sig)
    direction = (0.6, 0.8)
    ts = np.linspace(0.0, n / 4, size["n_t"])
    t_arg = ",".join(fmt(t) for t in ts)
    kx, ky = freqs[0]
    values, psi = additive_square_game(rng, size["players"])
    game = os.path.join(d, "game.csv")
    write_game(game, values)
    n_rings = 32 if n >= 64 else 8
    return [
        Job("fourier", ["fourier", "--signal", sig, "--bound", "--esd", str(n_rings), "--snr", noi,
                        "--direction", "0.6,0.8", "--t", t_arg,
                        f"--band-center={kx},{ky}", "--band-radius", "0.5"],
            all_of(check_fourier_bound_esd(n_rings), check_direction(samples, spacing, direction, ts),
                   check_band)),
        Job("shapley-exact", ["shapley", "--game", game, "--score"],
            check_shapley(values, psi, score=True)),
        Job("shapley-mc", ["shapley", "--game", game, "--mc-perms", str(size["perms"]),
                           "--seed", str(seed)],
            check_shapley(values, psi, mc=True)),
    ]


# ---------------------------------------------------------------------------
# cli-short
# ---------------------------------------------------------------------------

GELU = 0.5 * (1.0 + math.erf(1.0)) + math.exp(-1.0) / math.sqrt(math.pi)
KNOWN = {"relu": 1.0, "gelu": GELU, "softmax": 0.5}


def check_activation(name, numeric_tol=None):
    def check(stdout):
        verdict = Verdict()
        m = re.search(r"^" + re.escape(name) + r" (\S+)$", stdout, re.M)
        verdict.require(m is not None and abs(float(m.group(1)) - KNOWN[name]) <= REL_TOL,
                        f"{name}_closed_form")
        if numeric_tol is not None:
            num = re.search(r"^numeric (\S+)", stdout, re.M)
            verdict.require(num is not None and abs(float(num.group(1)) - KNOWN[name]) <= numeric_tol,
                            f"{name}_numeric")
        return verdict

    return check


def check_jacobian(a):
    u, _, vt = np.linalg.svd(a)
    want = np.outer(u[:, 0], vt[0])

    def check(stdout):
        verdict = Verdict()
        try:
            got = np.array([[float(x) for x in line.split(",")] for line in stdout.split()])
        except ValueError:
            got = None
        verdict.require(got is not None and got.shape == want.shape
                        and float(np.abs(got - want).max()) <= 1e-12, "jacobian_u1_v1")
        return verdict

    return check


def build_cli_short(rng, d):
    net = {
        "nodes": [{"id": "in", "kind": "input"},
                  {"id": "l", "kind": "linear", "weight_ref": "w4"},
                  {"id": "g", "kind": "activation", "activation": "gelu"},
                  {"id": "out", "kind": "scalar_lip", "lip": 1.0}],
        "edges": [["in", "l"], ["l", "g"], ["g", "out"]],
        "matrices": {"w4": rng.standard_normal((4, 4)) / 4},
    }
    net_path, net_out = os.path.join(d, "tiny.json"), os.path.join(d, "tiny.csv")
    save_network(net_path, net)
    a = spaced_matrix(rng, 3, 3)
    a_path = os.path.join(d, "a3.csv")
    write_matrix(a_path, a)
    a = read_matrix(a_path)
    samples, _ = band_limited_signal(rng, 32, 2)
    sig = os.path.join(d, "s32.csv")
    write_signal(sig, samples, 1.0 / 32)
    values, psi = additive_square_game(rng, 4)
    game = os.path.join(d, "g4.csv")
    write_game(game, values)
    return [
        Job("activation-softmax-numeric", ["activation", "--name", "softmax", "--dim", "8",
                                           "--numeric"],
            check_activation("softmax", numeric_tol=1e-3)),
        Job("activation-gelu-numeric", ["activation", "--name", "gelu", "--numeric"],
            check_activation("gelu", numeric_tol=1e-8)),
        Job("activation-relu", ["activation", "--name", "relu"], check_activation("relu")),
        Job("bound-tiny", ["bound", "--net", net_path, "--out", net_out],
            check_bound(net, exact_norms(net), net_out)),
        Job("svd-deriv-order1", ["svd-deriv", "--matrix", a_path, "--k", "1", "--order", "1"],
            check_jacobian(a)),
        Job("fourier-bound-small", ["fourier", "--signal", sig, "--bound"], check_fourier_bound),
        Job("shapley-small", ["shapley", "--game", game], check_shapley(values, psi)),
    ]


def build(name, seed, workdir, quick=False):
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``
    and return its jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "cli-short":
        return build_cli_short(rng, workdir)
    size = SIZES[name]["quick" if quick else "full"]
    if name == "graph-certify":
        return build_graph_certify(rng, workdir, size)
    if name == "sv-dynamics":
        return build_sv_dynamics(rng, workdir, seed, size)
    return build_spectral_game(rng, workdir, seed, size)

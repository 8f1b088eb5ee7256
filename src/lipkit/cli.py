"""Command-line front end.

Subcommands map one-to-one onto the library surface: ``bound`` (graph
bounds from a network JSON), ``svd-deriv`` (singular-value Jacobian and
Hessian), ``activation``, ``fourier``, ``dynamics`` and ``shapley``.
Human-readable reports go to stdout; machine outputs are written only via
--out style flags. All floats are emitted with 17 significant digits so
files round-trip losslessly.

Exit codes: 2 parse/validation, 3 graph structure, 4 degenerate spectrum,
5 other numeric failure, a refused allocation included. A refused input
leaves stdout empty.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import re
import sys
import warnings

import numpy as np

from . import activations, dynamics, fourlip, netbounds, specgame, svdcalc
from .errors import LipkitError
from .matcore import _fmt, _open_text, _write_csv, full_svd, load_matrix_csv, matrix_csv_lines, vec

# a command's process keeps what it imported until it exits; the collector
# would scan those ~90k objects again at exit, 0.13-0.21 s of each command
# (about 0.02 s frozen). lipkit's only collector call: the package leaves the
# collector alone, so a host importing only the library keeps its objects collectable.
gc.freeze()

# stderr prefix for each exit code; the code comes from the error class
_LABELS = {2: "error", 3: "graph error", 4: "degenerate spectrum", 5: "numeric error"}


def _flag(args, flag):
    """The value of ``flag``, or None where it was not given."""
    value = getattr(args, flag[2:].replace("-", "_"))
    return None if value is False else value


def _check_flags(args):
    """Refuse, in declaration order, a flag below its least value (each
    subparser's ``least``: (flag, lowest) rows) or given without its companion
    (``needs``: (flag, companion) rows), before the command reads any file and
    whether or not it goes on to use the flag, so the message names the flag."""
    for flag, lowest in args.least:
        value = _flag(args, flag)
        if value is not None and value < lowest:
            rule = "nonnegative" if lowest == 0 else f"at least {lowest}"
            raise ValueError(f"{flag} must be {rule}, got {value}")
    for flag, companion in args.needs:
        if _flag(args, flag) is not None and _flag(args, companion) is None:
            raise ValueError(f"{flag} needs {companion}")


def _passed(args, *names):
    # the given flags as keyword arguments; the library's defaults apply to the rest
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _open_out(path):
    """``path`` opened for writing, or a null context without a path. Each
    command opens its output file before its first stdout line, so a path
    that cannot be written leaves stdout empty."""
    return open(path, "w") if path else contextlib.nullcontext()


def load_network_json(path) -> netbounds.NetworkGraph:
    try:
        with _open_text(path) as fh:
            doc = json.load(fh, object_hook=netbounds._data_arrays)
        return netbounds.graph_from_doc(doc)
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_bound(args):
    g = load_network_json(args.net)
    lips = netbounds.all_node_lips(
        g, spectral=args.spectral, iters=args.iters, seed=args.seed
    )
    per_node_s = None
    lines = []
    if args.method == "product":
        chain = g.topo_order
        bound = netbounds.product_bound(chain, g, lips=lips)
    elif args.method == "dag":
        res = netbounds.dag_bound(g, lips=lips)
        bound, per_node_s = res.bound, res.per_node_s
    else:
        res = netbounds.articulation_bound(g, lips=lips)
        bound = res.bound
        lines.append(f"cut_vertices: {','.join(res.cut_vertices) or '(none)'}")
        lines.append(f"subdag_bounds: {' '.join(_fmt(b) for b in res.subdag_bounds)}")
    lines.append(f"bound = {_fmt(bound)}")
    for nid in g.topo_order:
        nl = lips[nid]
        line = f"node {nid} lip={_fmt(nl.lip)} provenance={nl.provenance}"
        if nl.provenance == "power_iteration":
            line += f" iters={nl.iterations} seed={nl.seed}"
        if per_node_s is not None:
            line += f" S={_fmt(per_node_s[nid])}"
        lines.append(line)
    with _open_out(args.out) as fh:
        print("\n".join(lines))
        if fh is not None:
            s_vals = per_node_s or dict.fromkeys(g.topo_order, "")
            rows = ((nid, lips[nid].lip, lips[nid].provenance, s_vals[nid]) for nid in g.topo_order)
            _write_csv(fh, rows, header="node,lip,provenance,S")
    return 0


def cmd_svd_deriv(args):
    mat = load_matrix_csv(args.matrix)
    if args.order == 1:
        result = svdcalc.sv_jacobian(full_svd(mat), args.k)
        oracle = svdcalc.fd_gradient_oracle
    else:
        svdcalc.check_hessian_budget(mat.rows, mat.cols)
        result = svdcalc.sv_hessian(full_svd(mat), args.k)
        oracle = svdcalc.fd_hessian_oracle
    dev = None
    if args.check_fd:
        diff = result.array - oracle(mat, args.k, **_passed(args, "step")).array
        dev = np.max(np.abs(diff, out=diff))
    # checked before anything is written, so a failed check leaves no --out
    # file; each row is formatted once for both stdout and --out
    with _open_out(args.out) as fh:
        for line in matrix_csv_lines(result):
            print(line, end="")
            if fh is not None:
                fh.write(line)
    if dev is not None:
        print(f"max_abs_deviation = {_fmt(dev)}")
    return 0


def cmd_activation(args):
    # a flag is refused for an activation that does not read it: each
    # maximizer's flags for the other kind, and each parameter it does not read
    softmax = args.name == "softmax"
    refused = ("--grid", "--domain") if softmax else ("--restarts", "--seed")
    refused += tuple(f"--{param}" for param in ("dim", "alpha")
                     if param not in activations.PARAMS.get(args.name, ()))
    for flag in refused:
        if _flag(args, flag) is not None:
            raise ValueError(f"{flag} does not apply to {args.name}")
    params = _passed(args, "alpha", "dim")
    if softmax:
        params.setdefault("dim", 2)
    spec = activations.make_activation(args.name, **params)
    lines = [f"{args.name} {_fmt(activations.closed_form_lipschitz(spec))}"]
    # both lines are computed before either is printed, so a refused input
    # leaves stdout empty
    if args.numeric and softmax:
        est = activations.numeric_softmax_lipschitz(spec.dim, **_passed(args, "restarts", "seed"))
        lines.append(f"numeric {_fmt(est)}")
    elif args.numeric:
        res = activations.numeric_scalar_lipschitz(spec, **_passed(args, "domain", "grid"))
        lines.append(f"numeric {_fmt(res.value)} attained={res.attained}")
    print("\n".join(lines))
    return 0


def _parse_vector(text, label):
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise ValueError(f"--{label}: expected comma-separated numbers, got {text!r}") from None


def cmd_fourier(args):
    sig = fourlip.load_signal_csv(args.signal)
    # every line is computed before any is printed, so a refused input
    # leaves stdout empty
    lines = []
    if args.bound:
        lines.append(f"spectral_bound = {_fmt(fourlip.spectral_lipschitz_bound(sig))}")
        lines.append(f"grid_sup = {_fmt(fourlip.grid_gradient_sup(sig))}")
    if args.band_center is not None:
        center = _parse_vector(args.band_center, "band-center")
        perturbed, eps = fourlip.band_remove(sig, center, args.band_radius)
        bound = fourlip.band_bound(sig, center, args.band_radius, eps)
        sup, ratio = fourlip.band_ratio(sig, perturbed, bound)
        lines.append(f"eps = {_fmt(eps)}")
        lines.append(f"band_bound = {_fmt(bound)}")
        lines.append(f"sup_diff = {_fmt(sup)}")
        if ratio is not None:
            lines.append(f"ratio = {_fmt(ratio)}")
    if args.esd is not None:
        if args.snr:
            noise = fourlip.load_signal_csv(args.snr)
            values = fourlip.snr(sig, noise, args.esd)
            label = "snr"
        else:
            values = fourlip.radial_esd(sig, args.esd)
            label = "esd"
        lines += (f"{label}[{ring}] = {_fmt(val)}" for ring, val in enumerate(values))
    if args.direction is not None:
        direction = _parse_vector(args.direction, "direction")
        ts = _parse_vector(args.t or "0", "t")
        vals = fourlip.directional_transform(sig, direction, ts)
        lines += (f"t={_fmt(t)} re={_fmt(v.real)} im={_fmt(v.imag)}" for t, v in zip(ts, vals))
    if not lines:
        raise ValueError("nothing to do: pass --bound, --band-center, --esd or --direction")
    with _open_out(args.out) as fh:
        print("\n".join(lines))
        if fh is not None:
            _write_csv(fh, enumerate(values.tolist()), header="ring_index,value")
    return 0


def cmd_dynamics(args):
    # the trajectory flags are checked even when no trajectory is asked for
    dynamics.check_simulation(args.dt, args.steps, args.seed, args.store_every)
    theta = load_matrix_csv(args.matrix)
    grad_mat = load_matrix_csv(args.grad)
    if grad_mat.shape != theta.shape:
        raise ValueError(
            f"--grad shape {grad_mat.shape} must match --matrix shape {theta.shape}"
        )
    cov = load_matrix_csv(args.cov)
    state = dynamics.LayerDynamicsState.create(theta, vec(grad_mat), cov, args.eta)
    forces = dynamics.driving_forces(state)
    if args.traj_out:
        traj = dynamics.euler_maruyama(
            state,
            dt=args.dt,
            steps=args.steps,
            seed=args.seed,
            store_every=args.store_every,
        )
        rows = dynamics.trajectory_stats(
            traj, args.steps, state, store_every=args.store_every
        )
    with _open_out(args.traj_out) as fh:
        print(f"sigma1 = {_fmt(state.sigma1)}")
        print(f"mu = {_fmt(forces.mu)}")
        print(f"kappa = {_fmt(forces.kappa)}")
        print(f"lambda_norm = {_fmt(np.linalg.norm(forces.lam))}")
        if fh is not None:
            _write_csv(fh, rows, header="step,sigma1,Z,mu,kappa,lambda_norm")
            print(f"trajectory written to {args.traj_out}")
    return 0


def cmd_shapley(args):
    game = specgame.load_game_csv(args.game, n_players=args.players)
    # every line is computed before any is printed, so a refused input
    # leaves stdout empty
    lines = []
    if args.mc_perms is not None:
        psi, err_bound = specgame.shapley_mc(
            game, game.n_players, args.mc_perms, seed=args.seed
        )
        lines.append(f"err_bound = {_fmt(err_bound)}")
    else:
        psi = specgame.shapley_exact(game)
    lines += (f"psi[{i}] = {_fmt(val)}" for i, val in enumerate(psi))
    lines.append(f"efficiency = {_fmt(psi.sum())}")
    if args.score:
        beta = _parse_vector(args.beta, "beta") if args.beta else None
        lines.append(f"score = {_fmt(specgame.importance_score(psi, beta))}")
    with _open_out(args.out) as fh:
        print("\n".join(lines))
        if fh is not None:
            _write_csv(fh, enumerate(psi.tolist()), header="player,psi")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reads any token that starts like a negative number (``-2,1``,
    ``-1e-3``, ``-inf``, ``-NaN``) as a value, so ``--band-center -2,1``
    works like ``--band-center=-2,1``. No lipkit option starts with a digit,
    ``inf`` or ``nan``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser():
    parser = _ArgumentParser(
        prog="lipkit",
        description="Certified Lipschitz bounds and spectral calculus toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="Lipschitz bound of a network JSON file")
    p.add_argument("--net", required=True, help="network JSON file")
    p.add_argument("--method", choices=("product", "dag", "articulation"), default="dag")
    p.add_argument("--spectral", choices=("auto", "full", "power"), default="auto")
    p.add_argument("--iters", type=int, default=100, help="power-iteration count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="per-node CSV output path")
    p.set_defaults(fn=cmd_bound, least=(("--seed", 0), ("--iters", 1)), needs=())

    p = sub.add_parser("svd-deriv", help="singular-value Jacobian / Hessian")
    p.add_argument("--matrix", required=True, help="matrix CSV file")
    p.add_argument("--k", type=int, required=True, help="singular-value index (1-based)")
    p.add_argument("--order", type=int, choices=(1, 2), required=True)
    p.add_argument("--check-fd", action="store_true")
    p.add_argument("--step", type=float, default=None, help="finite-difference step")
    p.add_argument("--out", help="write the derivative matrix CSV here")
    p.set_defaults(fn=cmd_svd_deriv, least=(("--k", 1),), needs=(("--step", "--check-fd"),))

    p = sub.add_parser("activation", help="activation Lipschitz constants")
    p.add_argument("--name", required=True)
    slopes = " and ".join(name for name, params in activations.PARAMS.items() if "alpha" in params)
    p.add_argument("--alpha", type=float, help=f"{slopes} slope (default 1)")
    p.add_argument("--dim", type=int, default=None, help="softmax dimension (default 2)")
    p.add_argument("--numeric", action="store_true", help="also run the numerical maximizer")
    p.add_argument("--domain", type=float, nargs=2, help="elementwise scan (default -20 20)")
    p.add_argument("--grid", type=int, help="elementwise scan points (default 2048)")
    p.add_argument("--restarts", type=int, help="softmax starts (default 10)")
    p.add_argument("--seed", type=int, help="softmax start seed (default 0)")
    p.set_defaults(fn=cmd_activation, least=(("--seed", 0), ("--restarts", 1), ("--dim", 2)),
                   needs=(("--domain", "--numeric"), ("--grid", "--numeric"),
                          ("--restarts", "--numeric"), ("--seed", "--numeric")))

    p = sub.add_parser("fourier", help="spectral Lipschitz analysis of a signal CSV")
    p.add_argument("--signal", required=True)
    p.add_argument("--bound", action="store_true", help="spectral bound and grid gradient sup")
    p.add_argument("--band-center", help="comma-separated frequency")
    p.add_argument("--band-radius", type=float)
    p.add_argument("--esd", type=int, help="number of radial rings")
    p.add_argument("--snr", help="noise signal CSV (with --esd)")
    p.add_argument("--direction", help="unit direction, comma-separated")
    p.add_argument("--t", help="comma-separated t values for --direction")
    p.add_argument("--out", help="ring CSV output path (with --esd)")
    p.set_defaults(fn=cmd_fourier, least=(("--esd", 1),), needs=(
        ("--band-center", "--band-radius"), ("--band-radius", "--band-center"),
        ("--t", "--direction"), ("--snr", "--esd"), ("--out", "--esd")))

    p = sub.add_parser("dynamics", help="driving forces and trajectory simulation")
    p.add_argument("--matrix", required=True, help="layer matrix CSV")
    p.add_argument("--grad", required=True, help="loss-gradient matrix CSV (same shape)")
    p.add_argument("--cov", required=True, help="noise covariance CSV (mn x mn)")
    p.add_argument("--eta", type=float, required=True, help="learning rate")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--store-every", type=int, default=1)
    p.add_argument("--traj-out", help="trajectory CSV output path")
    p.set_defaults(fn=cmd_dynamics, least=(("--seed", 0),), needs=())

    p = sub.add_parser("shapley", help="Shapley values of a coalition game table")
    p.add_argument("--game", required=True, help="game CSV of (bitmask, value) rows")
    p.add_argument("--players", type=int, default=None)
    p.add_argument("--mc-perms", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--score", action="store_true")
    p.add_argument("--beta", help="comma-separated nonnegative weights (with --score)")
    p.add_argument("--out", help="per-player psi CSV output path")
    p.set_defaults(fn=cmd_shapley, least=(("--mc-perms", 1), ("--seed", 0)),
                   needs=(("--beta", "--score"),))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    failure = None
    # library warnings become one "warning: ..." line each, after the command
    with warnings.catch_warnings(record=True) as caught:
        try:
            _check_flags(args)
            code = args.fn(args)
        except (LipkitError, ArithmeticError, MemoryError, ValueError, OSError) as exc:
            # a library error carries its code; of the builtins, an overflow,
            # a division by zero or a refused allocation is a numeric
            # failure, the rest bad input
            code = getattr(exc, "exit_code", 2 if isinstance(exc, (ValueError, OSError)) else 5)
            failure = f"{_LABELS[code]}: {str(exc) or type(exc).__name__}"
            if getattr(exc, "gap", None) is not None:
                failure += f" (gap = {exc.gap:.6e})"
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if failure is not None:
        print(failure, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

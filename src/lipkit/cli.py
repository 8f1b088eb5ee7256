"""Command-line front end.

Subcommands map one-to-one onto the library surface: ``bound`` (graph
bounds from a network JSON), ``svd-deriv`` (singular-value Jacobian and
Hessian), ``activation``, ``fourier``, ``dynamics`` and ``shapley``.
Human-readable reports go to stdout; machine outputs are written only via
--out style flags. All floats are emitted with 17 significant digits so
files round-trip losslessly.

Exit codes: 2 parse/validation, 3 graph structure, 4 degenerate spectrum,
5 other numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
import warnings

import numpy as np

from . import activations, dynamics, fourlip, netbounds, specgame, svdcalc
from .errors import LipkitError
from .matcore import _fmt, _write_csv, full_svd, load_matrix_csv, matrix_csv_lines, vec

# stderr prefix for each exit code; the code comes from the error class
_LABELS = {2: "error", 3: "graph error", 4: "degenerate spectrum", 5: "numeric error"}


def _check_seed(seed):
    # refused here so that the message names the flag, whichever
    # generator (or none) the command goes on to use
    if seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {seed}")


def load_network_json(path) -> netbounds.NetworkGraph:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return netbounds.graph_from_doc(doc)


def cmd_bound(args):
    _check_seed(args.seed)
    # refused before the net is read, whether or not a node is estimated
    # by power iteration
    if args.iters < 1:
        raise ValueError(f"--iters must be at least 1, got {args.iters}")
    g = load_network_json(args.net)
    lips = netbounds.all_node_lips(
        g, spectral=args.spectral, iters=args.iters, seed=args.seed
    )
    per_node_s = None
    if args.method == "product":
        chain = g.topo_order
        bound = netbounds.product_bound(chain, g, lips=lips)
    elif args.method == "dag":
        res = netbounds.dag_bound(g, lips=lips)
        bound, per_node_s = res.bound, res.per_node_s
    else:
        res = netbounds.articulation_bound(g, lips=lips)
        bound = res.bound
        print("cut_vertices:", ",".join(res.cut_vertices) or "(none)")
        print("subdag_bounds:", " ".join(_fmt(b) for b in res.subdag_bounds))
    print(f"bound = {_fmt(bound)}")
    for nid in g.topo_order:
        nl = lips[nid]
        line = f"node {nid} lip={_fmt(nl.lip)} provenance={nl.provenance}"
        if nl.provenance == "power_iteration":
            line += f" iters={nl.iterations} seed={nl.seed}"
        if per_node_s is not None:
            line += f" S={_fmt(per_node_s[nid])}"
        print(line)
    if args.out:
        s_vals = per_node_s or dict.fromkeys(g.topo_order, "")
        rows = ((nid, lips[nid].lip, lips[nid].provenance, s_vals[nid]) for nid in g.topo_order)
        _write_csv(args.out, rows, header="node,lip,provenance,S")
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
        step = {} if args.step is None else {"step": args.step}
        diff = result.array - oracle(mat, args.k, **step).array
        dev = np.max(np.abs(diff, out=diff))
    # checked before anything is written, so a failed check leaves no --out
    # file; each row is formatted once for both stdout and --out
    with open(args.out, "w") if args.out else contextlib.nullcontext() as fh:
        for line in matrix_csv_lines(result):
            print(line, end="")
            if fh is not None:
                fh.write(line)
    if dev is not None:
        print(f"max_abs_deviation = {_fmt(dev)}")
    return 0


def cmd_activation(args):
    _check_seed(args.seed)
    dim = 2 if args.dim is None else args.dim
    spec = activations.make_activation(args.name, alpha=args.alpha, dim=dim)
    lines = [f"{args.name} {_fmt(activations.closed_form_lipschitz(spec))}"]
    # both lines are computed before either is printed, so a refused input
    # leaves stdout empty
    if args.numeric:
        if args.name == "softmax":
            est = activations.numeric_softmax_lipschitz(
                dim, restarts=args.restarts, seed=args.seed
            )
            lines.append(f"numeric {_fmt(est)}")
        else:
            res = activations.numeric_scalar_lipschitz(
                spec, domain=(args.domain[0], args.domain[1]), grid=args.grid
            )
            lines.append(f"numeric {_fmt(res.value)} attained={res.attained}")
    print("\n".join(lines))
    return 0


def _parse_vector(text, label):
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise ValueError(f"--{label}: expected comma-separated numbers, got {text!r}") from None


def cmd_fourier(args):
    # a flag without its companion is refused before anything is printed
    for flag, value, companion, other in (
        ("--band-center", args.band_center, "--band-radius", args.band_radius),
        ("--band-radius", args.band_radius, "--band-center", args.band_center),
        ("--t", args.t_grid, "--direction", args.direction),
        ("--snr", args.snr, "--esd", args.esd),
    ):
        if value is not None and other is None:
            raise ValueError(f"{flag} needs {companion}")
    sig = fourlip.load_signal_csv(args.signal)
    did = False
    if args.bound:
        print(f"spectral_bound = {_fmt(fourlip.spectral_lipschitz_bound(sig))}")
        print(f"grid_sup = {_fmt(fourlip.grid_gradient_sup(sig))}")
        did = True
    if args.band_center is not None:
        center = _parse_vector(args.band_center, "band-center")
        perturbed, eps = fourlip.band_remove(sig, center, args.band_radius)
        bound = fourlip.band_bound(sig, center, args.band_radius, eps)
        sup = float(np.max(np.abs(sig.samples - perturbed.samples)))
        print(f"eps = {_fmt(eps)}")
        print(f"band_bound = {_fmt(bound)}")
        print(f"sup_diff = {_fmt(sup)}")
        if bound > 0:
            print(f"ratio = {_fmt(sup / bound)}")
        did = True
    values = None
    if args.esd is not None:
        if args.snr:
            noise = fourlip.load_signal_csv(args.snr)
            values = fourlip.snr(sig, noise, args.esd)
            label = "snr"
        else:
            values = fourlip.radial_esd(sig, args.esd)
            label = "esd"
        for ring, val in enumerate(values):
            print(f"{label}[{ring}] = {_fmt(val)}")
        did = True
    if args.direction is not None:
        direction = _parse_vector(args.direction, "direction")
        ts = _parse_vector(args.t_grid or "0", "t")
        vals = fourlip.directional_transform(sig, direction, ts)
        for t, v in zip(ts, vals):
            print(f"t={_fmt(t)} re={_fmt(v.real)} im={_fmt(v.imag)}")
        did = True
    if not did:
        raise ValueError("nothing to do: pass --bound, --band-center, --esd or --direction")
    if args.out and values is not None:
        _write_csv(args.out, enumerate(values.tolist()), header="ring_index,value")
    return 0


def cmd_dynamics(args):
    _check_seed(args.seed)
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
    print(f"sigma1 = {_fmt(state.sigma1)}")
    print(f"mu = {_fmt(forces.mu)}")
    print(f"kappa = {_fmt(forces.kappa)}")
    print(f"lambda_norm = {_fmt(np.linalg.norm(forces.lam))}")
    if args.traj_out:
        _write_csv(args.traj_out, rows, header="step,sigma1,Z,mu,kappa,lambda_norm")
        print(f"trajectory written to {args.traj_out}")
    return 0


def cmd_shapley(args):
    if args.mc_perms is not None and args.mc_perms < 1:
        raise ValueError(f"--mc-perms must be at least 1, got {args.mc_perms}")
    _check_seed(args.seed)
    game = specgame.load_game_csv(args.game, n_players=args.players)
    if args.mc_perms is not None:
        psi, err_bound = specgame.shapley_mc(
            game, game.n_players, args.mc_perms, seed=args.seed
        )
        print(f"err_bound = {_fmt(err_bound)}")
    else:
        psi = specgame.shapley_exact(game)
    for i, val in enumerate(psi):
        print(f"psi[{i}] = {_fmt(val)}")
    print(f"efficiency = {_fmt(psi.sum())}")
    if args.score:
        beta = _parse_vector(args.beta, "beta") if args.beta else None
        print(f"score = {_fmt(specgame.importance_score(psi, beta))}")
    if args.out:
        _write_csv(args.out, enumerate(psi.tolist()), header="player,psi")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reads any token that starts like a negative number (``-2,1``,
    ``-1e-3``) as a value, so ``--band-center -2,1`` works like
    ``--band-center=-2,1``. No lipkit option starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


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
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("svd-deriv", help="singular-value Jacobian / Hessian")
    p.add_argument("--matrix", required=True, help="matrix CSV file")
    p.add_argument("--k", type=int, required=True, help="singular-value index (1-based)")
    p.add_argument("--order", type=int, choices=(1, 2), required=True)
    p.add_argument("--check-fd", action="store_true", dest="check_fd")
    p.add_argument("--step", type=float, default=None, help="finite-difference step")
    p.add_argument("--out", help="write the derivative matrix CSV here")
    p.set_defaults(fn=cmd_svd_deriv)

    p = sub.add_parser("activation", help="activation Lipschitz constants")
    p.add_argument("--name", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=None, help="softmax dimension (default 2)")
    p.add_argument("--numeric", action="store_true", help="also run the numerical maximizer")
    p.add_argument("--domain", type=float, nargs=2, default=(-20.0, 20.0))
    p.add_argument("--grid", type=int, default=2048)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_activation)

    p = sub.add_parser("fourier", help="spectral Lipschitz analysis of a signal CSV")
    p.add_argument("--signal", required=True)
    p.add_argument("--bound", action="store_true", help="spectral bound and grid gradient sup")
    p.add_argument("--band-center", dest="band_center", help="comma-separated frequency")
    p.add_argument("--band-radius", dest="band_radius", type=float)
    p.add_argument("--esd", type=int, help="number of radial rings")
    p.add_argument("--snr", help="noise signal CSV (with --esd)")
    p.add_argument("--direction", help="unit direction, comma-separated")
    p.add_argument("--t", dest="t_grid", help="comma-separated t values for --direction")
    p.add_argument("--out", help="ring CSV output path")
    p.set_defaults(fn=cmd_fourier)

    p = sub.add_parser("dynamics", help="driving forces and trajectory simulation")
    p.add_argument("--matrix", required=True, help="layer matrix CSV")
    p.add_argument("--grad", required=True, help="loss-gradient matrix CSV (same shape)")
    p.add_argument("--cov", required=True, help="noise covariance CSV (mn x mn)")
    p.add_argument("--eta", type=float, required=True, help="learning rate")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--store-every", dest="store_every", type=int, default=1)
    p.add_argument("--traj-out", dest="traj_out", help="trajectory CSV output path")
    p.set_defaults(fn=cmd_dynamics)

    p = sub.add_parser("shapley", help="Shapley values of a coalition game table")
    p.add_argument("--game", required=True, help="game CSV of (bitmask, value) rows")
    p.add_argument("--players", type=int, default=None)
    p.add_argument("--mc-perms", dest="mc_perms", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--score", action="store_true")
    p.add_argument("--beta", help="comma-separated nonnegative weights")
    p.add_argument("--out", help="per-player psi CSV output path")
    p.set_defaults(fn=cmd_shapley)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    failure = None
    # library warnings become one "warning: ..." line each, after the command
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.fn(args)
        except (LipkitError, ArithmeticError, ValueError, OSError) as exc:
            # a library error carries its code; of the builtins, an overflow
            # or division by zero is a numeric failure, the rest bad input
            code = getattr(exc, "exit_code", 5 if isinstance(exc, ArithmeticError) else 2)
            failure = f"{_LABELS[code]}: {exc}"
            if getattr(exc, "gap", None) is not None:
                failure += f" (gap = {exc.gap:.6e})"
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if failure is not None:
        print(failure, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

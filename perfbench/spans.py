"""Span wrappers around lipkit's layers, installed from outside the package.

``install()`` wraps every public function of the lipkit modules listed in
``MODULES`` and a few methods, and rebinds each wrapper in *every* lipkit
module that holds the original (``dynamics.sv_hessian``,
``netbounds.power_iteration``, ``cli.full_svd``, ...). A call through a
``from``-imported name is therefore traced like any other, instead of
landing in its caller's self time.

Spans are aggregated in memory per name: call count, total time, and self
time (total minus the time covered by directly nested spans). ``cli.main``
is the root span, so the self times of all spans add up to the traced time
spent inside the CLI. Counters are computed from argument shapes at the
same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("cli", "matcore", "svdcalc", "specest", "activations", "netbounds",
           "fourlip", "dynamics", "specgame", "_kernels")


class Tracer:
    def __init__(self):
        self.spans = {}   # name -> [calls, total_s, child_s]
        self.counts = {}  # name -> number
        self.weight_refs = []  # weight_ref of each linear-node node_lipschitz call
        self._stack = []

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, after=None):
        """Span around ``fn``; ``after(tracer, args, kwargs, result)`` updates
        counters once the span has closed."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def report(self):
        spans = {name: {"calls": c, "total_s": t, "self_s": t - child}
                 for name, (c, t, child) in self.spans.items() if c}
        return {"spans": spans, "counts": dict(self.counts),
                "distinct_weight_refs": len(set(self.weight_refs)),
                "linear_node_calls": len(self.weight_refs)}


# ---------------------------------------------------------------------------
# counters computed from shapes (they repeat exactly for the same inputs)
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _hessian_bytes(tr, args, kwargs, result):
    svd = _arg(args, kwargs, 0, "svd")
    tr.add("svdcalc.sv_hessian.bytes", 8 * (svd.rows * svd.cols) ** 2)


def _power_matvecs(tr, args, kwargs, result):
    # one start-up product A^T u, then A v, A^T u and A v per iteration
    tr.add("specest.power_iteration.matvecs", 1 + 3 * _arg(args, kwargs, 1, "iters"))


def _noise_bytes(tr, args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    steps = _arg(args, kwargs, 2, "steps")
    tr.add("dynamics.euler_maruyama.noise_bytes", 8 * steps * state.theta.rows * state.theta.cols)


def _dft_ops(tr, args, kwargs, result):
    samples, ts = args[0], args[2]
    tr.add("_kernels.direct_dft.ops", samples.shape[0] * ts.shape[0])


def _mc_value_calls(tr, args, kwargs, result):
    # one empty-coalition value plus one per player, for every permutation
    players = _arg(args, kwargs, 1, "n_players")
    tr.add("specgame.shapley_mc.value_calls", _arg(args, kwargs, 2, "n_perms") * (players + 1))


def _articulation_visits(tr, args, kwargs, result):
    # each segment between consecutive cut vertices scans the whole topological order
    g = _arg(args, kwargs, 0, "g")
    tr.add("netbounds.articulation_bound.node_visits",
           (len(result.cut_vertices) + 1) * len(g.topo_order))


def _node_weight(tr, args, kwargs, result):
    g, node_id = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "node_id")
    node = g.nodes.get(node_id)
    if node is not None and node.kind == "linear":
        tr.weight_refs.append(node.weight_ref)


AFTER = {
    "svdcalc.sv_hessian": _hessian_bytes,
    "specest.power_iteration": _power_matvecs,
    "dynamics.euler_maruyama": _noise_bytes,
    "_kernels.direct_dft": _dft_ops,
    "specgame.shapley_mc": _mc_value_calls,
    "netbounds.articulation_bound": _articulation_visits,
    "netbounds.node_lipschitz": _node_weight,
}


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == mod.__name__:
            yield name, obj


def install():
    """Wrap lipkit's layers in spans and return the Tracer that records them."""
    tracer = Tracer()
    mods = {short: importlib.import_module(f"lipkit.{short}") for short in MODULES}
    wrapped = {}  # original function -> wrapper
    for short, mod in mods.items():
        for name, fn in _public_functions(mod):
            span = f"{short}.{name}"
            if fn not in wrapped:
                wrapped[fn] = tracer.wrap(span, fn, AFTER.get(span))
    holders = [m for name, m in sys.modules.items() if name == "lipkit" or name.startswith("lipkit.")]
    for mod in holders:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])

    netbounds, dynamics, fourlip = mods["netbounds"], mods["dynamics"], mods["fourlip"]
    graph = netbounds.NetworkGraph
    graph.__init__ = tracer.wrap("netbounds.NetworkGraph", graph.__init__)
    state = dynamics.LayerDynamicsState
    state.create = classmethod(
        tracer.wrap("dynamics.LayerDynamicsState.create", state.__dict__["create"].__func__))

    signal = fourlip.SpectralSignal
    spectrum = signal.spectrum.fget

    def counted_spectrum(self):
        if self._spectrum is None:
            tracer.add("fourlip.spectrum.ffts", 1)
        return spectrum(self)

    signal.spectrum = property(tracer.wrap("fourlip.SpectralSignal.spectrum", counted_spectrum))

    def inverse_fft(tr, args, kwargs, result):
        tr.add("fourlip.spectrum.ffts", 1)

    signal.with_spectrum = tracer.wrap("fourlip.SpectralSignal.with_spectrum",
                                       signal.with_spectrum, inverse_fft)
    return tracer

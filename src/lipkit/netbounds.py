"""Certified Lipschitz bounds on network-shaped computation graphs.

A graph of typed nodes (linear / activation / residual / attention / plain
constants) with a unique source and sink supports: per-node constants, the
product bound along a chain, the path-sum bound computed by dynamic
programming in topological order, and the same path-sum bound factored
across articulation points. Companion closed forms cover residual modules,
addition/concatenation algebra, attention bounds, pairwise spectral
alignment refinement, and margin-based certified radii.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import networkx as nx
import numpy as np
from scipy.special import lambertw, softmax

from .activations import (
    ActivationSpec,
    closed_form_lipschitz,
    make_activation,
    softmax_jacobian,
)
from .errors import (
    CycleDetected,
    GraphInvalid,
    InvalidParams,
    LengthMismatch,
    NonBracketable,
    NotAPath,
    UnknownNode,
)
from .matcore import DenseMatrix
from .specest import power_iteration

NODE_KINDS = ("input", "linear", "activation", "scalar_lip", "residual_group", "attention")


@dataclass(frozen=True)
class Node:
    id: str
    kind: str
    weight_ref: Optional[str] = None          # linear
    activation: Optional[ActivationSpec] = None  # activation
    lip: Optional[float] = None               # scalar_lip
    inner_lip: Optional[float] = None         # residual_group
    attention_kind: Optional[str] = None      # attention
    attention_params: Optional[dict] = None

    def __post_init__(self):
        if self.kind not in NODE_KINDS:
            raise GraphInvalid(f"node {self.id!r}: unknown kind {self.kind!r}")
        if self.kind == "linear" and not self.weight_ref:
            raise GraphInvalid(f"linear node {self.id!r} needs weight_ref")
        if self.kind == "activation" and self.activation is None:
            raise GraphInvalid(f"activation node {self.id!r} needs an ActivationSpec")
        if self.kind == "scalar_lip" and (self.lip is None or self.lip < 0):
            raise GraphInvalid(f"scalar_lip node {self.id!r} needs lip >= 0")
        if self.kind == "residual_group" and (self.inner_lip is None or self.inner_lip < 0):
            raise GraphInvalid(f"residual_group node {self.id!r} needs inner_lip >= 0")
        if self.kind == "attention" and not self.attention_kind:
            raise GraphInvalid(f"attention node {self.id!r} needs attention_kind")


@dataclass(frozen=True)
class NodeLip:
    node_id: str
    lip: float
    provenance: str  # closed_form | power_iteration | user_supplied
    iterations: Optional[int] = None
    seed: Optional[int] = None


class NetworkGraph:
    """Directed acyclic computation graph with one source and one sink."""

    def __init__(self, nodes, edges, matrices=None, source=None, sink=None):
        self.nodes = {n.id: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise GraphInvalid("duplicate node ids")
        self.matrices = dict(matrices or {})
        g = nx.DiGraph()
        g.add_nodes_from(self.nodes)
        for u, v in edges:
            if u not in self.nodes or v not in self.nodes:
                raise GraphInvalid(f"edge ({u!r}, {v!r}) references unknown node")
            g.add_edge(u, v)
        if not nx.is_directed_acyclic_graph(g):
            raise CycleDetected("graph contains a directed cycle")
        sources = [n for n in g if g.in_degree(n) == 0]
        sinks = [n for n in g if g.out_degree(n) == 0]
        if len(sources) != 1 or (source is not None and sources[0] != source):
            raise GraphInvalid(f"expected the unique in-degree-0 node to be the source, got {sources}")
        if len(sinks) != 1 or (sink is not None and sinks[0] != sink):
            raise GraphInvalid(f"expected the unique out-degree-0 node to be the sink, got {sinks}")
        self.source = sources[0]
        self.sink = sinks[0]
        if not nx.has_path(g, self.source, self.sink):
            raise GraphInvalid("sink not reachable from source")
        for n in nodes:
            if n.kind == "linear" and n.weight_ref not in self.matrices:
                raise GraphInvalid(f"node {n.id!r}: weight_ref {n.weight_ref!r} unresolved")
        self.digraph = g
        self.topo_order = list(nx.topological_sort(g))

    def node(self, node_id) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no node {node_id!r}") from None


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", float: "a finite number"}


def _typed(value, kind, where, field):
    """``value`` if it has JSON type ``kind`` (``float``: any finite number,
    returned as a float), else GraphInvalid naming ``where`` and ``field``."""
    if isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool):
        if kind is not float:
            return value
        if abs(value) <= sys.float_info.max:  # no NaN, inf or int beyond float range
            return float(value)
    raise GraphInvalid(f"{where}: {field!r} must be {_JSON_TYPES[kind]}, got {value!r}")


def _pair(value, where, field):
    if not (isinstance(value, list) and len(value) == 2):
        raise GraphInvalid(f"{where}: each of {field!r} must be a pair, got {value!r}")
    return tuple(value)


def _activation(value, where):
    if isinstance(value, str):
        return make_activation(value)
    if isinstance(value, dict):
        if "name" not in value:
            raise GraphInvalid(f"{where}: activation object needs a 'name'")
        return make_activation(
            value["name"],
            alpha=_typed(value.get("alpha", 1.0), float, where, "alpha"),
            dim=_typed(value.get("dim", 0), int, where, "dim"),
        )
    raise GraphInvalid(f"{where}: activation must be a name or object")


def graph_from_doc(doc) -> NetworkGraph:
    """Build the graph of a decoded network JSON document (format in the
    README). Malformed content raises GraphInvalid naming the node or
    matrix and the field; a directed cycle raises CycleDetected."""
    _typed(doc, dict, "network", "document")
    matrices = {}
    for ref, spec in _typed(doc.get("matrices") or {}, dict, "network", "matrices").items():
        where = f"matrix {ref!r}"
        _typed(spec, dict, where, "matrix")
        for key in ("rows", "cols", "data"):
            if key not in spec:
                raise GraphInvalid(f"{where}: missing field {key!r}")
        rows, cols = (_typed(spec[key], int, where, key) for key in ("rows", "cols"))
        data = _typed(spec["data"], list, where, "data")
        try:
            matrices[ref] = DenseMatrix.from_flat(rows, cols, data)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphInvalid(f"{where}: {exc}") from None

    def resolve(where, value):
        if isinstance(value, str):
            if value not in matrices:
                raise GraphInvalid(f"{where}: parameter matrix {value!r} not in 'matrices'")
            return matrices[value]
        return value

    nodes = []
    for entry in _typed(doc.get("nodes", []), list, "network", "nodes"):
        if not isinstance(entry, dict):
            raise GraphInvalid(f"every node must be an object, got {entry!r}")
        if "id" not in entry or "kind" not in entry:
            raise GraphInvalid("every node needs 'id' and 'kind' fields")
        nid, kind = entry["id"], entry["kind"]
        where = f"node {_typed(nid, str, 'node', 'id')!r}"
        kwargs = {}
        if kind == "linear":
            ref = kwargs["weight_ref"] = entry.get("weight_ref")
            if ref is not None:
                _typed(ref, str, where, "weight_ref")
        elif kind == "activation":
            kwargs["activation"] = _activation(entry.get("activation"), where)
        elif kind in ("scalar_lip", "residual_group"):
            field = "lip" if kind == "scalar_lip" else "inner_lip"
            if entry.get(field) is not None:
                kwargs[field] = _typed(entry[field], float, where, field)
        elif kind == "attention":
            kwargs["attention_kind"] = entry.get("attention_kind")
            params = dict(_typed(entry.get("params") or {}, dict, where, "params"))
            if "heads" in params:
                params["heads"] = [
                    tuple(resolve(where, w) for w in _pair(head, where, "heads"))
                    for head in _typed(params["heads"], list, where, "heads")
                ]
            kwargs["attention_params"] = {k: resolve(where, v) for k, v in params.items()}
        nodes.append(Node(id=nid, kind=kind, **kwargs))

    edges = [
        tuple(_typed(end, str, "edge", "node id") for end in _pair(edge, "network", "edges"))
        for edge in _typed(doc.get("edges", []), list, "network", "edges")
    ]
    return NetworkGraph(
        nodes, edges, matrices=matrices, source=doc.get("source"), sink=doc.get("sink")
    )


def node_lipschitz(
    g: NetworkGraph,
    node_id: str,
    spectral: str = "auto",
    iters: int = 100,
    seed: int = 0,
) -> NodeLip:
    """Lipschitz constant of a single node's module.

    Linear nodes use the exact spectral norm for desk-size matrices (or
    always with spectral="full") and power iteration otherwise; the other
    kinds come from their closed forms or the user-supplied constant.
    """
    node = g.node(node_id)
    if node.kind == "input":
        return NodeLip(node_id, 1.0, "closed_form")
    if node.kind == "linear":
        mat = g.matrices[node.weight_ref]
        use_power = spectral == "power" or (spectral == "auto" and max(mat.shape) > 256)
        if use_power:
            est = power_iteration(mat, iters=iters, seed=seed)
            return NodeLip(node_id, est.sigma_est, "power_iteration", iterations=iters, seed=seed)
        return NodeLip(node_id, float(np.linalg.norm(mat.array, 2)), "closed_form")
    if node.kind == "activation":
        return NodeLip(node_id, closed_form_lipschitz(node.activation), "closed_form")
    if node.kind == "scalar_lip":
        return NodeLip(node_id, float(node.lip), "user_supplied")
    if node.kind == "residual_group":
        return NodeLip(node_id, residual_bound(node.inner_lip), "closed_form")
    if node.kind == "attention":
        return NodeLip(
            node_id,
            attention_bound(node.attention_kind, node.attention_params or {}),
            "closed_form",
        )
    raise GraphInvalid(f"unhandled node kind {node.kind!r}")


def all_node_lips(
    g: NetworkGraph, spectral: str = "auto", iters: int = 100, seed: int = 0
) -> dict:
    """Every node's constant; linear nodes that share a weight_ref share one
    norm computation, which runs on the first of them in node order."""
    lips, by_ref = {}, {}
    for nid, node in g.nodes.items():
        ref = node.weight_ref if node.kind == "linear" else None
        if ref in by_ref:
            lips[nid] = replace(by_ref[ref], node_id=nid)
        else:
            lips[nid] = node_lipschitz(g, nid, spectral, iters, seed)
            if ref is not None:
                by_ref[ref] = lips[nid]
    return lips


def _not_nan(bound: float) -> float:
    """``bound``, unless it is NaN (an overflow to inf times a 0), which bounds nothing."""
    if math.isnan(bound):
        raise FloatingPointError("bound is nan: a product of node constants overflowed and met 0")
    return bound


def product_bound(chain, g: NetworkGraph, lips=None) -> float:
    """Product of node constants along a directed path of the graph."""
    chain = list(chain)
    if not chain:
        raise NotAPath("empty chain")
    for nid in chain:
        g.node(nid)
    for u, v in zip(chain, chain[1:]):
        if not g.digraph.has_edge(u, v):
            raise NotAPath(f"missing edge ({u!r} -> {v!r})")
    lips = lips or all_node_lips(g)
    out = 1.0
    for nid in chain:
        out *= lips[nid].lip
    return _not_nan(out)


@dataclass(frozen=True)
class DagBound:
    bound: float
    per_node_s: dict
    node_lips: dict


def dag_bound(g: NetworkGraph, lips=None) -> DagBound:
    """Path-sum bound via S(v) dynamic programming in topological order.

    S(source) = Lip[h_source] and S(v) = Lip[h_v] * sum of S over
    predecessors; S(sink) equals the sum over all source->sink paths of the
    products of the node constants on the path, the source's included.
    """
    lips = lips or all_node_lips(g)
    s = {}
    for nid in g.topo_order:
        acc = 1.0 if nid == g.source else sum(s[u] for u in g.digraph.predecessors(nid))
        s[nid] = lips[nid].lip * acc
    return DagBound(bound=_not_nan(s[g.sink]), per_node_s=s, node_lips=lips)


@dataclass(frozen=True)
class ArticulationBound:
    bound: float
    cut_vertices: list
    subdag_bounds: list
    node_lips: dict


def articulation_bound(g: NetworkGraph, lips=None) -> ArticulationBound:
    """Factor the path-sum bound across articulation points.

    Cut vertices of the undirected shadow (never the source or the sink,
    which every other node reaches or is reached from) split the graph
    into sub-DAG segments; the bound is the product of segment path sums
    and cut-vertex constants, the same value as dag_bound in factored
    form. Every node lies on a source->sink path, so a cut vertex lies on
    all of them: no edge from an earlier node in topological order lands
    beyond it. One pass of the dag_bound recurrence in topological order,
    keeping the furthest edge target seen so far, therefore finds each
    cut, closes a segment there (and at the sink) and restarts with S = 1.
    The first segment starts with S(source) = Lip[h_source], as in dag_bound.
    """
    lips = lips or all_node_lips(g)
    position = {nid: i for i, nid in enumerate(g.topo_order)}
    cuts, subdag_bounds, s = [], [], {}
    reach = 0  # furthest topological position an edge seen so far lands on
    for i, nid in enumerate(g.topo_order):
        if nid == g.source:
            s[nid] = lips[nid].lip
        else:
            acc = sum(s[u] for u in g.digraph.predecessors(nid))
            if reach == i and nid != g.sink:
                cuts.append(nid)
                subdag_bounds.append(acc)
                s[nid] = 1.0
            else:
                s[nid] = lips[nid].lip * acc
        reach = max([reach] + [position[v] for v in g.digraph.successors(nid)])
    # the sink is a module of the last segment; cut vertices are their own factors
    subdag_bounds.append(s[g.sink])
    bound = 1.0
    for val in subdag_bounds:
        bound *= val
    for c in cuts:
        bound *= lips[c].lip
    return ArticulationBound(_not_nan(bound), cuts, subdag_bounds, lips)


def residual_bound(inner_lip: float) -> float:
    """Skip connection plus inner branch: 1 + Lip of the branch."""
    if inner_lip < 0:
        raise ValueError("inner_lip must be nonnegative")
    return 1.0 + inner_lip


def lip_algebra(op: str, lips, p: float = 2.0) -> float:
    """Combination rules: add -> sum; concat -> p-norm of the constants."""
    lips = [float(v) for v in lips]
    if any(v < 0 for v in lips):
        raise ValueError("Lipschitz constants must be nonnegative")
    if not (p >= 1 or math.isinf(p)):
        raise ValueError("p must be >= 1 or inf")
    if op == "add":
        return float(sum(lips))
    if op == "concat":
        if math.isinf(p):
            return max(lips) if lips else 0.0
        return float(sum(v**p for v in lips) ** (1.0 / p))
    raise ValueError(f"unknown op {op!r}")


def phi_inverse(y: float) -> float:
    """Inverse of phi(x) = x * exp(x + 1) on x >= 0: x = W(y / e), the
    principal branch of the Lambert W function."""
    if y < 0:
        raise NonBracketable(f"phi inverse undefined for negative input {y}")
    return float(lambertw(y / math.e).real)


def _get(params, key, kind):
    try:
        return params[key]
    except KeyError:
        raise InvalidParams(f"{kind}: missing parameter {key!r}") from None


def _number(params, key, kind, default=None):
    """params[key] (``default`` when absent, if given) as a finite float."""
    value = _get(params, key, kind) if default is None else params.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise InvalidParams(f"{kind}: parameter {key!r} must be a finite number, got {value!r}")
    return number


def _as_array(value) -> np.ndarray:
    """A DenseMatrix's array, or any other value as a float array."""
    if isinstance(value, DenseMatrix):
        return value.array
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParams(f"parameter value {value!r} is not a numeric array") from None


def attention_bound(kind: str, params: dict) -> float:
    """Closed-form Lipschitz bounds for dot-product self-attention.

    kinds:
      hu_local  -- local bound on a ball: n(n+1)(||x||+delta)^2
                   [||W_V|| ||W_Q|| ||W_K^T|| + ||W_V||], spectral norms;
                   x_norm and the radius delta must be >= 0;
      kim_l2    -- global 2-norm bound, per-head (W_Q, W_V) pairs plus W_O,
                   with the x*exp(x+1) inverse at n-1;
      kim_linf  -- global inf-norm variant of the same;
      yudin     -- single-head bound through the row-wise softmax Jacobian.

    Sequence matrices x are measured in the Frobenius norm.
    """
    if kind == "hu_local":
        n = int(_number(params, "n", kind))
        delta = _number(params, "delta", kind, default=0.0)
        if "x_norm" in params:
            x_norm = _number(params, "x_norm", kind)
        else:
            x_norm = float(np.linalg.norm(_as_array(_get(params, "x", kind))))
        if x_norm < 0 or delta < 0:
            raise InvalidParams(
                f"{kind}: x_norm and delta must be >= 0, got {x_norm!r} and {delta!r}"
            )
        wv, wq, wk = (
            float(np.linalg.norm(_as_array(_get(params, key, kind)), 2))
            for key in ("w_v", "w_q", "w_k")
        )
        radius = x_norm + delta
        if math.isinf(radius * radius):
            raise OverflowError(
                f"{kind}: x_norm + delta = {radius!r}: its square overflows float64"
            )
        return n * (n + 1) * radius**2 * (wv * wq * wk + wv)

    if kind in ("kim_l2", "kim_linf"):
        heads = _get(params, "heads", kind)
        if not heads:
            raise InvalidParams(f"{kind}: heads list is empty")
        w_o = _get(params, "w_o", kind)
        n = int(_number(params, "n", kind))
        d = _number(params, "d", kind)
        h = float(len(heads))
        if n < 1:
            raise InvalidParams(f"{kind}: sequence length must be >= 1")
        if d <= 0:
            raise InvalidParams(f"{kind}: model width d must be > 0")
        inv = phi_inverse(float(n - 1))
        if kind == "kim_l2":
            head_sum = sum(
                float(np.linalg.norm(_as_array(wq), 2)) ** 2
                * float(np.linalg.norm(_as_array(wv), 2)) ** 2
                for wq, wv in heads
            )
            return (
                math.sqrt(n)
                / math.sqrt(d / h)
                * (4.0 * inv + 1.0)
                * math.sqrt(head_sum)
                * float(np.linalg.norm(_as_array(w_o), 2))
            )
        q_term = max(
            float(np.linalg.norm(_as_array(wq), np.inf))
            * float(np.linalg.norm(_as_array(wq).T, np.inf))
            for wq, _ in heads
        )
        v_term = max(float(np.linalg.norm(_as_array(wv).T, np.inf)) for _, wv in heads)
        wo_norm = float(np.linalg.norm(_as_array(w_o).T, np.inf))
        return (4.0 * inv + 1.0 / (d / h)) * wo_norm * q_term * v_term

    if kind == "yudin":
        wq, wk, wv, x = (_get(params, key, kind) for key in ("w_q", "w_k", "w_v", "x"))
        x, wq, wk = _as_array(x), _as_array(wq), _as_array(wk)
        if x.ndim != 2 or wq.ndim != 2 or wk.ndim != 2:
            raise InvalidParams("yudin: x, W_Q and W_K must be matrices")
        d = x.shape[1]
        if wq.shape[0] != d or wk.shape[0] != d:
            raise InvalidParams(
                f"yudin: W_Q/W_K first dimension must match x's width {d}"
            )
        a = wq @ wk.T / math.sqrt(d)
        p = softmax(x @ a @ x.T, axis=1)
        jac_norm = max(
            float(np.linalg.norm(softmax_jacobian(np.ascontiguousarray(row)).array, 2))
            for row in p
        )
        return float(np.linalg.norm(_as_array(wv), 2)) * (
            float(np.linalg.norm(p, 2))
            + 2.0 * float(np.linalg.norm(x)) ** 2 * float(np.linalg.norm(a, 2)) * jac_norm
        )

    raise InvalidParams(f"unknown attention bound kind {kind!r}")


def seqlip_pair_factor(u1, v1, r_l: float, r_next: float) -> float:
    """Spectral-alignment factor for one consecutive layer pair.

    Solves max over gradient patterns t in [0,1]^n of
    (1 - r_l - r_next) <t * v1, u1>^2 + r_l + r_next + r_l*r_next in closed
    form: the inner product's extremes over t are the positive-part and
    negative-part sums of u1*v1, and when the leading coefficient is
    negative the maximizer switches to t = 0.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    v1 = np.asarray(v1, dtype=np.float64)
    if u1.shape != v1.shape or u1.ndim != 1:
        raise LengthMismatch(f"u1 and v1 must be 1-D of equal length, got {u1.shape} vs {v1.shape}")
    if not (0 <= r_l <= 1 and 0 <= r_next <= 1):
        raise ValueError("singular-value ratios must lie in [0, 1]")
    prod = u1 * v1
    m = max(float(prod[prod > 0].sum()) if np.any(prod > 0) else 0.0,
            -float(prod[prod < 0].sum()) if np.any(prod < 0) else 0.0)
    coef = 1.0 - r_l - r_next
    quad = m**2 if coef >= 0 else 0.0
    return math.sqrt(coef * quad + r_l + r_next + r_l * r_next)


def certified_radius(margin: float, k: float, p: float = 2.0) -> float:
    """Perturbation radius below which the argmax cannot change:
    margin / (2^(1/p) * K). K = 0 reports +inf (unbounded radius)."""
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if k < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    if not (p >= 1 or math.isinf(p)):
        raise ValueError("p must be >= 1 or inf")
    if k == 0:
        return math.inf
    alpha = 1.0 if math.isinf(p) else 2.0 ** (1.0 / p)
    return margin / (alpha * k)

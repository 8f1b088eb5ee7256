"""Certified Lipschitz bounds on network-shaped computation graphs.

A graph of typed nodes (linear / activation / residual / attention / plain
constants) with a unique source and sink supports: per-node constants, the
product bound of a chain graph, and the path-sum bound computed by one
dynamic-programming pass in topological order, whole or factored across
articulation points. Companion closed forms cover residual modules,
addition/concatenation algebra, attention bounds and margin-based
certified radii.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, replace
from typing import Optional

import networkx as nx
import numpy as np
from scipy.special import lambertw, softmax

from .activations import (
    NAMES,
    PARAMS,
    ActivationSpec,
    closed_form_lipschitz,
    make_activation,
    softmax_jacobian,
)
from .errors import (
    CycleDetected,
    GraphInvalid,
    InvalidParams,
    NonBracketable,
    NotAPath,
    UnknownNode,
    overflow_raises,
)
from .matcore import DenseMatrix
from .specest import power_iteration

_NODE_FIELDS = {"input": (), "linear": ("weight_ref",), "activation": ("activation",),
                "scalar_lip": ("lip",), "residual_group": ("inner_lip",),
                "attention": ("attention_kind", "params")}  # read besides "id" and "kind"
NODE_KINDS = tuple(_NODE_FIELDS)


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
            if g.has_edge(u, v):  # the DiGraph would keep one, and the bound miss the other
                raise GraphInvalid(f"edge ({u!r}, {v!r}) is repeated")
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


def _typed(value, kind, where, field, error=GraphInvalid):
    """``value`` if it has JSON type ``kind`` (``float``: any finite number,
    returned as a float), else ``error`` naming ``where`` and ``field``."""
    if isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool):
        if kind is not float:
            return value
        if abs(value) <= sys.float_info.max:  # no NaN, inf or int beyond float range
            return float(value)
    raise error(f"{where}: {field!r} must be {_JSON_TYPES[kind]}, got {value!r}")


def _as_floats(values):
    """The list ``values`` as a float64 array, or None unless each entry is
    a JSON number (an int or a float, never a bool) within float64 range."""
    if set(map(type, values)) <= {int, float}:
        try:
            return np.array(values, dtype=np.float64)
        except OverflowError:  # an int beyond float64 range
            pass
    return None


def _numbers(values, where, key, error=GraphInvalid, at=""):
    """The list ``values`` (``key`` of ``where``, at index ``at`` within it)
    as a float64 array; else ``error`` naming ``where``, ``key`` and the
    index of the first entry that is not a finite number."""
    array = _as_floats(values)
    if array is None:
        for i, value in enumerate(values):
            if not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
                raise error(f"{where}: {key!r}{at}[{i}] must be a finite number, "
                            f"got {reprlib.repr(value)}")
    return array


def _decoded(data):
    """Whether ``data`` is an array that :func:`_data_arrays` makes."""
    return isinstance(data, np.ndarray) and data.dtype == np.float64 and data.ndim == 1


def _data_arrays(obj):
    """json ``object_hook``: an object's ``data`` list of numbers becomes a
    float64 array as the object closes, so that while a network file is
    decoded, one matrix at a time is held as Python floats."""
    data = obj.get("data")
    if type(data) is list:
        array = _as_floats(data)
        if array is not None:
            obj["data"] = array
    return obj


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
        name = value["name"]
        for field in value:
            # an unknown name is left to make_activation, which refuses it
            if field != "name" and name in NAMES and field not in PARAMS.get(name, ()):
                raise GraphInvalid(f"{where}: activation {name!r} does not read {field!r}")
        return make_activation(name, alpha=_typed(value.get("alpha", 1.0), float, where, "alpha"),
                               dim=_typed(value.get("dim", 0), int, where, "dim"))
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
        data = spec["data"]
        if not _decoded(data):
            data = _numbers(_typed(data, list, where, "data"), where, "data")
        try:
            matrices[ref] = DenseMatrix.from_flat(rows, cols, data)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphInvalid(f"{where}: {exc}") from None

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
            attention = kwargs["attention_kind"] = entry.get("attention_kind")
            kwargs["attention_params"] = _attention_params(
                attention, entry.get("params") or {}, where, matrices)
        for key in entry:  # NODE_KINDS is a tuple, so an unhashable kind is simply not in it
            if kind in NODE_KINDS and key not in ("id", "kind", *_NODE_FIELDS[kind]):
                raise GraphInvalid(f"{where}: kind {kind!r} does not read {key!r}")
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
        try:
            lip = attention_bound(node.attention_kind, node.attention_params or {})
        except (ArithmeticError, InvalidParams) as exc:
            raise type(exc)(f"node {node_id!r}: {exc}") from None
        return NodeLip(node_id, lip, "closed_form")
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


def product_bound(chain, g: NetworkGraph, lips=None) -> float:
    """Product of node constants along ``chain``, a directed path that is
    the whole graph: the path-sum pass's S(sink), the sum over its one path.
    Any other edge (a skip edge, a branch) adds paths the product does not
    bound, and raises NotAPath naming it."""
    chain = list(chain)
    if not chain:
        raise NotAPath("empty chain")
    for nid in chain:
        g.node(nid)
    for u, v in zip(chain, chain[1:]):
        if not g.digraph.has_edge(u, v):
            raise NotAPath(f"missing edge ({u!r} -> {v!r})")
    links = set(zip(chain, chain[1:]))
    for u, v in g.digraph.edges:
        if (u, v) not in links:
            raise NotAPath(f"edge ({u!r} -> {v!r}) does not join consecutive chain nodes")
    return _path_sums(g, lips or all_node_lips(g), restart=False)[0]


@dataclass(frozen=True)
class DagBound:
    bound: float
    per_node_s: dict


@dataclass(frozen=True)
class ArticulationBound:
    bound: float
    cut_vertices: list
    subdag_bounds: list


def _path_sums(g: NetworkGraph, lips, restart: bool):
    """(bound, S, cut vertices, segment sums) of S(source) = Lip[h_source],
    S(v) = Lip[h_v] * sum of S over predecessors, in topological order. As
    every node lies on a source->sink path, a node other than those two is
    a cut vertex exactly when no edge from an earlier node lands beyond it.
    With ``restart`` the pass closes a segment at each cut, keeping the sum
    that reached it, and goes on with S = 1; the last closes at the sink.
    The bound is the product of the segment sums and of the cut vertices'
    constants (S(sink) without restarts). A NaN bound, an overflow to inf
    times a 0, bounds nothing and raises FloatingPointError."""
    position = {nid: i for i, nid in enumerate(g.topo_order)}
    cuts, segments, s = [], [], {}
    reach = 0  # furthest topological position an edge seen so far lands on
    for i, nid in enumerate(g.topo_order):
        acc = 1.0 if nid == g.source else sum(s[u] for u in g.digraph.predecessors(nid))
        if restart and reach == i and nid not in (g.source, g.sink):
            cuts.append(nid)
            segments.append(acc)
            s[nid] = 1.0
        else:
            s[nid] = lips[nid].lip * acc
        reach = max([reach] + [position[v] for v in g.digraph.successors(nid)])
    segments.append(s[g.sink])
    bound = math.prod(segments + [lips[c].lip for c in cuts])
    if math.isnan(bound):
        raise FloatingPointError("bound is nan: a product of node constants overflowed and met 0")
    return bound, s, cuts, segments


def dag_bound(g: NetworkGraph, lips=None) -> DagBound:
    """Path-sum bound, S(sink) of the pass without restarts: the sum over
    all source->sink paths of the products of their node constants, the
    source's included."""
    bound, s, _, _ = _path_sums(g, lips or all_node_lips(g), restart=False)
    return DagBound(bound=bound, per_node_s=s)


def articulation_bound(g: NetworkGraph, lips=None) -> ArticulationBound:
    """The same path sum, factored across articulation points: the pass
    with restarts, then the product of the segment sums and of the cut
    vertices' constants. On dyadic constants it equals dag_bound exactly;
    otherwise the two can differ by rounding. They differ on overflow too:
    on the chain 1e200 -> 1e200 -> 0 this multiplies the 0 in first and
    gives 0, where dag_bound's inf * 0 is NaN (ROADMAP item 2)."""
    bound, _, cuts, subdag_bounds = _path_sums(g, lips or all_node_lips(g), restart=True)
    return ArticulationBound(bound, cuts, subdag_bounds)


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


def _matrix(value, where, key, matrices):
    """``value`` as a DenseMatrix; a string names one of ``matrices``."""
    if isinstance(value, str):
        if value not in matrices:
            raise InvalidParams(f"{where}: {key!r}: matrix {value!r} not in 'matrices'")
        return matrices[value]
    if type(value) is list and all(type(row) is list for row in value):
        # JSON rows, each entry a number; ragged rows fail below
        value = [_numbers(row, where, key, InvalidParams, f"[{i}]")
                 for i, row in enumerate(value)]
    try:
        return value if isinstance(value, DenseMatrix) else DenseMatrix(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParams(f"{where}: {key!r}: {exc}") from None


def _heads(value, where, key, matrices):
    heads = _typed(value, list, where, key, InvalidParams)
    if not heads or not all(isinstance(h, (list, tuple)) and len(h) == 2 for h in heads):
        raise InvalidParams(f"{where}: {key!r} must be a nonempty list of [W_Q, W_V] pairs")
    return [tuple(_matrix(w, where, key, matrices) for w in head) for head in heads]


def _least(kind, lowest, rule=">="):
    """The check that a value has JSON type ``kind`` and satisfies ``rule lowest``."""
    def check(value, where, key, matrices):
        number = _typed(value, kind, where, key, InvalidParams)
        if number < lowest or (rule == ">" and number == lowest):
            raise InvalidParams(f"{where}: {key!r} must be {rule} {lowest}, got {value!r}")
        return number
    return check


_COUNT, _NONNEGATIVE = _least(int, 1), _least(float, 0)
_KIM = {"heads": _heads, "w_o": _matrix, "n": _COUNT, "d": _least(float, 0, ">")}
# the parameters each attention kind reads and the check each value passes.
# Every one is required, except that hu_local reads exactly one of x_norm
# and x (a sequence matrix, measured in the Frobenius norm) and its radius
# delta defaults to 0.
ATTENTION_PARAMS = {
    "hu_local": {"n": _COUNT, "w_v": _matrix, "w_q": _matrix, "w_k": _matrix,
                 "x_norm": _NONNEGATIVE, "x": _matrix, "delta": _NONNEGATIVE},
    "kim_l2": _KIM,
    "kim_linf": _KIM,
    "yudin": {"w_q": _matrix, "w_k": _matrix, "w_v": _matrix, "x": _matrix},
}


def _attention_params(kind, params, where=None, matrices=()):
    """``params`` checked against ATTENTION_PARAMS[kind], each value typed
    (a string in a matrix's place names one of ``matrices``). A key the
    kind does not read, a missing key or a bad value raises InvalidParams
    naming ``where`` (default: the kind) and the key."""
    table = ATTENTION_PARAMS.get(kind) if isinstance(kind, str) else None
    if table is None:
        raise InvalidParams(f"{where + ': ' if where else ''}attention_kind must be one of "
                            f"{', '.join(ATTENTION_PARAMS)}, got {kind!r}")
    where = where or kind
    hu = kind == "hu_local"
    for key in _typed(params, dict, where, "params", InvalidParams):
        if key not in table:
            raise InvalidParams(f"{where}: attention {kind!r} does not read {key!r}")
    if hu and ("x" in params) == ("x_norm" in params):
        raise InvalidParams(f"{where}: hu_local reads exactly one of 'x_norm' and 'x'")
    for key in table:
        if key not in params and not (hu and key in ("x_norm", "x", "delta")):
            raise InvalidParams(f"{where}: missing parameter {key!r}")
    typed = {"delta": 0.0} if hu else {}
    typed.update((key, table[key](value, where, key, matrices)) for key, value in params.items())
    return typed


def attention_bound(kind: str, params: dict) -> float:
    """Closed-form Lipschitz bounds for dot-product self-attention.

    kinds (ATTENTION_PARAMS gives the parameters each reads):
      hu_local  -- local bound on a ball: n(n+1)(||x||+delta)^2
                   [||W_V|| ||W_Q|| ||W_K^T|| + ||W_V||], spectral norms;
      kim_l2    -- global 2-norm bound, per-head (W_Q, W_V) pairs plus W_O,
                   with the x*exp(x+1) inverse at n-1;
      kim_linf  -- global inf-norm variant of the same;
      yudin     -- single-head bound through the row-wise softmax Jacobian.

    Sequence matrices x are measured in the Frobenius norm. Arithmetic that
    overflows float64 raises FloatingPointError naming the kind (exit 5 in
    the CLI) rather than warning or returning inf.
    """
    p = _attention_params(kind, params)
    return overflow_raises(kind)(_attention_value)(kind, p)


def _attention_value(kind: str, p: dict) -> float:
    def norm(array, order=2):
        return float(np.linalg.norm(array, order))

    if kind == "hu_local":
        n = p["n"]
        x_norm = p["x_norm"] if "x_norm" in p else float(np.linalg.norm(p["x"].array))
        wv, wq, wk = (norm(p[key].array) for key in ("w_v", "w_q", "w_k"))
        return n * (n + 1) * (x_norm + p["delta"]) ** 2 * (wv * wq * wk + wv)
    if kind == "yudin":
        x, wq, wk = (p[key].array for key in ("x", "w_q", "w_k"))
        d = x.shape[1]
        if wq.shape[0] != d or wk.shape[0] != d:
            raise InvalidParams(f"yudin: W_Q/W_K first dimension must match x's width {d}")
        if wq.shape[1] != wk.shape[1]:
            raise InvalidParams(f"yudin: 'w_q' and 'w_k' must have the same width, "
                                f"got {wq.shape[1]} and {wk.shape[1]}")
        a = wq @ wk.T / math.sqrt(d)
        probs = softmax(x @ a @ x.T, axis=1)
        jac_norm = max(
            norm(softmax_jacobian(np.ascontiguousarray(row)).array) for row in probs
        )
        return norm(p["w_v"].array) * (
            norm(probs) + 2.0 * float(np.linalg.norm(x)) ** 2 * norm(a) * jac_norm
        )
    heads, n, d = p["heads"], p["n"], p["d"]
    h = float(len(heads))
    inv = phi_inverse(float(n - 1))
    if kind == "kim_l2":
        head_sum = sum(norm(wq.array) ** 2 * norm(wv.array) ** 2 for wq, wv in heads)
        return (math.sqrt(n) / math.sqrt(d / h) * (4.0 * inv + 1.0)
                * math.sqrt(head_sum) * norm(p["w_o"].array))
    q_term = max(norm(wq.array, np.inf) * norm(wq.array.T, np.inf) for wq, _ in heads)
    v_term = max(norm(wv.array.T, np.inf) for _, wv in heads)
    return (4.0 * inv + 1.0 / (d / h)) * norm(p["w_o"].array.T, np.inf) * q_term * v_term


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

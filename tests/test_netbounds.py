import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lipkit import netbounds
from lipkit.cli import main
from lipkit.activations import make_activation
from lipkit.errors import (
    CycleDetected,
    GraphInvalid,
    InvalidParams,
    NonBracketable,
    NotAPath,
    UnknownActivation,
    UnknownNode,
)
from lipkit.matcore import DenseMatrix
from lipkit.netbounds import (
    NetworkGraph,
    Node,
    all_node_lips,
    articulation_bound,
    attention_bound,
    certified_radius,
    dag_bound,
    lip_algebra,
    node_lipschitz,
    phi_inverse,
    product_bound,
    residual_bound,
)
from lipkit.specest import local_lipschitz_sample


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def enumerate_path_sum(nodes, edges, lips, source, sink, cap=10_000):
    """Brute-force sum over all source->sink paths of node-constant products."""
    succ = {n: [] for n in nodes}
    for u, v in edges:
        succ[u].append(v)
    total = 0.0
    count = 0
    stack = [(source, 1.0)]
    while stack:
        node, prod = stack.pop()
        if node == sink:
            total += prod
            count += 1
            if count > cap:
                raise RuntimeError("path explosion")
            continue
        for nxt in succ[node]:
            stack.append((nxt, prod * lips[nxt]))
    return total


def brute_force_articulation(nodes, edges, skip):
    """Cut vertices of the undirected shadow, by removal and reachability."""

    def components(vertices, undirected_edges):
        seen, comps = set(), 0
        adj = {v: set() for v in vertices}
        for u, v in undirected_edges:
            if u in adj and v in adj:
                adj[u].add(v)
                adj[v].add(u)
        for v in vertices:
            if v in seen:
                continue
            comps += 1
            stack = [v]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(adj[x] - seen)
        return comps

    base = components(nodes, edges)
    cuts = []
    for v in nodes:
        if v in skip:
            continue
        rest = [n for n in nodes if n != v]
        kept = [(a, b) for a, b in edges if a != v and b != v]
        if components(rest, kept) > base:
            cuts.append(v)
    return cuts


def scalar_graph(lips, edges, source, sink):
    nodes = [Node(source, "input")] + [
        Node(nid, "scalar_lip", lip=val) for nid, val in lips.items() if nid != source
    ]
    return NetworkGraph(nodes, edges, source=source, sink=sink)


def random_dag(rng, max_nodes=10):
    """Random layered DAG with unique source/sink and dyadic node constants
    (products and small sums of dyadics are exact in binary floating point)."""
    n_inner = int(rng.integers(1, max_nodes - 1))
    ids = ["s"] + [f"n{i}" for i in range(n_inner)] + ["t"]
    lip_pool = [0.25, 0.5, 1.0, 2.0]
    lips = {nid: float(rng.choice(lip_pool)) for nid in ids}
    lips["s"] = 1.0
    edges = set()
    for i, nid in enumerate(ids[1:], start=1):
        j = int(rng.integers(0, i))
        edges.add((ids[j], nid))  # guarantees connectivity in topo order
    for _ in range(int(rng.integers(0, 2 * len(ids)))):
        i, j = sorted(rng.choice(len(ids), size=2, replace=False))
        edges.add((ids[i], ids[j]))
    # force unique sink: wire any dangling node into t
    out_deg = {nid: 0 for nid in ids}
    for u, _ in edges:
        out_deg[u] += 1
    for nid in ids[:-1]:
        if out_deg[nid] == 0:
            edges.add((nid, "t"))
    g = scalar_graph(lips, sorted(edges), "s", "t")
    return g, lips


def figure_graph(extra_direct_edge=True):
    """Source fanning into three parallel nodes, a merge node, and the sink,
    plus an optional direct source->sink edge; all unit constants."""
    lips = {f"u{i}": 1.0 for i in (1, 2, 3)}
    lips.update({"v": 1.0, "t": 1.0})
    edges = [("s", f"u{i}") for i in (1, 2, 3)]
    edges += [(f"u{i}", "v") for i in (1, 2, 3)]
    edges.append(("v", "t"))
    if extra_direct_edge:
        edges.append(("s", "t"))
    return scalar_graph(lips, edges, "s", "t")


class TestGraphValidation:
    def test_cycle_detected(self):
        nodes = [Node("s", "input"), Node("a", "scalar_lip", lip=1.0), Node("b", "scalar_lip", lip=1.0), Node("t", "scalar_lip", lip=1.0)]
        with pytest.raises(CycleDetected):
            NetworkGraph(nodes, [("s", "a"), ("a", "b"), ("b", "a"), ("b", "t")])

    def test_two_sources_rejected(self):
        nodes = [Node("s1", "input"), Node("s2", "input"), Node("t", "scalar_lip", lip=1.0)]
        with pytest.raises(GraphInvalid):
            NetworkGraph(nodes, [("s1", "t"), ("s2", "t")])

    def test_unresolved_weight_ref(self):
        nodes = [Node("s", "input"), Node("l", "linear", weight_ref="w")]
        with pytest.raises(GraphInvalid):
            NetworkGraph(nodes, [("s", "l")])

    def test_unknown_node_lookup(self):
        g = figure_graph()
        with pytest.raises(UnknownNode):
            node_lipschitz(g, "zz")

    def test_repeated_edge_refused_by_name(self):
        # a sums its inputs, so a(in + in) has constant 2; a DiGraph would
        # keep one of the two edges and the path sum would read 1
        nodes = [Node("in", "input"), Node("a", "scalar_lip", lip=1.0), Node("out", "scalar_lip", lip=1.0)]
        with pytest.raises(GraphInvalid, match=r"^edge \('in', 'a'\) is repeated$"):
            NetworkGraph(nodes, [("in", "a"), ("in", "a"), ("a", "out")])


class TestGraphFromDoc:
    @staticmethod
    def _doc(activation):
        return {
            "nodes": [{"id": "in", "kind": "input"},
                      {"id": "a", "kind": "activation", "activation": activation},
                      {"id": "out", "kind": "scalar_lip", "lip": 1.0}],
            "edges": [["in", "a"], ["a", "out"]],
        }

    @pytest.mark.parametrize(
        "activation, field",
        [({"name": "relu", "alpha": 5}, "alpha"), ({"name": "tanh", "dim": 7}, "dim"),
         ({"name": "softmax", "dim": 3, "alpha": 3}, "alpha"),
         ({"name": "elu", "alpha": 3, "beta": 2}, "beta")],
        ids=["relu-alpha", "tanh-dim", "softmax-alpha", "elu-beta"],
    )
    def test_field_not_read_refused(self, activation, field):
        text = f"node 'a': activation {activation['name']!r} does not read {field!r}"
        with pytest.raises(GraphInvalid) as info:
            netbounds.graph_from_doc(self._doc(activation))
        assert str(info.value) == text

    @pytest.mark.parametrize("activation", [{"name": "leaky_relu", "alpha": 0.1},
                                            {"name": "elu", "alpha": 2},
                                            {"name": "softmax", "dim": 3}])
    def test_field_read_accepted(self, activation):
        g = netbounds.graph_from_doc(self._doc(activation))
        assert g.node("a").activation == make_activation(**activation)

    @pytest.mark.parametrize("name", ["selu", ["relu"], {"n": 1}])
    def test_unknown_name_refused_before_its_fields(self, name):
        with pytest.raises(UnknownActivation):
            netbounds.graph_from_doc(self._doc({"name": name, "alpha": 5}))

    @pytest.mark.parametrize("node, key", [
        ({"kind": "input", "lip": 2}, "lip"),
        ({"kind": "linear", "weight_ref": "w", "activation": "relu"}, "activation"),
        ({"kind": "activation", "activation": "elu", "alpha": 3}, "alpha"),
        ({"kind": "scalar_lip", "lip": 1, "inner_lip": 1}, "inner_lip"),
        ({"kind": "residual_group", "inner_lip": 1, "lip": 1}, "lip"),
        ({"kind": "attention", "attention_kind": "kim_l2", "n": 3,
          "params": {"heads": [["w", "w"]], "w_o": "w", "n": 3, "d": 2}}, "n"),
    ], ids=["input", "linear", "activation", "scalar_lip", "residual_group", "attention"])
    def test_node_key_its_kind_does_not_read_refused(self, node, key):
        doc = self._doc("relu")
        doc["nodes"][1] = {"id": "a", **node}
        doc["matrices"] = {"w": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}}
        with pytest.raises(GraphInvalid) as info:
            netbounds.graph_from_doc(doc)
        assert str(info.value) == f"node 'a': kind {node['kind']!r} does not read {key!r}"

    @pytest.mark.parametrize("top, matrix, text", [
        ({"sorce": "in"}, {}, "network: the document does not read 'sorce'"),
        ({}, {"scale": 10}, "matrix 'w': the matrix does not read 'scale'"),
    ], ids=["document", "matrix"])
    def test_document_or_matrix_key_not_read_refused(self, top, matrix, text):
        # a matrix read without its "scale": 10 would bound a tenth of the map
        doc = {**self._doc("relu"), **top}
        doc["matrices"] = {"w": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1], **matrix}}
        with pytest.raises(GraphInvalid) as info:
            netbounds.graph_from_doc(doc)
        assert str(info.value) == text

    @pytest.mark.parametrize("kind", ["conv", ["activation"], {"k": 1}])
    def test_unknown_kind_refused_before_its_keys(self, kind):
        doc = self._doc("relu")
        doc["nodes"][1].update(kind=kind, alpha=3)
        with pytest.raises(GraphInvalid, match=re.escape(f"node 'a': unknown kind {kind!r}")):
            netbounds.graph_from_doc(doc)

    def test_unknown_activation_refused_before_unread_keys(self):
        doc = self._doc({"name": "selu", "beta": 2})
        doc["nodes"][1]["alpha"] = 3
        with pytest.raises(UnknownActivation):
            netbounds.graph_from_doc(doc)


class TestNodeLipschitz:
    def _linear_graph(self, mat, spectral="auto", **opts):
        g = NetworkGraph(
            [Node("s", "input"), Node("l", "linear", weight_ref="w")],
            [("s", "l")],
            matrices={"w": mat},
        )
        return node_lipschitz(g, "l", spectral=spectral, **opts)

    def test_linear_spectral_norm(self):
        nl = self._linear_graph(DenseMatrix(np.diag([3.0, 1.0])))
        assert nl.lip == pytest.approx(3.0)
        assert nl.provenance == "closed_form"

    def test_linear_power_provenance(self):
        nl = self._linear_graph(
            DenseMatrix(np.diag([3.0, 1.0])), spectral="power", iters=80, seed=5
        )
        assert nl.lip == pytest.approx(3.0, abs=1e-10)
        assert nl.provenance == "power_iteration"
        assert nl.iterations == 80 and nl.seed == 5

    def test_activation_node(self):
        g = NetworkGraph(
            [Node("s", "input"), Node("a", "activation", activation=make_activation("relu"))],
            [("s", "a")],
        )
        assert node_lipschitz(g, "a").lip == 1.0

    def test_scalar_passthrough(self):
        g = scalar_graph({"t": 0.7}, [("s", "t")], "s", "t")
        nl = node_lipschitz(g, "t")
        assert nl.lip == 0.7 and nl.provenance == "user_supplied"

    def test_negative_zero_constant_is_positive_zero(self):
        # from the Python API as from a network file: -0.0 would print as -0
        g = scalar_graph({"t": -0.0}, [("s", "t")], "s", "t")
        assert math.copysign(1.0, node_lipschitz(g, "t").lip) == 1.0
        doc = {"nodes": [{"id": "s", "kind": "input"}, {"id": "t", "kind": "scalar_lip", "lip": -0.0}],
               "edges": [["s", "t"]]}
        assert math.copysign(1.0, netbounds.graph_from_doc(doc).node("t").lip) == 1.0

    def test_residual_node(self):
        g = NetworkGraph(
            [Node("s", "input"), Node("r", "residual_group", inner_lip=0.5)],
            [("s", "r")],
        )
        assert node_lipschitz(g, "r").lip == 1.5


class TestTiedWeights:
    def test_each_weight_ref_normed_once(self, monkeypatch, rng):
        mats = {ref: DenseMatrix(rng.standard_normal((5, 4))) for ref in ("a", "b")}
        refs = ["a", "b", "a", "a", "b"]
        nodes = [Node("s", "input")]
        nodes += [Node(f"l{i}", "linear", weight_ref=ref) for i, ref in enumerate(refs)]
        ids = [n.id for n in nodes]
        g = NetworkGraph(nodes, list(zip(ids, ids[1:])), matrices=mats)
        per_node = {nid: node_lipschitz(g, nid, "power", 30, 4) for nid in ids}
        calls = []

        def counting(g, node_id, *args):
            calls.append(node_id)
            return node_lipschitz(g, node_id, *args)

        monkeypatch.setattr(netbounds, "node_lipschitz", counting)
        assert all_node_lips(g, "power", 30, 4) == per_node
        assert calls == ["s", "l0", "l1"]


class TestProductBound:
    def test_three_layer_product(self):
        g = scalar_graph(
            {"a": 2.0, "b": 0.5, "c": 3.0}, [("s", "a"), ("a", "b"), ("b", "c")], "s", "c"
        )
        assert product_bound(g) == 3.0

    def test_all_ones_chain(self):
        lips = {f"n{i}": 1.0 for i in range(10)}
        edges = [("s", "n0")] + [(f"n{i}", f"n{i+1}") for i in range(9)]
        g = scalar_graph(lips, edges, "s", "n9")
        assert product_bound(g) == 1.0

    def test_dense_relu_dense(self):
        mats = {
            "w1": DenseMatrix(np.diag([3.0, 1.0])),
            "w2": DenseMatrix(np.diag([2.0, 2.0])),
        }
        nodes = [
            Node("s", "input"),
            Node("l1", "linear", weight_ref="w1"),
            Node("r", "activation", activation=make_activation("relu")),
            Node("l2", "linear", weight_ref="w2"),
        ]
        g = NetworkGraph(nodes, [("s", "l1"), ("l1", "r"), ("r", "l2")], matrices=mats)
        # per-node oracle then multiply
        expect = 1.0
        for nid in ("s", "l1", "r", "l2"):
            expect *= node_lipschitz(g, nid).lip
        assert product_bound(g) == pytest.approx(expect)
        assert expect == pytest.approx(6.0)

    def test_not_a_path(self):
        g = figure_graph()
        with pytest.raises(NotAPath):
            product_bound(g)

    @pytest.mark.parametrize("edges, edge", [
        # a residual block: the skip edge s -> m adds the path s, m, t
        ([("s", "a"), ("a", "m"), ("s", "m"), ("m", "t")], "'s' -> 'm'"),
        # a diamond: the branch at s gives the paths s, a, t and s, b, t
        ([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")], "'s' -> '[ab]'"),
    ], ids=["chain0", "chain1"])
    def test_an_edge_off_the_chain_is_refused_by_name(self, edges, edge):
        # either way the path sum is 2, and no chain's product, 1, bounds it
        g = scalar_graph(dict.fromkeys({v for _, v in edges}, 1.0), edges, "s", "t")
        assert dag_bound(g).bound == articulation_bound(g).bound == 2.0
        with pytest.raises(NotAPath, match=rf"edge \({edge}\) does not join consecutive"):
            product_bound(g)


class TestDagBound:
    def test_figure_four_paths(self):
        assert dag_bound(figure_graph()).bound == 4.0

    def test_chain_equals_product(self):
        g = scalar_graph(
            {"a": 2.0, "b": 0.5, "c": 3.0}, [("s", "a"), ("a", "b"), ("b", "c")], "s", "c"
        )
        assert dag_bound(g).bound == product_bound(g)

    def test_random_dags_match_enumeration_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            g, lips = random_dag(rng)
            dp = dag_bound(g).bound
            brute = enumerate_path_sum(
                list(g.nodes), list(g.digraph.edges), lips, "s", "t"
            )
            assert dp == brute  # dyadic constants: both sums are exact

    def test_monotone_in_node_lip(self):
        rng = np.random.default_rng(23)
        g, lips = random_dag(rng)
        base = dag_bound(g).bound
        bumped = dict(lips)
        inner = [n for n in lips if n not in ("s",)]
        bumped[inner[0]] = lips[inner[0]] * 2.0
        g2 = scalar_graph(bumped, list(g.digraph.edges), "s", "t")
        assert dag_bound(g2).bound >= base

    def test_per_node_s_source_is_one(self):
        res = dag_bound(figure_graph())
        assert res.per_node_s["s"] == 1.0
        assert res.per_node_s["v"] == 3.0


class TestSourceConstant:
    """Every source->sink path starts at the source, so its constant is a
    factor of every path product."""

    def test_random_dags_match_enumeration_with_the_source(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            g, lips = random_dag(rng)
            lips["s"] = float(rng.choice([0.25, 2.0, 4.0]))
            edges = list(g.digraph.edges)
            g = NetworkGraph([Node(nid, "scalar_lip", lip=val) for nid, val in lips.items()],
                             edges, source="s", sink="t")
            expect = lips["s"] * enumerate_path_sum(list(lips), edges, lips, "s", "t")
            # dyadic constants: every sum and product is exact
            assert dag_bound(g).bound == articulation_bound(g).bound == expect

    def test_chains_match_the_product_with_the_source(self):
        rng = np.random.default_rng(47)
        for n in range(1, 6):
            ids = ["s"] + [f"n{i}" for i in range(n - 1)] + ["t"]
            lips = {nid: float(rng.choice([0.25, 0.5, 2.0, 4.0])) for nid in ids}
            g = NetworkGraph([Node(nid, "scalar_lip", lip=val) for nid, val in lips.items()],
                             list(zip(ids, ids[1:])), source="s", sink="t")
            expect = lips["s"] * enumerate_path_sum(ids, list(zip(ids, ids[1:])), lips, "s", "t")
            assert product_bound(g) == dag_bound(g).bound == expect
            assert articulation_bound(g).bound == expect

    def test_linear_source(self):
        g = NetworkGraph(
            [Node("w", "linear", weight_ref="w"), Node("a", "activation", activation=make_activation("relu"))],
            [("w", "a")],
            matrices={"w": DenseMatrix(np.diag([3.0, 1.0]))},
        )
        assert product_bound(g) == dag_bound(g).bound == 3.0
        res = articulation_bound(g)
        assert res.bound == 3.0 and res.subdag_bounds == [3.0]


def _hex_or_error(bound):
    try:
        return bound().hex()
    except FloatingPointError as exc:
        return str(exc)


@given(st.lists(st.sampled_from([0.0, 0.5, 3.0, 1e200]) | st.floats(0.0, 4.0), min_size=1, max_size=12))
@example([1.0, 1e200, 1e200, 0.0])
def test_product_on_a_chain_is_the_path_sum_pass(lips):
    # the pass's s_k = l_k * s_(k-1) is the chain's product in the same
    # order, bit for bit, and an inf * 0 raises the same error for both
    ids = [f"n{i}" for i in range(len(lips))]
    g = NetworkGraph([Node(nid, "scalar_lip", lip=val) for nid, val in zip(ids, lips)],
                     list(zip(ids, ids[1:])))
    product = _hex_or_error(lambda: product_bound(g))
    assert product == _hex_or_error(lambda: dag_bound(g).bound)
    expect = math.prod(lips)
    assert product == (expect.hex() if not math.isnan(expect) else
                       "bound is nan: a product of node constants overflowed and met 0")


@given(st.integers(0, 2**32 - 1), st.integers(3, 10))
@example(0, 3)  # s -> n0 -> t and s -> t
@example(28, 5)  # the chain s -> n0 -> n1 -> t
def test_product_bound_is_the_path_sum_exactly_on_chains(seed, max_nodes):
    # with one source and one sink, a graph is a chain exactly when no node
    # has two successors; any other graph is refused by an edge it has
    g, _ = random_dag(np.random.default_rng(seed), max_nodes)
    branches = any(g.digraph.out_degree(nid) > 1 for nid in g.nodes)
    try:
        bound = product_bound(g)
    except NotAPath as exc:
        named = re.fullmatch(r"edge \('(.+)' -> '(.+)'\) does not join consecutive chain nodes",
                             str(exc))
        assert branches and named and g.digraph.has_edge(*named.groups())
    else:
        assert not branches and bound.hex() == dag_bound(g).bound.hex()


_CHAIN = [("s", "a"), ("a", "b"), ("b", "c")]


@pytest.mark.parametrize("bound, edges", [
    (product_bound, _CHAIN),
    (lambda g: dag_bound(g).bound, _CHAIN + [("s", "c")]),
    (lambda g: articulation_bound(g).bound, _CHAIN + [("s", "c")]),
], ids=["product", "dag", "articulation"])
def test_nan_bound_raises(bound, edges):
    # 1e200 * 1e200 overflows to inf, and inf * 0 is nan. The product bound
    # reads chains only; for the path sums the edge s -> c leaves no cut
    # vertex, so the 0 cannot be multiplied in first
    lips = {"s": 1.0, "a": 1e200, "b": 1e200, "c": 0.0}
    g = scalar_graph(lips, edges, "s", "c")
    with pytest.raises(FloatingPointError, match="bound is nan"):
        bound(g)


class TestArticulationBound:
    def test_chain_every_internal_node_is_cut(self):
        g = scalar_graph(
            {"a": 2.0, "b": 0.5, "c": 3.0}, [("s", "a"), ("a", "b"), ("b", "c")], "s", "c"
        )
        res = articulation_bound(g)
        assert res.cut_vertices == ["a", "b"]
        assert res.bound == pytest.approx(3.0)

    def test_figure_with_direct_edge_has_no_cuts(self):
        res = articulation_bound(figure_graph(extra_direct_edge=True))
        assert res.cut_vertices == []
        assert res.bound == 4.0

    def test_figure_without_direct_edge_cuts_at_merge(self):
        g = figure_graph(extra_direct_edge=False)
        res = articulation_bound(g)
        assert res.cut_vertices == ["v"]
        assert res.bound == pytest.approx(dag_bound(g).bound)

    def test_matches_brute_force_articulation_finder(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g, _ = random_dag(rng)
            res = articulation_bound(g)
            oracle = brute_force_articulation(
                list(g.nodes), list(g.digraph.edges), skip={"s", "t"}
            )
            assert sorted(res.cut_vertices) == sorted(oracle)

    def test_cuts_found_without_networkx_cut_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("networkx cut search called")

        rng = np.random.default_rng(41)
        graphs = [random_dag(rng)[0] for _ in range(20)]
        monkeypatch.setattr(netbounds.nx, "articulation_points", forbidden)
        monkeypatch.setattr(netbounds.nx.DiGraph, "to_undirected", forbidden)
        for g in graphs:
            oracle = brute_force_articulation(
                list(g.nodes), list(g.digraph.edges), skip={"s", "t"}
            )
            cuts = articulation_bound(g).cut_vertices
            assert cuts == [nid for nid in g.topo_order if nid in oracle]

    def test_two_residual_blocks_in_series(self):
        # each block: a split into identity and a unit-lip branch, then a merge
        lips = {"a1": 1.0, "m1": 1.0, "a2": 1.0, "m2": 1.0}
        edges = [
            ("s", "a1"), ("s", "m1"), ("a1", "m1"),
            ("m1", "a2"), ("m1", "m2"), ("a2", "m2"),
        ]
        g = scalar_graph(lips, edges, "s", "m2")
        res = articulation_bound(g)
        assert res.cut_vertices == ["m1"]
        assert res.bound == pytest.approx(4.0)  # (1+1) * (1+1)
        assert res.bound == pytest.approx(dag_bound(g).bound)

    def test_equals_dag_bound_and_path_enumeration(self):
        # dyadic constants: both sides are exact, so they agree bit for bit
        rng = np.random.default_rng(31)
        for _ in range(20):
            g, lips = random_dag(rng)
            expect = enumerate_path_sum(list(g.nodes), list(g.digraph.edges), lips, "s", "t")
            assert articulation_bound(g).bound == dag_bound(g).bound == expect

    def test_subdag_bounds_match_segment_enumeration(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            g, lips = random_dag(rng)
            res = articulation_bound(g)
            anchors = ["s"] + res.cut_vertices + ["t"]
            assert len(res.subdag_bounds) == len(anchors) - 1
            for start, end, val in zip(anchors, anchors[1:], res.subdag_bounds):
                # a segment excludes both endpoints, except the sink closing the last one
                seg_lips = lips if end == "t" else dict(lips, **{end: 1.0})
                expect = enumerate_path_sum(
                    list(g.nodes), list(g.digraph.edges), seg_lips, start, end
                )
                assert val == expect

    def test_single_node_graph(self):
        g = NetworkGraph([Node("s", "input")], [], source="s", sink="s")
        res = articulation_bound(g)
        assert res.cut_vertices == []
        assert res.subdag_bounds == [1.0]
        assert res.bound == dag_bound(g).bound == 1.0

    def test_long_residual_chain(self):
        # 1000 residual blocks (2001 nodes); every merge but the sink is a cut
        lips, edges, prev = {}, [], "s"
        for i in range(1000):
            a, m = f"a{i}", f"m{i}"
            lips[a], lips[m] = 1.0, 0.5
            edges += [(prev, a), (prev, m), (a, m)]
            prev = m
        g = scalar_graph(lips, edges, "s", prev)
        res = articulation_bound(g)
        assert res.cut_vertices == [f"m{i}" for i in range(999)]
        assert res.subdag_bounds == [2.0] * 999 + [1.0]
        assert res.bound == dag_bound(g).bound == 1.0


class TestResidualAndAlgebra:
    def test_residual_values(self):
        assert residual_bound(0.0) == 1.0
        assert residual_bound(0.5) == 1.5

    def test_residual_with_spectral_norm(self, rng):
        mat = rng.standard_normal((4, 4))
        inner = float(np.linalg.norm(mat, 2))
        assert residual_bound(inner) == 1.0 + inner

    def test_residual_negative_rejected(self):
        with pytest.raises(ValueError):
            residual_bound(-0.1)

    def test_algebra(self):
        assert lip_algebra("add", [1.0, 1.0]) == 2.0
        assert lip_algebra("concat", [3.0, 4.0], p=2) == pytest.approx(5.0)
        assert lip_algebra("concat", [3.0, 4.0], p=np.inf) == 4.0

    def test_algebra_validation(self):
        with pytest.raises(ValueError):
            lip_algebra("add", [-1.0])
        with pytest.raises(ValueError):
            lip_algebra("mul", [1.0])


_EYE = [[1.0, 0.0], [0.0, 1.0]]


class TestAttentionBounds:
    def test_zero_weights_vanish_for_every_kind(self):
        z = DenseMatrix(np.zeros((2, 2)))
        x = DenseMatrix(np.ones((3, 2)))
        assert attention_bound("hu_local", {"n": 3, "x": x, "delta": 0.1, "w_q": z, "w_k": z, "w_v": z}) == 0.0
        assert attention_bound("kim_l2", {"heads": [(z, z)], "w_o": z, "n": 3, "d": 2}) == 0.0
        assert attention_bound("kim_linf", {"heads": [(z, z)], "w_o": z, "n": 3, "d": 2}) == 0.0
        assert attention_bound("yudin", {"w_q": z, "w_k": z, "w_v": z, "x": x}) == 0.0

    def test_kim_l2_unit_case(self):
        one = DenseMatrix(np.eye(1))
        val = attention_bound("kim_l2", {"heads": [(one, one)], "w_o": one, "n": 1, "d": 1})
        assert val == pytest.approx(1.0)

    def test_hu_local_substitution(self):
        eye = DenseMatrix(np.eye(2))
        val = attention_bound(
            "hu_local",
            {"n": 2, "x_norm": 1.0, "delta": 0.0, "w_q": eye, "w_k": eye, "w_v": eye},
        )
        assert val == pytest.approx(12.0)

    def test_kim_growth_in_sequence_length(self):
        one = DenseMatrix(np.eye(2))
        params = {"heads": [(one, one)], "w_o": one, "d": 4}
        vals_l2 = [attention_bound("kim_l2", {**params, "n": n}) for n in (1, 4, 16, 64)]
        vals_inf = [attention_bound("kim_linf", {**params, "n": n}) for n in (1, 4, 16, 64)]
        assert all(b > a for a, b in zip(vals_l2, vals_l2[1:]))
        assert all(b > a for a, b in zip(vals_inf, vals_inf[1:]))

    def test_yudin_direct_arithmetic(self, rng):
        x = rng.standard_normal((3, 2))
        wq = rng.standard_normal((2, 2))
        wk = rng.standard_normal((2, 2))
        wv = rng.standard_normal((2, 4))
        val = attention_bound(
            "yudin",
            {
                "w_q": DenseMatrix(wq),
                "w_k": DenseMatrix(wk),
                "w_v": DenseMatrix(wv),
                "x": DenseMatrix(x),
            },
        )
        # independent evaluation of the same closed form
        a = wq @ wk.T / math.sqrt(2)
        scores = x @ a @ x.T
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        jn = max(
            np.linalg.norm(np.diag(row) - np.outer(row, row), 2) for row in p
        )
        expect = np.linalg.norm(wv, 2) * (
            np.linalg.norm(p, 2)
            + 2 * np.linalg.norm(x) ** 2 * np.linalg.norm(a, 2) * jn
        )
        assert val == pytest.approx(expect, rel=1e-12)

    def test_hu_local_square_overflow_names_the_kind(self):
        eye = DenseMatrix(np.eye(2))
        params = {"n": 2, "x_norm": 1e200, "delta": 0.0, "w_q": eye, "w_k": eye, "w_v": eye}
        with pytest.raises(FloatingPointError, match="^hu_local: overflow in its float64 arithmetic$"):
            attention_bound("hu_local", params)

    @pytest.mark.parametrize("x_norm, delta", [(1.0, -3.0), (-1.0, 0.0)], ids=["delta", "x_norm"])
    def test_hu_local_negative_radius_part_refused(self, x_norm, delta):
        eye = DenseMatrix(np.eye(2))
        params = {"n": 2, "x_norm": x_norm, "delta": delta, "w_q": eye, "w_k": eye, "w_v": eye}
        key = "delta" if delta < 0 else "x_norm"
        with pytest.raises(InvalidParams, match=f"hu_local: '{key}' must be >= 0, got -"):
            attention_bound("hu_local", params)

    def test_yudin_query_and_key_widths_must_match(self):
        params = {"w_q": _EYE, "w_k": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "w_v": _EYE, "x": _EYE}
        with pytest.raises(InvalidParams,
                           match="^yudin: 'w_q' and 'w_k' must have the same width, got 2 and 3$"):
            attention_bound("yudin", params)

    def test_missing_params(self):
        with pytest.raises(InvalidParams):
            attention_bound("hu_local", {"n": 2})
        with pytest.raises(InvalidParams):
            attention_bound("nope", {})

    def test_phi_inverse(self):
        assert phi_inverse(0.0) == 0.0
        for y in (0.3, 1.0, 9.0, 1e4):
            x = phi_inverse(y)
            assert x * math.exp(x + 1.0) == pytest.approx(y, rel=1e-14)
        with pytest.raises(NonBracketable):
            phi_inverse(-1.0)

    @pytest.mark.parametrize(
        "kind, params",
        [("hu_local", {"n": 2, "x_norm": 1.0, "w_v": [[1e200]], "w_q": [[1e200]], "w_k": [[1.0]]}),
         ("kim_l2", {"heads": [[[[1e154]], [[1e154]]]], "w_o": [[1.0]], "n": 3, "d": 2}),
         ("kim_l2", {"heads": [[[[1e200]], [[1.0]]]], "w_o": [[1.0]], "n": 3, "d": 2}),
         ("kim_linf", {"heads": [[[[1e200]], [[1.0]]]], "w_o": [[1.0]], "n": 2, "d": 2}),
         ("yudin", {"w_q": _EYE, "w_k": _EYE, "w_v": [[1.7e308]], "x": _EYE})],
        ids=["hu_local", "kim_l2", "kim_l2-square", "kim_linf", "yudin"],
    )
    def test_bound_overflowing_in_float_arithmetic_raises_naming_the_kind(self, kind, params):
        # each overflow happens in Python floats, which np.errstate does not see:
        # a power raises OverflowError, a product gives inf
        with pytest.raises(FloatingPointError, match=f"^{kind}: overflow in its float64 arithmetic$"):
            attention_bound(kind, params)


# a valid parameter set of each attention kind, all matrices inline
_VALID_ATTENTION = {
    "hu_local": {"n": 2, "x": [[1.0, 0.0], [0.5, 0.5]], "delta": 0.5,
                 "w_v": _EYE, "w_q": _EYE, "w_k": _EYE},
    "kim_l2": {"heads": [[_EYE, _EYE]], "w_o": _EYE, "n": 3, "d": 2},
    "kim_linf": {"heads": [[_EYE, _EYE]], "w_o": _EYE, "n": 3, "d": 2},
    "yudin": {"w_q": _EYE, "w_k": _EYE, "w_v": _EYE, "x": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]},
}
_BAD_MATRICES = {
    "nan": [[math.nan, 0.0], [0.0, 1.0]], "inf": [[math.inf, 0.0], [0.0, 1.0]],
    "-inf": [[-math.inf]], "1-D": [1.0, 2.0], "3-D": [[[1.0]]], "ragged": [[1.0, 2.0], [3.0]],
    "empty": [[]], "unknown-ref": "nope",
}


def _refused_attention():
    """(id, kind, params, key): a parameter set the attention table refuses,
    and the key its message names."""
    for kind, valid in _VALID_ATTENTION.items():
        yield f"{kind}-unknown-key", kind, {**valid, "dleta": 0.5}, "dleta"
        for key in valid:
            if key != "delta":  # the one optional key
                yield f"{kind}-missing-{key}", kind, {k: v for k, v in valid.items() if k != key}, key
        for bad in ([True, 2.7, 0, -3, "w"] if "n" in valid else []):
            yield f"{kind}-n-{bad}", kind, {**valid, "n": bad}, "n"
        for key, value in valid.items():
            if value is _EYE or key == "x":
                for label, bad in _BAD_MATRICES.items():
                    yield f"{kind}-{key}-{label}", kind, {**valid, key: bad}, key
        if "heads" in valid:
            for label, bad in _BAD_MATRICES.items():
                yield f"{kind}-heads-{label}", kind, {**valid, "heads": [[bad, _EYE]]}, "heads"
            for label, bad in (("none", []), ("not-a-pair", [[_EYE]]), ("object", {})):
                yield f"{kind}-heads-{label}", kind, {**valid, "heads": bad}, "heads"
            yield f"{kind}-d-0", kind, {**valid, "d": 0}, "d"
    yield "hu_local-x-and-x_norm", "hu_local", {**_VALID_ATTENTION["hu_local"], "x_norm": 1.0}, "x_norm"
    yield "yudin-w_k-wider", "yudin", {**_VALID_ATTENTION["yudin"], "w_k": [[1.0, 0.0, 0.0]] * 2}, "w_k"


_REFUSED_ATTENTION = list(_refused_attention())


class TestAttentionParams:
    @pytest.mark.parametrize("kind", _VALID_ATTENTION)
    def test_valid_set_accepted(self, kind):
        assert math.isfinite(attention_bound(kind, _VALID_ATTENTION[kind]))

    def test_table_has_every_kind_and_key(self):
        assert {kind: set(table) for kind, table in netbounds.ATTENTION_PARAMS.items()} == {
            kind: set(valid) | ({"x_norm"} if kind == "hu_local" else set())
            for kind, valid in _VALID_ATTENTION.items()
        }

    @pytest.mark.parametrize("kind, params, key", [case[1:] for case in _REFUSED_ATTENTION],
                             ids=[case[0] for case in _REFUSED_ATTENTION])
    def test_refused_naming_the_key(self, kind, params, key):
        with pytest.raises(InvalidParams) as info:
            attention_bound(kind, params)
        assert str(info.value).startswith(f"{kind}: ") and repr(key) in str(info.value)

    @pytest.mark.parametrize("kind, params, key", [case[1:] for case in _REFUSED_ATTENTION],
                             ids=[case[0] for case in _REFUSED_ATTENTION])
    def test_refused_by_the_network_reader_naming_node_and_key(self, capsys, tmp_path, kind, params, key):
        doc = {
            "nodes": [{"id": "in", "kind": "input"},
                      {"id": "a", "kind": "attention", "attention_kind": kind, "params": params},
                      {"id": "out", "kind": "scalar_lip", "lip": 1.0}],
            "edges": [["in", "a"], ["a", "out"]],
            "matrices": {"w": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}},
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        code = main(["bound", "--net", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: node 'a': ") and err.count("\n") == 1
        assert repr(key) in err

    def test_unknown_kind_refused_by_the_reader(self):
        node = {"id": "a", "kind": "attention", "attention_kind": "bogus"}
        doc = {"nodes": [{"id": "in", "kind": "input"}, node], "edges": [["in", "a"]]}
        with pytest.raises(InvalidParams, match="^node 'a': attention_kind must be one of"):
            netbounds.graph_from_doc(doc)

    @pytest.mark.parametrize("data, text", [(["1", 0, 0, 1], "'data'[0]"), ([1, 0, False, 1], "'data'[2]")])
    def test_reader_refuses_matrix_data_that_is_no_number(self, data, text):
        doc = {"nodes": [{"id": "in", "kind": "input"}],
               "matrices": {"w": {"rows": 2, "cols": 2, "data": data}}}
        with pytest.raises(GraphInvalid, match=f"^matrix 'w': {re.escape(text)} must be a finite"):
            netbounds.graph_from_doc(doc)

    @pytest.mark.parametrize(
        "data",
        [np.array(["1", "0", "0", "1"]), np.array([True, False, False, True]),
         np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1, 0, 0, 1])],
        ids=["strings", "bools", "2-D", "ints"],
    )
    def test_reader_refuses_an_array_the_decoder_does_not_make(self, data):
        doc = {"nodes": [{"id": "in", "kind": "input"}],
               "matrices": {"w": {"rows": 2, "cols": 2, "data": data}}}
        with pytest.raises(GraphInvalid, match="^matrix 'w': 'data' must be"):
            netbounds.graph_from_doc(doc)

    def test_reader_takes_decoded_data_arrays(self):
        text = '{"nodes": [{"id": "in", "kind": "input"}], "matrices": {"w": {"rows": 2, "cols": 2, "data": [1, 2.5, 0, 1]}}}'
        doc = json.loads(text, object_hook=netbounds._data_arrays)
        assert isinstance(doc["matrices"]["w"]["data"], np.ndarray)
        assert netbounds.graph_from_doc(doc).matrices["w"] == DenseMatrix([[1.0, 0.0], [2.5, 1.0]])

    def test_reader_stores_the_typed_parameters(self):
        doc = {
            "nodes": [{"id": "in", "kind": "input"},
                      {"id": "a", "kind": "attention", "attention_kind": "hu_local",
                       "params": {"n": 2, "x_norm": 1, "w_v": "w", "w_q": [[2, 0]], "w_k": "w"}}],
            "edges": [["in", "a"]],
            "matrices": {"w": {"rows": 1, "cols": 2, "data": [3, 4]}},
        }
        params = netbounds.graph_from_doc(doc).node("a").attention_params
        assert params == {"n": 2, "x_norm": 1.0, "delta": 0.0, "w_v": DenseMatrix([[3.0, 4.0]]),
                          "w_q": DenseMatrix([[2.0, 0.0]]), "w_k": DenseMatrix([[3.0, 4.0]])}
        assert attention_bound("hu_local", params) == 6 * (5 * 2 * 5 + 5)


class TestCertifiedRadius:
    def test_examples(self):
        assert certified_radius(math.sqrt(2.0), 1.0, p=2) == pytest.approx(1.0)
        assert certified_radius(1.0, 2.0, p=np.inf) == 0.5
        assert certified_radius(0.0, 5.0, p=2) == 0.0
        assert certified_radius(0.0, 5.0, p=np.inf) == 0.0

    def test_zero_lipschitz_sentinel(self):
        assert certified_radius(1.0, 0.0) == math.inf

    def test_scaling(self):
        base = certified_radius(1.0, 1.0, p=2)
        assert certified_radius(3.0, 1.0, p=2) == pytest.approx(3 * base)
        assert certified_radius(1.0, 2.0, p=2) == pytest.approx(base / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            certified_radius(-1.0, 1.0)
        with pytest.raises(ValueError):
            certified_radius(1.0, 1.0, p=0.5)


class TestEmpiricalSanity:
    def test_sampled_lipschitz_below_product_bound(self, rng):
        # 2-layer map: W2 @ tanh(W1 @ x); tanh is 1-Lipschitz
        w1 = rng.standard_normal((4, 3))
        w2 = rng.standard_normal((2, 4))
        bound = np.linalg.norm(w1, 2) * np.linalg.norm(w2, 2)

        def grad(x):
            pre = w1 @ x
            jac = w2 @ np.diag(1.0 - np.tanh(pre) ** 2) @ w1
            return np.linalg.svd(jac, compute_uv=False)[:1]  # top singular value

        for center in rng.standard_normal((5, 3)):
            est = local_lipschitz_sample(grad, center, 0.5, n_samples=200, seed=7)
            assert est <= bound + 1e-9

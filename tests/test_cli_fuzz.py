"""Fuzz the four input readers (network JSON, matrix, signal and game CSV)
through ``cli.main``: whatever a file holds, the CLI exits 0 or with one of
the error codes 2-5, raises nothing, and prints nothing on stdout when it
refuses the input."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given
from hypothesis import strategies as st

from lipkit.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

VALID_NET = {
    "nodes": [
        {"id": "in", "kind": "input"},
        {"id": "l1", "kind": "linear", "weight_ref": "w"},
        {"id": "act", "kind": "activation", "activation": "relu"},
        {"id": "elu", "kind": "activation", "activation": {"name": "elu", "alpha": 0.5}},
        {"id": "res", "kind": "residual_group", "inner_lip": 0.5},
        {"id": "hu", "kind": "attention", "attention_kind": "hu_local",
         "params": {"n": 2, "x_norm": 1.0, "delta": 0.1, "w_v": "w", "w_q": "w", "w_k": "w"}},
        {"id": "kim", "kind": "attention", "attention_kind": "kim_l2",
         "params": {"heads": [["w", "w"]], "w_o": "w", "n": 3, "d": 2}},
        {"id": "kinf", "kind": "attention", "attention_kind": "kim_linf",
         "params": {"heads": [[[[1, 0], [0, 1]], "w"]], "w_o": "w", "n": 2, "d": 2}},
        {"id": "yu", "kind": "attention", "attention_kind": "yudin",
         "params": {"w_q": "w", "w_k": "w", "w_v": "w", "x": [[1, 0], [0, 1], [0.5, 0.5]]}},
        {"id": "out", "kind": "scalar_lip", "lip": 1.0},
    ],
    "edges": [["in", "l1"], ["l1", "act"], ["act", "elu"], ["elu", "res"], ["res", "hu"],
              ["hu", "kim"], ["kim", "kinf"], ["kinf", "yu"], ["yu", "out"], ["act", "out"]],
    "matrices": {"w": {"rows": 2, "cols": 2, "data": [0.5, 0.0, 0.25, 1.0]}},
    "source": "in",
    "sink": "out",
}


def _paths(value, prefix=()):
    """Every position in a JSON document, as a key/index path (root included)."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _run(name, text, *argv):
    """Write ``text`` to a fresh file and run the CLI on it (``{}`` in argv
    is the file's path); returns the exit code, once a nonzero code is seen
    to come with an empty stdout."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, name)
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([path if arg == "{}" else arg for arg in argv])
    assert code == 0 or out.getvalue() == "", (code, out.getvalue())
    return code


def test_unmutated_network_is_accepted():
    # the base document is valid, so a mutated one is refused only for its mutation
    assert _run("net.json", json.dumps(VALID_NET), "bound", "--net", "{}") == 0


@given(st.sampled_from(list(_paths(VALID_NET))), JSON_VALUES,
       st.sampled_from(["dag", "product", "articulation"]))
def test_network_json(path, value, method):
    text = json.dumps(_replace(VALID_NET, path, value))
    assert _run("net.json", text, "bound", "--net", "{}", "--method", method) in EXIT_CODES


TOKENS = (st.floats().map(repr) | st.integers(-10**30, 10**30).map(str)
          | st.sampled_from(["", " ", "nan", "-inf", "1e400", "x", "0x1", "1_0"]))
ROWS = st.lists(st.lists(TOKENS, min_size=1, max_size=4), max_size=4)


def _csv(rows):
    return "".join(",".join(row) + "\n" for row in rows)


@given(ROWS, st.sampled_from([1, 2, 3]), st.sampled_from([1, 2]), st.booleans())
def test_matrix_csv(rows, k, order, check_fd):
    argv = ["svd-deriv", "--matrix", "{}", "--k", str(k), "--order", str(order)]
    assert _run("m.csv", _csv(rows), *argv, *(["--check-fd"] if check_fd else [])) in EXIT_CODES


HEADERS = st.sampled_from(["# dx=1", "# dx=0.5 dy=2", "# dx=1 dy=1", "# dx=0", "# dx=x dy=1",
                           "# dy=1", "#", "1,2", ""]) | st.text(max_size=12)
SIGNAL_ACTIONS = st.sampled_from([["--bound"], ["--esd", "2"], ["--direction", "1", "--t", "0,1"],
                                  ["--direction", "0.6,0.8"], ["--band-center", "0,0",
                                                               "--band-radius", "0.5"]])


BAND = ["--band-center", "0,0", "--band-radius", "0.5"]
HUGE = [["1e308", "-1e308"], ["-1e308", "1e308"]]  # the 2-D spectrum overflows


@given(HEADERS, ROWS, SIGNAL_ACTIONS)
@example("# dx=1 dy=1", HUGE, ["--bound"])
@example("# dx=1 dy=1", HUGE, ["--esd", "2"])
@example("# dx=1 dy=1", HUGE, ["--direction", "0.6,0.8", "--t", "0,1"])
@example("# dx=1 dy=1", HUGE, BAND)
@example("# dx=0.5 dy=2", [["1.3407807929942597e+154"]], BAND)  # eps overflows
def test_signal_csv(header, rows, action):
    text = header.replace("\n", " ") + "\n" + _csv(rows)
    assert _run("s.csv", text, "fourier", "--signal", "{}", *action) in EXIT_CODES


MASKS = st.integers(-2, 7).map(str) | st.integers(0, 2**80).map(str) | TOKENS
VALID_GAME = [["0", "0"], ["1", "1"], ["2", "1"], ["3", "2"]]


def _mutated_game(cell, token):
    rows = [list(row) for row in VALID_GAME]
    rows[cell // 2][cell % 2] = token
    return rows


GAME_ROWS = (st.lists(st.tuples(MASKS, TOKENS).map(list) | st.lists(TOKENS, max_size=3), max_size=6)
             | st.builds(_mutated_game, st.integers(0, 7), MASKS))
GAME_ACTIONS = st.sampled_from([[], ["--score"], ["--mc-perms", "3"], ["--players", "2"],
                                ["--score", "--beta", "1,0"]])


@given(GAME_ROWS, GAME_ACTIONS)
def test_game_csv(rows, action):
    assert _run("g.csv", _csv(rows), "shapley", "--game", "{}", *action) in EXIT_CODES

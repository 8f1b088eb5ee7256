"""lipkit in fresh interpreters: the collector state that each import leaves,
and commands run as their own process, through interpreter exit."""

import json
import os
import subprocess
import sys

import pytest

import lipkit
from lipkit.cli import main

SRC = os.path.dirname(os.path.dirname(lipkit.__file__))


def _python(*args, cwd=None):
    # a fresh interpreter that finds this lipkit first
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


@pytest.mark.parametrize("code, out", [
    ("import gc, lipkit\nprint(gc.isenabled(), gc.get_freeze_count())", "True 0"),
    ("import gc\ngc.disable()\nimport lipkit\nprint(gc.isenabled())", "False"),
    ("import gc, sys\nsys.modules['networkx'] = None\n"
     "try:\n    import lipkit\nexcept ImportError:\n    print(gc.isenabled())", "True"),
    ("import gc, lipkit.cli\nprint(gc.isenabled(), gc.get_freeze_count() > 0)", "True True"),
], ids=["library", "left-off", "failed-import", "cli"])
def test_import_leaves_the_collector_as_found(code, out):
    # the package import leaves the collector alone; only the CLI freezes
    # what was imported
    proc = _python("-c", code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out + "\n", "")


_NET = {"nodes": [{"id": "in", "kind": "input"},
                  {"id": "a", "kind": "activation", "activation": {"name": "leaky_relu", "alpha": 0.1}},
                  {"id": "out", "kind": "scalar_lip", "lip": 2}],
        "edges": [["in", "a"], ["a", "out"]]}


@pytest.mark.parametrize("files, argv", [
    ({"net.json": json.dumps(_NET)}, ["bound", "--net", "net.json", "--out", "out.csv"]),
    ({"m.csv": "3,1,0\n0,2,1\n"},
     ["svd-deriv", "--matrix", "m.csv", "--k", "1", "--order", "2", "--check-fd", "--out", "out.csv"]),
    ({"game.csv": "".join(f"{m},{m}\n" for m in range(16))},
     ["shapley", "--game", "game.csv", "--players", "3", "--out", "out.csv"]),
], ids=["bound", "svd-deriv", "refused"])
def test_a_command_process_matches_main(capsys, tmp_path, monkeypatch, files, argv):
    # stdout, stderr, exit code and --out bytes survive interpreter exit
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out.csv"

    def take_out():
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return written

    proc = _python("-m", "lipkit.cli", *argv, cwd=tmp_path)
    written = take_out()
    code = main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr, written) == (
        code, captured.out, captured.err, take_out())
    if argv[0] == "shapley":
        assert (proc.returncode, proc.stdout, written) == (2, "", None)
    else:
        assert proc.returncode == 0 and written

"""The block-streamed CSV readers against the line-by-line readers they
replaced: on any file, both give bit-identical arrays or raise the same
exception type with the same message, whatever the block size."""

import itertools
import math
import os
import tempfile
import tracemalloc
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lipkit import matcore
from lipkit.fourlip import SpectralSignal, load_signal_csv
from lipkit.matcore import DenseMatrix, load_matrix_csv
from lipkit.specgame import CoalitionGame, load_game_csv
from test_cli_fuzz import TOKENS

# ---------------------------------------------------------------------------
# the line-by-line readers, kept as the reference
# ---------------------------------------------------------------------------


def _csv_rows_ref(lines, start=1):
    for lineno, line in enumerate(lines, start=start):
        line = line.strip()
        if line:
            yield lineno, line.split(",")


def _number_rows_ref(path, lines, start=1, width=None):
    rows = []
    for lineno, fields in _csv_rows_ref(lines, start):
        try:
            row = [float(tok) for tok in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a comma-separated number row") from exc
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: entries must be finite")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(
                f"{path}:{lineno}: row {lineno} has {len(row)} entries, expected {width}"
            )
        rows.append(row)
    return rows


def load_matrix_csv_ref(path):
    with open(path, encoding="utf-8") as fh:
        rows = _number_rows_ref(path, fh)
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    return DenseMatrix(np.array(rows))


def load_signal_csv_ref(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# dx=...' header line")
        fields = dict(
            tok.split("=", 1) for tok in header.lstrip("#").split() if "=" in tok
        )
        if "dx" not in fields:
            raise ValueError(f"{path}: header must contain dx=<spacing>")
        two_d = "dy" in fields
        spacing = []
        for key in ("dx", "dy") if two_d else ("dx",):
            try:
                value = float(fields[key])
            except ValueError:
                value = np.nan
            if not 0 < value < np.inf:
                raise ValueError(f"{path}:1: {key}={fields[key]} is not a positive finite spacing")
            spacing.append(value)
        rows = _number_rows_ref(path, fh, start=2, width=None if two_d else 1)
    if not rows:
        raise ValueError(f"{path}: no samples")
    data = np.array(rows)
    return SpectralSignal(data if two_d else data[:, 0], spacing)


def load_game_csv_ref(path, n_players=None):
    if n_players is not None and n_players < 1:
        raise ValueError(f"player count must be at least 1, got {n_players}")
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, parts in _csv_rows_ref(fh):
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'bitmask,value'")
            try:
                mask, val = int(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad bitmask or value") from exc
            if not math.isfinite(val):
                raise ValueError(f"{path}:{lineno}: value {parts[1].strip()} is not finite")
            if mask < 0 or mask in entries:
                raise ValueError(f"{path}:{lineno}: bad or duplicate bitmask {mask}")
            entries[mask] = val
    if not entries:
        raise ValueError(f"{path}: empty game table")
    if n_players is None:
        n_players = max(entries).bit_length()
        n_players = max(n_players, 1)
    size = 1 << n_players
    if max(entries) >= size:
        over = min(m for m in entries if m >= size)
        raise ValueError(f"{path}: mask {over} needs more than {n_players} players")
    if len(entries) != size:
        missing = list(itertools.islice((m for m in range(size) if m not in entries), 4))
        raise ValueError(
            f"{path}: table incomplete for {n_players} players (missing masks {missing}...)"
        )
    values = np.array([entries[mask] for mask in range(size)])
    return CoalitionGame(n_players, values)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# whitespace that is no line end to file iteration; all but the no-break
# space and \x1f are line ends to str.splitlines(). numpy's reader takes
# \x1c-\x1f for whitespace next to a number, float() and int() do not.
ODD = ["\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\u2028", "\x85", "\x0b", "\xa0"]
FIELD = (TOKENS | FINITE
         | st.tuples(st.sampled_from(["", " ", "\t", *ODD]), TOKENS | FINITE,
                     st.sampled_from(["", " ", "\t", *ODD])).map("".join))
HUGE_MASK = st.integers(2**63 - 2, 2**80).map(str) | st.integers(-2**80, -2**63 - 2).map(str)
BLANK = st.sampled_from(["", " ", "\t", "  \t ", *ODD])
NEWLINE = st.sampled_from(["\n", "\r\n", "\r"])
BLOCK_BYTES = st.sampled_from([1, 2, 3, 5, 8, 13, 64, matcore._BLOCK_BYTES])
# blank lines alone fill more than one block
BLANKS = "\n" * (2 * matcore._BLOCK_BYTES + 1)
# three blocks or more, of which the middle one alone holds a field that
# numpy refuses and float() or int() reads, so it alone goes by lines
LONG_MATRIX = "1,2\n" * 3000 + "1_0,2\n" + "1,2\n" * 3000
LONG_SIGNAL = "# dx=1\n" + "1\n" * 6000 + "1_0\n" + "1\n" * 6000
LONG_GAME = "".join([f"{m},{m / 4!r}\n" for m in range(1, 2048)] + ["0_0,0.25\n"]
                    + [f"{m},{m / 4!r}\n" for m in range(2048, 4096)])


@st.composite
def _render(draw, rows):
    """Rows of fields as file text: each line padded, maybe with a trailing
    comma, blank lines in between, and any of the three line ends."""
    out = []
    comma = draw(st.integers(-1, 6 * len(rows)))  # the row with a trailing comma, if any
    for i, row in enumerate(rows):
        while draw(st.integers(0, 5)) == 0:
            out.append(draw(BLANK) + draw(NEWLINE))
        line = ",".join(row) + ("," if i == comma else "")
        line = draw(BLANK) + line + draw(BLANK) if draw(st.integers(0, 3)) == 0 else line
        out.append(line + draw(NEWLINE))
    if out and draw(st.booleans()):
        out[-1] = out[-1].rstrip("\r\n")  # no line end at the end of the file
    return "".join(out)


def _mutate(draw, rows, field):
    """Replace a few fields of ``rows`` (a list of lists) with ``field``
    draws, or drop or repeat a row."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        action = draw(st.sampled_from(["field", "drop", "repeat", "append"]))
        if action == "field":
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = draw(field)
        elif action == "drop":
            del rows[i]
        elif action == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        else:
            rows[i].append(draw(field))
    return rows


@st.composite
def matrix_text(draw):
    width = draw(st.integers(1, 4))
    if draw(st.integers(0, 3)) == 0:
        rows = draw(st.lists(st.lists(FIELD, min_size=1, max_size=4), max_size=5))
    else:
        rows = draw(st.lists(st.lists(FINITE, min_size=width, max_size=width), max_size=8))
        rows = _mutate(draw, rows, FIELD)
    return draw(_render(rows))


HEADERS = st.sampled_from(["# dx=1", "# dx=0.5 dy=2", "#dx=1 dy=1", " # dx=1e-3\x0c", "# dx=2",
                           "# dx=1 dy=0.25", "# dx=0", "# dy=1", "1,2", ""])


@st.composite
def signal_text(draw):
    header = draw(HEADERS)
    width = 1 if "dy" not in header else draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(FINITE, min_size=width, max_size=width), max_size=8))
    rows = _mutate(draw, rows, FIELD)
    return header + draw(NEWLINE) + draw(_render(rows))


@st.composite
def game_text(draw):
    if draw(st.integers(0, 3)) == 0:
        mask = st.integers(-2, 7).map(str) | HUGE_MASK | FIELD
        rows = draw(st.lists(st.lists(mask | FIELD, min_size=1, max_size=3), max_size=6))
    else:
        players = draw(st.integers(1, 4))
        masks = draw(st.permutations(range(1 << players)))
        values = draw(st.lists(FINITE, min_size=len(masks), max_size=len(masks)))
        rows = [[str(m), v] for m, v in zip(masks, values)]
        row = st.integers(0, len(rows) - 1)
        if draw(st.integers(0, 3)) == 0:  # a repeated mask, the row count still 2^n
            rows[draw(row)][0] = rows[draw(row)][0]
        if draw(st.integers(0, 3)) == 0:
            rows[draw(row)][1] = draw(st.sampled_from(["nan", "-inf", "1e400"]))
        if draw(st.integers(0, 3)) == 0:
            rows.append([draw(HUGE_MASK), draw(FINITE)])
        rows = _mutate(draw, rows, FIELD | HUGE_MASK)
    return draw(_render(rows))


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------


def _outcome(read, text, block_bytes):
    """What ``read`` makes of a file holding ``text``: the bits of every
    array it returns, or the type and message of what it raises."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        with mock.patch.object(matcore, "_BLOCK_BYTES", block_bytes):
            try:
                result = read(path)
            except Exception as exc:  # noqa: BLE001 -- the outcome is compared
                return type(exc), str(exc).replace(path, "<path>")
    if isinstance(result, DenseMatrix):
        arrays = [result.array]
    elif isinstance(result, SpectralSignal):
        arrays = [result.samples, np.array(result.spacing)]
    else:
        arrays = [np.array(result.n_players), result.values]
    return [(a.shape, a.dtype, np.ascontiguousarray(a).tobytes()) for a in arrays]


@settings(max_examples=150)
@given(matrix_text(), BLOCK_BYTES)
@example("1,2\n3\n4,5,6\n", 1 << 15)  # widths that only add up
@example("1\x0c2\n3\u20284\n", 1 << 15)  # no line breaks inside a line
@example("1,\x0c2\n3,\u20284\n", 1 << 15)
@example("1,2\r3,4\r\n\r\n5,6", 3)
@example("1,2\n \n3,x\n", 1)
@example("1,2\n3,1e400\n", 1 << 15)
@example("1\x1c,2\n", 1 << 15)  # \x1c-\x1f: see ODD
@example("1,\x1d2\n", 1 << 15)
@example("1,2\n3\x1e,4\n", 1 << 15)
@example("1,2\x1f\n", 1 << 15)
@example(BLANKS, matcore._BLOCK_BYTES)
@example(BLANKS + "1,2\n" + BLANKS + "3,4\n", matcore._BLOCK_BYTES)
@example("1_0,2\n3,4\n", 1 << 15)  # read by float() alone
@example("\u0661,2\n", 1 << 15)  # an Arabic-Indic digit one
@example(LONG_MATRIX, matcore._BLOCK_BYTES)
def test_matrix_reader_matches_line_reader(text, block_bytes):
    assert _outcome(load_matrix_csv, text, block_bytes) == _outcome(load_matrix_csv_ref, text, block_bytes)


@settings(max_examples=150)
@given(signal_text(), BLOCK_BYTES)
@example("# dx=1\n1\n\x1c2\n3,4\n", 2)
@example("# dx=1 dy=1\n1,2\n3,nan\n", 1 << 15)
@example("# dx=1 dy=1\n1\x1c,2\n", 1 << 15)
@example("# dx=1\n1\n\x1d2\n", 1 << 15)
@example("# dx=1\n1\n2\x1e\n", 1 << 15)
@example("# dx=1 dy=1\n1,\x1f2\n", 1 << 15)
@example("# dx=1\n" + BLANKS, matcore._BLOCK_BYTES)
@example("# dx=1 dy=1\n1_0,2\n3,4\n", 1 << 15)
@example("# dx=1 dy=1\n\u0661,2\n", 1 << 15)
@example(LONG_SIGNAL, matcore._BLOCK_BYTES)
def test_signal_reader_matches_line_reader(text, block_bytes):
    assert _outcome(load_signal_csv, text, block_bytes) == _outcome(load_signal_csv_ref, text, block_bytes)


@settings(max_examples=150)
@given(game_text(), BLOCK_BYTES, st.sampled_from([None, None, 1, 2, 3, 70]))
@example("0,1\n1,2\n2,3\n0,4\n", 1 << 15, None)  # a repeated mask, 4 rows
@example("0,1\n1,nan\n", 1 << 15, None)
@example("0,1\n1,2\n2,3\n-1,4\n", 1 << 15, None)  # -1 would index the last slot
@example("0,1\n1,2\n9223372036854775808,3\n", 8, None)
@example("1,1\n\n0,0\n", 1, 1)
@example("0,0\n1,1\n2,1\n3,2\n", 5, 70)
@example("0\x1c,1\n1,2\n", 1 << 15, None)
@example("0,1\n1,\x1d2\n", 1 << 15, None)
@example("0,1\x1e\n1,2\n", 1 << 15, None)
@example("0,1\n\x1f1,2\n", 1 << 15, None)
@example(BLANKS, matcore._BLOCK_BYTES, None)
@example("0,1\n" + BLANKS + "1,2\n", matcore._BLOCK_BYTES, None)
@example("0_0,1_0\n1,2\n", 1 << 15, None)  # read by int() and float() alone
@example("\u0661,2\n0,1\n", 1 << 15, None)
@example(LONG_GAME, matcore._BLOCK_BYTES, None)
def test_game_reader_matches_line_reader(text, block_bytes, players):
    new = _outcome(partial(load_game_csv, n_players=players), text, block_bytes)
    assert new == _outcome(partial(load_game_csv_ref, n_players=players), text, block_bytes)


def test_rows_straddling_blocks_keep_their_line_numbers(tmp_path):
    # one-character blocks: every line is a block of its own
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n3,4\r\n5,x\n")
    with mock.patch.object(matcore, "_BLOCK_BYTES", 1), pytest.raises(ValueError) as exc:
        load_matrix_csv(path)
    assert str(exc.value) == f"{path}:4: not a comma-separated number row"


def test_game_table_memory_is_bounded(tmp_path):
    players = 18
    path = tmp_path / "game.csv"
    rng = np.random.default_rng(0)
    masks = rng.permutation(1 << players)
    values = rng.standard_normal(1 << players)
    with open(path, "w") as fh:
        fh.writelines(f"{m},{v!r}\n" for m, v in zip(masks.tolist(), values.tolist()))
    tracemalloc.start()
    try:
        game = load_game_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = np.empty(1 << players)
    expected[masks] = values
    assert game.n_players == players and np.array_equal(game.values, expected)
    # the result is 2 MB; a dict of 2^18 Python floats peaks near 27 MB
    assert peak < 12e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("text", ["0,0\n1.5,0.3\n", "0,0\n1e0,0.3\n"])
def test_a_block_numpy_reads_with_a_warning_goes_to_the_line_reader(monkeypatch, text):
    # numpy 1.x reads an int field through a float, truncating it, and only
    # warns; a warning must send the block to the line reader, which refuses it
    real = np.loadtxt

    def loadtxt(lines, *args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated", DeprecationWarning)
        return real([line.replace("1.5", "1").replace("1e0", "1") for line in lines], *args, **kwargs)

    expected = _outcome(load_game_csv_ref, text, matcore._BLOCK_BYTES)
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    assert _outcome(load_game_csv, text, matcore._BLOCK_BYTES) == expected
    assert expected[0] is ValueError

"""The CLI table emitter against the cell-by-cell reference route."""

import argparse
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from ohsqueeze import cli

SPECIAL = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1.7976931348623157e308, -2.5, 1.0 / 3.0]
KINDS = ("float", "float_scalar", "int_scalar", "str_scalar")
NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())


def expand(blocks):
    """Full-length columns of a block table, one Python list per column."""
    columns = [[] for _ in blocks[0]]
    for block in blocks:
        n = next(cell.size for cell in block if isinstance(cell, np.ndarray))
        for store, cell in zip(columns, block):
            store.extend(list(cell) if isinstance(cell, np.ndarray) else [cell] * n)
    return columns


def emitted(capsys, tmp_path, fmt, out, header, blocks, meta):
    """Bytes the emitter writes to standard output or to a file."""
    capsys.readouterr()
    path = tmp_path / f"table.{fmt}"
    target = "-" if out == "-" else str(path)
    cli._emit_table(argparse.Namespace(format=fmt, out=target), header, blocks, meta)
    if out == "-":
        return capsys.readouterr().out.encode()
    return path.read_bytes()


def expected(fmt, header, blocks, meta):
    columns = expand(blocks)
    if fmt == "csv":
        return reference.table_csv(header, columns).encode()
    return reference.table_json(header, columns, meta).encode()


@st.composite
def cells(draw, kind, n):
    if kind == "float":
        return np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float)
    if kind == "float_scalar":
        return draw(FLOATS)
    if kind == "int_scalar":
        return draw(st.integers(-(2**62), 2**62))
    return draw(NAMES)


@st.composite
def tables(draw):
    """A chunk size, and a table whose blocks hold chunk-1, chunk, chunk+1 or 2*chunk+1 rows.

    The chunk size is small, so both the CSV and the JSON writer cross
    chunk boundaries inside a block.  A float cell may be an earlier cell's
    array object of the same length, from the previous block or an older
    one, in its own column or another, as every block of a sweep shares its
    time column, mixed with arrays of its own.
    """
    chunk = draw(st.integers(2, 6))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    kinds.insert(draw(st.integers(0, len(kinds))), "float")  # every block has an array
    blocks = []
    arrays = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.sampled_from([chunk - 1, chunk, chunk + 1, 2 * chunk + 1]))
        block = []
        for kind in kinds:
            earlier = [a for a in arrays if a.size == n]
            if kind == "float" and earlier and draw(st.booleans()):
                block.append(draw(st.sampled_from(earlier)))
            else:
                block.append(draw(cells(kind, n)))
                if kind == "float":
                    arrays.append(block[-1])
        blocks.append(block)
    header = [f"c{k}" for k in range(len(kinds))]
    return chunk, header, blocks


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    table=tables(),
    fmt=st.sampled_from(["csv", "json"]),
    out=st.sampled_from(["-", "path"]),
    extra=FLOATS,
)
def test_emitter_matches_cell_by_cell_route(capsys, tmp_path, monkeypatch, table, fmt, out, extra):
    chunk, header, blocks = table
    monkeypatch.setattr(cli, "TABLE_CHUNK_ROWS", chunk)
    meta = {"command": "test", "value": extra, "nested": {"values": [extra, 1, "x"]}}
    got = emitted(capsys, tmp_path, fmt, out, header, blocks, meta)
    assert got == expected(fmt, header, blocks, meta)


@pytest.mark.parametrize("out", ["-", "path"])
def test_csv_at_module_chunk_size(capsys, tmp_path, out):
    check_at_module_chunk_size(capsys, tmp_path, "csv", out)


@pytest.mark.parametrize("out", ["-", "path"])
def test_json_at_module_chunk_size(capsys, tmp_path, out):
    check_at_module_chunk_size(capsys, tmp_path, "json", out)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_percent_signs_are_literal_text(capsys, tmp_path, fmt):
    # the CSV row template must not read a "%" in a scalar cell, the header or the metadata
    header = ["tag%", "t", "name", "k"]
    blocks = [["%s%%d%", np.array([0.5, np.inf]), "x%d", 7]]
    got = emitted(capsys, tmp_path, fmt, "path", header, blocks, {"command": "%"})
    assert got == expected(fmt, header, blocks, {"command": "%"})


def check_at_module_chunk_size(capsys, tmp_path, fmt, out):
    """Blocks of chunk-1, chunk, chunk+1 and 2*chunk+1 rows at the real chunk size."""
    chunk = cli.TABLE_CHUNK_ROWS
    rng = np.random.default_rng(7)
    sizes = [chunk - 1, chunk, chunk + 1, 2 * chunk + 1]
    header = ["model", "t", "xi", "k"]

    def block(name, n):
        xi = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        xi[:: max(1, n // 5)] = np.inf
        return [name, np.linspace(0.0, np.pi, n), xi, np.arange(n, dtype=float)]

    tables = [[block("a", n)] for n in sizes] + [[block(f"m{n}", n) for n in sizes]]
    meta = {"command": "test", "rows_total": sum(map(len, tables)), "zebra": [1.5, np.inf]}
    for blocks in tables:
        got = emitted(capsys, tmp_path, fmt, out, header, blocks, meta)
        assert got == expected(fmt, header, blocks, meta)


def _peak_bytes(fmt: str, rows: int) -> int:
    """Peak traced allocation while the emitter writes a table of ``rows`` rows."""
    rng = np.random.default_rng(rows)
    header = ["model", "xi_y"]
    blocks = [["adiabatic", rng.random(rows)]]
    args = argparse.Namespace(format=fmt, out=os.devnull)
    tracemalloc.start()
    try:
        cli._emit_table(args, header, blocks, {"command": "test"})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_memory_is_bounded_in_rows():
    # One chunk's strings: a float column of 17-digit str objects (about
    # 70 B each) and the row strings they are joined into.
    one_chunk = cli.TABLE_CHUNK_ROWS * 2 * 70
    small = _peak_bytes("csv", 6000)
    large = _peak_bytes("csv", 60000)
    assert large - small <= one_chunk


def test_json_writer_memory_is_bounded_in_rows():
    # One chunk's strings: the float texts, the indented row texts (about
    # 110 B each) and the chunk's joined text.
    one_chunk = cli.TABLE_CHUNK_ROWS * 3 * 70
    small = _peak_bytes("json", 6000)
    large = _peak_bytes("json", 60000)
    assert large - small <= one_chunk


def _shared_time_peak(n_blocks: int) -> int:
    """Peak traced allocation while the JSON writer writes a sweep-like table.

    Every block shares one 51-row time column and has its own xi column;
    the arrays are made before tracing starts.
    """
    rng = np.random.default_rng(n_blocks)
    times = np.linspace(0.0, np.pi, 51)
    blocks = [[float(k), times, rng.random(51)] for k in range(n_blocks)]
    args = argparse.Namespace(format="json", out=os.devnull)
    tracemalloc.start()
    try:
        cli._emit_table(args, ["theta_deg", "t", "xi"], blocks, {"command": "test"})
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_json_shared_column_texts_are_bounded_in_blocks():
    # The writer keeps at most one chunk of a shared column's texts, however
    # many blocks share it: one chunk of float texts, about 70 B each.
    one_chunk = cli.TABLE_CHUNK_ROWS * 70
    assert _shared_time_peak(400) - _shared_time_peak(40) <= one_chunk

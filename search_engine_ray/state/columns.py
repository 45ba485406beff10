"""Arrow columns to numpy and back, without pyarrow's pandas shim.

In pyarrow 16, ``Array.to_numpy``, ``np.asarray`` on an Arrow array,
``pa.array``, ``pa.scalar``, compute calls given Python or numpy
arguments (``Table.take`` given numpy or Python indices among them),
``Table.from_pylist``, ``Schema.empty_table``,
``TableGroupBy.aggregate`` and ``pq.read_table`` each make pyarrow
import pandas (about 0.3 s and 28 MiB in a fresh process). The query
side converts through these instead: fixed-width columns as numpy views
of their buffers, strings by slicing their UTF-8 buffer, new arrays
built with ``pa.Array.from_buffers`` and the tables of a schema with
``to_table``."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def numpy_dtype(t: pa.DataType) -> np.dtype:
    """The numpy dtype of a fixed-width Arrow type; temporal types as
    their integer storage."""
    kind = "u" if pa.types.is_unsigned_integer(t) else "f" if pa.types.is_floating(t) else "i"
    return np.dtype(f"{kind}{t.bit_width // 8}")


def _bits(col: pa.Array, i: int) -> np.ndarray:
    """Buffer ``i`` of ``col``, a bitmap, as bool per slot."""
    bits = np.frombuffer(col.buffers()[i], np.uint8)
    return np.unpackbits(bits, bitorder="little")[col.offset:col.offset + len(col)].astype(bool)


def to_numpy(col, fill=0) -> np.ndarray:
    """``col`` (an Arrow array or chunked array of numbers, timestamps,
    bools or strings) as numpy: a read-only view of its buffer for a
    fixed-width type without nulls, else a copy with each null as
    ``fill``; strings as an object array of str (null as None)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    n = len(col)
    if pa.types.is_string(col.type):
        return np.array(_strings(col) if n else [], object)
    if pa.types.is_boolean(col.type):
        vals = _bits(col, 1) if n else np.empty(0, bool)
    else:
        dt = numpy_dtype(col.type)
        vals = np.frombuffer(col.buffers()[1], dt, n, col.offset * dt.itemsize) if n else np.empty(0, dt)
    if col.null_count:
        vals = vals.copy()
        vals[~_bits(col, 0)] = fill
    return vals


def _strings(col: pa.Array) -> list:
    """The values of a string array as Python str, None for null: its
    UTF-8 buffer decoded once and sliced (several times faster than
    ``to_pylist``), or per value where a value is not ASCII."""
    if col.null_count:
        return col.to_pylist()
    _, offs, data = col.buffers()
    o = np.frombuffer(offs, np.int32, len(col) + 1, col.offset * 4)
    raw = bytes(memoryview(data)[o[0]:o[-1]]) if data is not None else b""
    text = raw.decode()
    o = (o - o[0]).tolist()
    src = text if len(text) == len(raw) else raw  # ASCII: byte == char offsets
    vals = [src[a:b] for a, b in zip(o, o[1:])]
    return vals if src is text else [v.decode() for v in vals]


def to_arrow(values, t: pa.DataType) -> pa.Array:
    """An Arrow array of type ``t`` from ``values``: str for
    ``pa.string()``, else bools or numbers (temporal types as their
    integer storage). A numpy array of numbers holds no nulls; in any
    other sequence None is null."""
    validity = None
    if not isinstance(values, np.ndarray) or pa.types.is_string(t):
        values = list(values)
        nulls = np.array([v is None for v in values], bool)
        if nulls.any():
            validity = pa.py_buffer(np.packbits(~nulls, bitorder="little"))
        if pa.types.is_string(t):
            raw = [b"" if v is None else v.encode() for v in values]
            offs = np.zeros(len(raw) + 1, np.int64)
            np.cumsum([len(b) for b in raw], out=offs[1:])
            if offs[-1] >= 1 << 31:
                raise OverflowError("string data past 32-bit offsets")
            return pa.Array.from_buffers(
                t, len(raw), [validity, pa.py_buffer(offs.astype(np.int32)), pa.py_buffer(b"".join(raw))])
        if validity is not None:
            values = [0 if v is None else v for v in values]
    if pa.types.is_boolean(t):
        n, data = len(values), np.packbits(np.asarray(values, bool), bitorder="little")
    else:
        data = np.ascontiguousarray(values, numpy_dtype(t))
        n = len(data)
    return pa.Array.from_buffers(t, n, [validity, pa.py_buffer(data)])


def read_table(path: str, columns=None) -> pa.Table:
    """Every row of one parquet file, or of the ``.parquet`` files of a
    directory in name order (``pq.read_table`` goes through the
    dataset layer, which imports pandas)."""
    files = ([path] if not os.path.isdir(path) else
             [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".parquet")])
    return pa.concat_tables(
        [pq.ParquetFile(f).read(columns=columns, use_threads=False) for f in files])


def to_table(schema: pa.Schema, cols=()) -> pa.Table:
    """The table of ``schema`` whose columns are ``cols``, one per field
    in field order: an Arrow array as it is, any other sequence through
    ``to_arrow``. No columns make a table with no rows."""
    cols = list(cols) or [()] * len(schema)
    return pa.table([c if isinstance(c, (pa.Array, pa.ChunkedArray)) else to_arrow(c, f.type)
                     for c, f in zip(cols, schema)], schema=schema)

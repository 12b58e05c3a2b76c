"""Reader and writer for a numeric subset of the MAT 5 binary format.

Supported content: little-endian files whose variables are real numeric
matrices of class double, single, int16, or int32, stored plain or inside
zlib-compressed elements.  Vectors are treated as column matrices and data
is laid out column-major, as the format requires.  Variables using any
other class (cell, struct, char, sparse, complex, ...) are skipped with a
logged warning rather than failing the whole file.

Structural problems (bad magic, truncated tags or payloads, impossible
byte counts) raise :class:`MatFormatError`, which carries the absolute
byte ``offset`` where parsing stopped.
"""

from __future__ import annotations

import logging
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["MatArray", "MatFormatError", "parse_mat", "read_mat", "write_mat"]

logger = logging.getLogger(__name__)

HEADER_BYTES = 128
_MAGIC = b"MATLAB 5.0 MAT-file"
_HEADER_TEXT = b"MATLAB 5.0 MAT-file, written by tdafault"

MI_INT8, MI_UINT8, MI_INT16, MI_UINT16 = 1, 2, 3, 4
MI_INT32, MI_UINT32, MI_SINGLE, MI_DOUBLE = 5, 6, 7, 9
MI_MATRIX, MI_COMPRESSED = 14, 15

_MI_DTYPES = {
    MI_INT8: np.dtype("<i1"),
    MI_UINT8: np.dtype("<u1"),
    MI_INT16: np.dtype("<i2"),
    MI_UINT16: np.dtype("<u2"),
    MI_INT32: np.dtype("<i4"),
    MI_UINT32: np.dtype("<u4"),
    MI_SINGLE: np.dtype("<f4"),
    MI_DOUBLE: np.dtype("<f8"),
}

# mxCLASS code -> (name, numpy dtype, data element type used when writing)
_MX_CLASSES = {
    6: ("double", np.dtype("<f8"), MI_DOUBLE),
    7: ("single", np.dtype("<f4"), MI_SINGLE),
    10: ("int16", np.dtype("<i2"), MI_INT16),
    12: ("int32", np.dtype("<i4"), MI_INT32),
}
_DTYPE_TO_MX = {np.dtype(d.str.lstrip("<")): code for code, (_, d, _) in _MX_CLASSES.items()}

_FLAG_COMPLEX = 0x0800
# Output inflated from a compressed element before its size is trusted: room
# for the tag, flags, dimensions, name and real-part tag of any real variable.
_HEAD_BYTES = 1 << 16


class MatFormatError(ValueError):
    """Structurally invalid MAT data; ``offset`` is the absolute byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class MatArray:
    """One decoded variable: its name, values, and original MATLAB class."""

    name: str
    data: np.ndarray
    matlab_class: str


class _Reader:
    """Bounded cursor over a bytes buffer; ``base`` keeps offsets absolute."""

    def __init__(self, buf: bytes, base: int = 0):
        self.buf = buf
        self.pos = 0
        self.base = base

    @property
    def offset(self) -> int:
        return self.base + self.pos

    def remaining(self) -> int:
        return len(self.buf) - self.pos

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise MatFormatError(
                f"truncated {what}: needed {n} bytes, {self.remaining()} left", self.offset
            )
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def skip_padding(self, align: int = 8) -> None:
        self.pos += (-self.pos) % align


def _read_tag(r: _Reader, what: str) -> tuple[int, bytes]:
    """One data element: returns (type code, payload), consuming padding."""
    first = struct.unpack("<I", r.take(4, f"{what} tag"))[0]
    small_size = first >> 16
    if small_size:
        mtype = first & 0xFFFF
        if small_size > 4:
            raise MatFormatError(f"small {what} claims {small_size} bytes", r.offset - 4)
        return mtype, r.take(4, f"small {what} payload")[:small_size]
    nbytes = struct.unpack("<I", r.take(4, f"{what} size"))[0]
    payload = r.take(nbytes, f"{what} payload")
    if mtype_pads(first):
        r.skip_padding()
    return first, payload


def mtype_pads(mtype: int) -> bool:
    # Compressed elements are written back-to-back; everything else is
    # padded out to the next 8-byte boundary.
    return mtype != MI_COMPRESSED


def _numeric_payload(mtype: int, payload: bytes, offset: int, what: str) -> np.ndarray:
    dtype = _MI_DTYPES.get(mtype)
    if dtype is None:
        raise MatFormatError(f"{what} uses unsupported data type {mtype}", offset)
    if len(payload) % dtype.itemsize:
        raise MatFormatError(
            f"{what} length {len(payload)} not a multiple of item size {dtype.itemsize}",
            offset,
        )
    return np.frombuffer(payload, dtype=dtype)


def _matrix_header(r: _Reader) -> tuple[int, tuple[int, ...], str] | None:
    """Read a miMATRIX payload's flags, dimensions and name.

    Returns (class code, dimensions, name), or None with a logged warning
    when the variable is of a kind this reader skips.
    """
    flags_offset = r.offset
    flag_type, flag_bytes = _read_tag(r, "array flags")
    if flag_type != MI_UINT32 or len(flag_bytes) != 8:
        raise MatFormatError("array flags subelement malformed", flags_offset)
    flags = struct.unpack("<I", flag_bytes[:4])[0]
    class_code = flags & 0xFF

    dim_offset = r.offset
    dim_type, dim_bytes = _read_tag(r, "dimensions")
    if dim_type != MI_INT32:
        raise MatFormatError(f"dimensions subelement has type {dim_type}", dim_offset)
    dim_values = _numeric_payload(dim_type, dim_bytes, dim_offset, "dimensions")
    dims = tuple(int(d) for d in dim_values)
    if len(dims) < 2 or any(d < 0 for d in dims):
        raise MatFormatError(f"invalid dimensions {dims}", dim_offset)

    name_offset = r.offset
    name_type, name_bytes = _read_tag(r, "array name")
    if name_type != MI_INT8:
        raise MatFormatError(f"array name subelement has type {name_type}", name_offset)
    name = str(name_bytes, "ascii", errors="replace")

    if class_code not in _MX_CLASSES:
        logger.warning("skipping variable %r: unsupported class code %d", name, class_code)
        return None
    if flags & _FLAG_COMPLEX:
        logger.warning("skipping variable %r: complex data not supported", name)
        return None
    return class_code, dims, name


def _parse_matrix(payload: bytes, base: int) -> MatArray | None:
    """Decode one miMATRIX payload; None when the variable is unsupported."""
    r = _Reader(payload, base)
    header = _matrix_header(r)
    if header is None:
        return None
    class_code, dims, name = header

    class_name, out_dtype, _ = _MX_CLASSES[class_code]
    data_offset = r.offset
    data_type, data_bytes = _read_tag(r, "real part")
    values = _numeric_payload(data_type, data_bytes, data_offset, "real part")
    expected = int(np.prod(dims))
    if values.size != expected:
        raise MatFormatError(
            f"variable {name!r} has {values.size} values for dimensions {dims}", data_offset
        )
    data = values.astype(out_dtype.newbyteorder("=")).reshape(dims, order="F")
    return MatArray(name=name, data=data, matlab_class=class_name)


def _parse_compressed(payload: bytes, offset: int) -> MatArray | None:
    """Decode the one element a compressed element holds.

    The first ``_HEAD_BYTES`` of output are inflated and the element's header
    read from them (a header longer than that reads as truncated).  A numeric
    matrix is then inflated to the size its tag declares, which may not
    exceed its header plus the values its dimensions call for, and output
    past that size raises.  Any other element is skipped without inflating
    more.  So no element inflates past ``_HEAD_BYTES`` or the size of the
    values its dimensions declare, whichever is larger.
    """
    d = zlib.decompressobj()

    def inflate(data: bytes, max_length: int) -> bytes:
        try:
            return d.decompress(data, max_length)
        except zlib.error as exc:
            raise MatFormatError(f"compressed element is corrupt: {exc}", offset) from exc

    inner = inflate(payload, _HEAD_BYTES)
    r = _Reader(inner, offset)
    mtype, nbytes = struct.unpack("<II", r.take(8, "compressed element tag"))
    if mtype != MI_MATRIX:
        logger.warning(
            "skipping compressed element of type %d at offset %d", mtype & 0xFFFF, offset
        )
        return None
    header = _matrix_header(r)
    if header is None:
        return None
    _, dims, name = header

    data_offset = r.offset
    data_type = struct.unpack("<I", r.take(4, "real part tag"))[0]
    if data_type >> 16:  # a small element: at most 4 bytes, inside its tag
        limit = r.pos + 4
    else:
        dtype = _MI_DTYPES.get(data_type)
        if dtype is None:
            raise MatFormatError(f"real part uses unsupported data type {data_type}", data_offset)
        data_bytes = struct.unpack("<I", r.take(4, "real part size"))[0]
        if data_bytes > math.prod(dims) * dtype.itemsize:
            raise MatFormatError(
                f"variable {name!r} declares {data_bytes} bytes of values "
                f"for dimensions {dims}", data_offset
            )
        limit = r.pos + data_bytes + (-data_bytes) % 8
    size = 8 + nbytes + (-nbytes) % 8
    if size > limit:
        raise MatFormatError(
            f"compressed element declares {nbytes} bytes, more than the "
            f"{limit - 8} its header and dimensions call for", offset
        )

    if len(inner) < size:
        inner += inflate(d.unconsumed_tail, size - len(inner))
    if len(inner) > size or inflate(d.unconsumed_tail, 1):
        raise MatFormatError(
            f"compressed element expands past the {size} bytes its tag declares", offset
        )
    if not d.eof:
        raise MatFormatError(
            "compressed element is corrupt: incomplete or truncated stream", offset
        )
    _, matrix = _read_tag(_Reader(memoryview(inner), offset), "compressed element")
    return _parse_matrix(matrix, offset + 8)


def parse_mat(buf: bytes) -> dict[str, MatArray]:
    """Decode a MAT 5 byte string into a name -> :class:`MatArray` mapping."""
    if len(buf) < HEADER_BYTES:
        raise MatFormatError(f"file too short for a {HEADER_BYTES}-byte header", 0)
    if not buf.startswith(_MAGIC):
        raise MatFormatError("missing MAT 5 magic text", 0)
    version, endian = struct.unpack("<H2s", buf[124:128])
    if endian != b"IM":
        raise MatFormatError(f"unsupported byte order marker {endian!r}", 126)
    if version != 0x0100:
        raise MatFormatError(f"unsupported MAT version 0x{version:04x}", 124)

    out: dict[str, MatArray] = {}
    # Views, not copies: each payload is sliced out of the file (or out of
    # its inflated element) without copying, down to np.frombuffer.
    r = _Reader(memoryview(buf)[HEADER_BYTES:], HEADER_BYTES)

    def add(arr: MatArray | None) -> None:
        if arr is not None:
            out[arr.name] = arr

    while r.remaining():
        elem_offset = r.offset
        mtype, payload = _read_tag(r, "element")
        if mtype == MI_MATRIX:
            add(_parse_matrix(payload, elem_offset + 8))
        elif mtype == MI_COMPRESSED:
            add(_parse_compressed(payload, elem_offset))
        else:
            logger.warning("skipping element of type %d at offset %d", mtype, elem_offset)
    return out


def read_mat(path) -> dict[str, MatArray]:
    """Read and decode a MAT 5 file from disk."""
    return parse_mat(Path(path).read_bytes())


# ---- writing ---------------------------------------------------------------


def _element_bytes(mtype: int, payload: bytes) -> bytes:
    if len(payload) <= 4:
        return struct.pack("<I", mtype | (len(payload) << 16)) + payload.ljust(4, b"\0")
    pad = (-len(payload)) % 8
    return struct.pack("<II", mtype, len(payload)) + payload + b"\0" * pad


def _matrix_bytes(name: str, arr: np.ndarray) -> bytes:
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"only 1-D and 2-D arrays are supported, got ndim={arr.ndim}")
    dtype = np.dtype(arr.dtype)
    if dtype not in _DTYPE_TO_MX:
        supported = sorted(str(d) for d in _DTYPE_TO_MX)
        raise ValueError(f"dtype {dtype} not supported; use one of {supported}")
    if not name.isidentifier() or not name.isascii():
        raise ValueError(f"variable name {name!r} is not a valid identifier")
    class_code = _DTYPE_TO_MX[dtype]
    _, store_dtype, data_mtype = _MX_CLASSES[class_code]

    body = _element_bytes(MI_UINT32, struct.pack("<II", class_code, 0))
    body += _element_bytes(MI_INT32, struct.pack("<ii", *arr.shape))
    body += _element_bytes(MI_INT8, name.encode("ascii"))
    body += _element_bytes(data_mtype, np.asfortranarray(arr, dtype=store_dtype).tobytes("F"))
    return _element_bytes(MI_MATRIX, body)


def write_mat(path, arrays: dict, *, compress: bool = False) -> None:
    """Write numeric arrays to ``path`` as a little-endian MAT 5 file.

    Accepts a mapping of variable name to array (float64, float32, int16,
    or int32; 1-D arrays become column vectors).  With ``compress=True``
    each variable is wrapped in a zlib-compressed element.  Output depends
    only on the inputs, so identical calls produce identical bytes.
    """
    if not arrays:
        raise ValueError("nothing to write: arrays mapping is empty")
    header = _HEADER_TEXT.ljust(116, b" ") + b"\0" * 8 + struct.pack("<H2s", 0x0100, b"IM")
    chunks = [header]
    for name, arr in arrays.items():
        element = _matrix_bytes(name, np.asarray(arr))
        if compress:
            packed = zlib.compress(element, 6)
            chunks.append(struct.pack("<II", MI_COMPRESSED, len(packed)) + packed)
        else:
            chunks.append(element)
    Path(path).write_bytes(b"".join(chunks))

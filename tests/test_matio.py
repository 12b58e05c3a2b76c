"""MAT 5 subset reader/writer: round trips, scipy cross-checks, errors."""

import logging
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import loadmat, savemat

from tdafault.matio import (
    MI_COMPRESSED,
    MI_DOUBLE,
    MI_INT8,
    MI_INT16,
    MI_INT32,
    MI_MATRIX,
    MI_UINT32,
    MatFormatError,
    _element_bytes,
    parse_mat,
    read_mat,
    write_mat,
)


def file_bytes(*elements: bytes) -> bytes:
    """A minimal valid file: 128-byte header plus raw elements."""
    text = b"MATLAB 5.0 MAT-file test fixture".ljust(116, b" ")
    return text + b"\0" * 8 + struct.pack("<H2s", 0x0100, b"IM") + b"".join(elements)


def matrix_element(name: bytes, class_code: int, dims, data_mtype, payload: bytes,
                   flag_extra: int = 0) -> bytes:
    body = _element_bytes(MI_UINT32, struct.pack("<II", class_code | flag_extra, 0))
    body += _element_bytes(MI_INT32, struct.pack(f"<{len(dims)}i", *dims))
    body += _element_bytes(MI_INT8, name)
    body += _element_bytes(data_mtype, payload)
    return _element_bytes(MI_MATRIX, body)


def _with_size(element: bytes, nbytes: int) -> bytes:
    """``element`` with the byte count in its tag replaced by ``nbytes``."""
    return element[:4] + struct.pack("<I", nbytes) + element[8:]


SAMPLE = {
    "big": np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0,
    "ab": np.array([[1.5, -2.5]], dtype=np.float32),  # short name: small element
    "counts": np.array([[3, -4], [5, 6]], dtype=np.int16),
    "idx": np.arange(10, dtype=np.int32),  # 1-D, becomes a column
}


class TestRoundTrip:
    @pytest.mark.parametrize("compress", [False, True])
    def test_values_classes_and_shapes(self, tmp_path, compress):
        path = tmp_path / "rt.mat"
        write_mat(path, SAMPLE, compress=compress)
        got = read_mat(path)
        assert list(got) == list(SAMPLE)
        np.testing.assert_array_equal(got["big"].data, SAMPLE["big"])
        np.testing.assert_array_equal(got["ab"].data, SAMPLE["ab"])
        np.testing.assert_array_equal(got["counts"].data, SAMPLE["counts"])
        np.testing.assert_array_equal(got["idx"].data, SAMPLE["idx"].reshape(-1, 1))
        assert got["big"].matlab_class == "double"
        assert got["ab"].matlab_class == "single"
        assert got["counts"].matlab_class == "int16"
        assert got["idx"].matlab_class == "int32"
        assert got["ab"].data.dtype == np.float32
        assert got["counts"].data.dtype == np.int16

    @pytest.mark.parametrize("compress", [False, True])
    def test_rewrite_is_byte_identical(self, tmp_path, compress):
        first, second = tmp_path / "a.mat", tmp_path / "b.mat"
        write_mat(first, SAMPLE, compress=compress)
        loaded = read_mat(first)
        write_mat(second, {k: v.data for k, v in loaded.items()}, compress=compress)
        assert first.read_bytes() == second.read_bytes()

    def test_compressed_file_is_smaller(self, tmp_path):
        plain, packed = tmp_path / "p.mat", tmp_path / "c.mat"
        arrays = {"z": np.zeros((64, 64))}
        write_mat(plain, arrays)
        write_mat(packed, arrays, compress=True)
        assert packed.stat().st_size < plain.stat().st_size


class TestScipyInterop:
    @pytest.mark.parametrize("compress", [False, True])
    def test_scipy_reads_our_output(self, tmp_path, compress):
        path = tmp_path / "ours.mat"
        write_mat(path, SAMPLE, compress=compress)
        ref = loadmat(path)
        for name, arr in SAMPLE.items():
            want = arr.reshape(-1, 1) if arr.ndim == 1 else arr
            np.testing.assert_array_equal(ref[name], want)
            assert ref[name].dtype == want.dtype

    @pytest.mark.parametrize("compress", [False, True])
    def test_we_read_scipy_output(self, tmp_path, compress):
        path = tmp_path / "theirs.mat"
        arrays = {
            "x": np.linspace(0.0, 1.0, 17).reshape(1, 17),
            "m": np.array([[1, 2], [3, 4]], dtype=np.int32),
        }
        savemat(path, arrays, do_compression=compress)
        got = read_mat(path)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(got[name].data, arr)


class TestParser:
    def test_column_major_layout(self):
        # Payload 1,2,3,4 with dims (2, 2) must land column-first.
        elem = matrix_element(b"m", 6, (2, 2), MI_DOUBLE,
                              struct.pack("<4d", 1.0, 2.0, 3.0, 4.0))
        got = parse_mat(file_bytes(elem))["m"]
        np.testing.assert_array_equal(got.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_storage_type_narrower_than_class(self):
        # A double-class variable may store its values as int16; the parser
        # must cast them up to the class dtype.
        elem = matrix_element(b"d", 6, (2, 2), MI_INT16, struct.pack("<4h", 1, 2, 3, 4))
        got = parse_mat(file_bytes(elem))["d"]
        assert got.data.dtype == np.float64
        np.testing.assert_array_equal(got.data, [[1.0, 3.0], [2.0, 4.0]])

    def test_unsupported_class_is_skipped_with_warning(self, caplog):
        cell = matrix_element(b"bogus", 1, (1, 1), MI_DOUBLE, struct.pack("<d", 0.0))
        ok = matrix_element(b"fine", 6, (1, 1), MI_DOUBLE, struct.pack("<d", 2.0))
        with caplog.at_level(logging.WARNING, logger="tdafault.matio"):
            got = parse_mat(file_bytes(cell, ok))
        assert list(got) == ["fine"]
        assert "bogus" in caplog.text and "class code 1" in caplog.text

    def test_complex_variable_is_skipped_with_warning(self, caplog):
        cplx = matrix_element(b"z", 6, (1, 1), MI_DOUBLE, struct.pack("<d", 1.0),
                              flag_extra=0x0800)
        with caplog.at_level(logging.WARNING, logger="tdafault.matio"):
            got = parse_mat(file_bytes(cplx))
        assert got == {}
        assert "complex" in caplog.text

    def test_non_matrix_top_level_element_is_skipped(self, caplog):
        stray = _element_bytes(MI_DOUBLE, struct.pack("<d", 9.0))
        ok = matrix_element(b"v", 6, (1, 1), MI_DOUBLE, struct.pack("<d", 4.0))
        with caplog.at_level(logging.WARNING, logger="tdafault.matio"):
            got = parse_mat(file_bytes(stray, ok))
        assert list(got) == ["v"]
        assert "skipping element of type 9" in caplog.text


class TestFormatErrors:
    def test_error_carries_offset_attribute(self):
        with pytest.raises(MatFormatError) as exc:
            parse_mat(b"short")
        assert exc.value.offset == 0
        assert "(at byte offset 0)" in str(exc.value)
        assert isinstance(exc.value, ValueError)

    def test_bad_magic(self):
        buf = b"X" * 200
        with pytest.raises(MatFormatError, match="magic") as exc:
            parse_mat(buf)
        assert exc.value.offset == 0

    def test_big_endian_marker_rejected(self):
        buf = bytearray(file_bytes())
        buf[126:128] = b"MI"  # big-endian byte order marker
        with pytest.raises(MatFormatError, match="byte order") as exc:
            parse_mat(bytes(buf))
        assert exc.value.offset == 126

    def test_bad_version_rejected(self):
        buf = bytearray(file_bytes())
        buf[124:126] = struct.pack("<H", 0x0200)
        with pytest.raises(MatFormatError, match="version") as exc:
            parse_mat(bytes(buf))
        assert exc.value.offset == 124

    def test_truncated_tag(self):
        with pytest.raises(MatFormatError, match="truncated element tag") as exc:
            parse_mat(file_bytes(b"\x0e\x00\x00"))
        assert exc.value.offset == 128

    def test_truncated_payload(self):
        elem = struct.pack("<II", MI_MATRIX, 64) + b"\0" * 8
        with pytest.raises(MatFormatError, match="truncated element payload") as exc:
            parse_mat(file_bytes(elem))
        assert exc.value.offset == 136

    def test_small_element_with_impossible_size(self):
        bad = struct.pack("<I", MI_INT8 | (5 << 16)) + b"\0" * 4
        with pytest.raises(MatFormatError, match="claims 5 bytes") as exc:
            parse_mat(file_bytes(bad))
        assert exc.value.offset == 128

    def test_corrupt_compressed_stream(self):
        from tdafault.matio import MI_COMPRESSED

        elem = struct.pack("<II", MI_COMPRESSED, 6) + b"nozlib"
        with pytest.raises(MatFormatError, match="corrupt") as exc:
            parse_mat(file_bytes(elem))
        assert exc.value.offset == 128

    def test_tag_behind_a_long_run_of_empty_blocks(self):
        # A hand-built zlib stream: 400 empty stored blocks of 5 bytes, then
        # the element in one final stored block, so the first output byte
        # comes after 2 KB of compressed input.
        elem = matrix_element(b"v", 6, (1, 2), MI_DOUBLE, np.arange(2.0).tobytes())
        packed = (b"\x78\x01" + b"\x00\x00\x00\xff\xff" * 400
                  + b"\x01" + struct.pack("<HH", len(elem), len(elem) ^ 0xFFFF) + elem
                  + struct.pack(">I", zlib.adler32(elem)))
        assert zlib.decompress(packed) == elem
        got = parse_mat(file_bytes(struct.pack("<II", MI_COMPRESSED, len(packed)) + packed))
        np.testing.assert_array_equal(got["v"].data, [[0.0, 1.0]])

    def test_cut_compressed_stream(self):
        elem = _compressed(matrix_element(b"v", 6, (1, 2), MI_DOUBLE, np.ones(2).tobytes()))
        cut = elem[8:-4]  # drop the stream's checksum, keep every data byte
        with pytest.raises(MatFormatError, match="truncated stream") as exc:
            parse_mat(file_bytes(struct.pack("<II", MI_COMPRESSED, len(cut)) + cut))
        assert exc.value.offset == 128

    def test_compressed_element_shorter_than_its_tag_declares(self):
        elem = matrix_element(b"v", 6, (1, 2), MI_DOUBLE, np.ones(2).tobytes())
        cut = elem[:-8]  # its tags still declare the second value
        with pytest.raises(MatFormatError, match="truncated compressed element payload") as exc:
            parse_mat(file_bytes(_compressed(cut)))
        assert exc.value.offset == 128 + 8

    def test_compressed_element_longer_than_its_tag_declares(self):
        elem = matrix_element(b"v", 6, (1, 2), MI_DOUBLE, np.ones(2).tobytes())
        with pytest.raises(MatFormatError, match="expands past the 72 bytes") as exc:
            parse_mat(file_bytes(_compressed(elem + bytes(8))))
        assert exc.value.offset == 128

    @pytest.mark.parametrize("head, error", [
        # a valid element, then the zeros
        (matrix_element(b"b", 6, (1, 1), MI_DOUBLE, struct.pack("<d", 2.0)),
         "expands past the 64 bytes its tag declares"),
        # an element tag declaring almost 4 GiB, then nothing but zeros
        (struct.pack("<II", MI_MATRIX, 0xFFFFFFF0), "array flags subelement malformed"),
        # a valid one-value header under an element tag declaring 4 GiB
        (_with_size(matrix_element(b"b", 6, (1, 1), MI_DOUBLE, struct.pack("<d", 2.0)),
                    0xFFFFFFF0),
         "declares 4294967280 bytes, more than the 56 its header and dimensions call for"),
        # a real part declaring 4 GiB for a one-value variable
        (_with_size(matrix_element(b"b", 6, (1, 1), MI_DOUBLE, b""), 0xFFFFFFF0)[:-8]
         + struct.pack("<II", MI_DOUBLE, 0xFFFFFFF0),
         "'b' declares 4294967280 bytes of values for dimensions \\(1, 1\\)"),
        # a class that is skipped, declaring 4 GiB
        (_with_size(matrix_element(b"b", 1, (1, 1), MI_DOUBLE, b""), 0xFFFFFFF0)[:-8], None),
    ], ids=["past-valid-element", "tag-only", "element-size", "real-part-size", "skipped"])
    def test_decompression_bomb_stops_at_the_header(self, head, error, caplog):
        # 64 MiB of zeros after ``head``, all in one compressed element of
        # about 65 KB, behind a valid variable.  The zeros are streamed
        # through the compressor, so the expanded bytes are never held here.
        plain = matrix_element(b"a", 6, (1, 1), MI_DOUBLE, struct.pack("<d", 1.0))
        packer = zlib.compressobj(6)
        chunks = [packer.compress(head)]
        zeros = bytes(1 << 20)
        chunks += [packer.compress(zeros) for _ in range(64)]
        chunks.append(packer.flush())
        packed = b"".join(chunks)
        buf = file_bytes(plain, struct.pack("<II", MI_COMPRESSED, len(packed)) + packed)
        assert len(buf) < 100_000

        tracemalloc.start()
        try:
            if error is None:
                with caplog.at_level(logging.WARNING, logger="tdafault.matio"):
                    assert list(parse_mat(buf)) == ["a"]
                assert "class code 1" in caplog.text
            else:
                with pytest.raises(MatFormatError, match=error) as exc:
                    parse_mat(buf)
                assert 128 + len(plain) <= exc.value.offset < 128 + len(plain) + 64
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_value_count_dimension_mismatch(self):
        elem = matrix_element(b"m", 6, (2, 3), MI_DOUBLE, struct.pack("<2d", 1.0, 2.0))
        with pytest.raises(MatFormatError, match="'m' has 2 values"):
            parse_mat(file_bytes(elem))

    def test_negative_dimension(self):
        elem = matrix_element(b"m", 6, (-2, 3), MI_DOUBLE, b"")
        with pytest.raises(MatFormatError, match="invalid dimensions"):
            parse_mat(file_bytes(elem))

    def test_dimensions_length_not_a_multiple_of_four(self):
        elem = bytearray(matrix_element(b"m", 6, (2, 3), MI_DOUBLE, np.arange(6.0).tobytes()))
        # dimensions tag: after the 8-byte element tag and the 16-byte flags
        struct.pack_into("<I", elem, 8 + 16 + 4, 7)
        with pytest.raises(MatFormatError, match="dimensions length 7") as exc:
            parse_mat(file_bytes(bytes(elem)))
        assert exc.value.offset == 128 + 8 + 16


def _compressed(element: bytes) -> bytes:
    packed = zlib.compress(element, 6)
    return struct.pack("<II", MI_COMPRESSED, len(packed)) + packed


_FUZZ_SEEDS = (
    file_bytes(
        matrix_element(b"vib", 6, (4, 2), MI_DOUBLE, np.arange(8.0).tobytes()),
        matrix_element(b"n", 10, (1, 3), MI_INT16, np.array([1, -2, 3], "<i2").tobytes()),
    ),
    file_bytes(_compressed(matrix_element(b"c", 12, (2, 2), MI_INT32,
                                          np.arange(4, dtype="<i4").tobytes()))),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    which=st.sampled_from(range(len(_FUZZ_SEEDS))),
    edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=4),
    keep=st.none() | st.integers(0, 2**16),
)
def test_mutated_files_parse_or_raise_mat_format_error(which, edits, keep):
    """Byte edits past the header, maybe a cut: a dict or MatFormatError, nothing else."""
    seed = _FUZZ_SEEDS[which]
    buf = bytearray(seed)
    for pos, value in edits:
        buf[128 + pos % (len(seed) - 128)] = value
    if keep is not None:
        del buf[128 + keep % (len(seed) - 128):]
    try:
        out = parse_mat(bytes(buf))
    except MatFormatError:
        return
    assert isinstance(out, dict)


class TestWriterValidation:
    def test_empty_mapping(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_mat(tmp_path / "x.mat", {})

    @pytest.mark.parametrize("name", ["2bad", "a b", "", "naïve"])
    def test_bad_variable_name(self, tmp_path, name):
        with pytest.raises(ValueError, match="identifier"):
            write_mat(tmp_path / "x.mat", {name: np.zeros(3)})

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            write_mat(tmp_path / "x.mat", {"v": np.zeros(3, dtype=np.int64)})

    def test_three_dimensional_array(self, tmp_path):
        with pytest.raises(ValueError, match="ndim"):
            write_mat(tmp_path / "x.mat", {"v": np.zeros((2, 2, 2))})

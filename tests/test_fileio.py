import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpspp import fileio, network
from tpspp.cli import main
from tpspp.errors import FormatError, TpsError, ValidationError
from tpspp.tps import make_grid
from tpspp.warp import AttentionMatrix


class TestWeights:
    def test_empty_store_is_header_only(self, tmp_path):
        p = tmp_path / "w.tpsw"
        fileio.save_weights(network.WeightStore({}), p)
        assert p.read_bytes() == b"TPSW" + struct.pack("<II", 1, 0)

    def test_single_tensor_layout(self, tmp_path):
        p = tmp_path / "w.tpsw"
        fileio.save_weights(network.WeightStore({"b": np.array([1.0, 2.0])}), p)
        want = b"TPSW" + struct.pack("<II", 1, 1)
        want += struct.pack("<I", 1) + b"b" + struct.pack("<II", 1, 2)
        want += struct.pack("<2f", 1.0, 2.0)
        assert p.read_bytes() == want

    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {f"t{i:02d}": rng.standard_normal(
            tuple(rng.integers(1, 6, size=rng.integers(1, 5)))).astype(np.float32)
            for i in range(20)}
        p1, p2 = tmp_path / "a.tpsw", tmp_path / "b.tpsw"
        fileio.save_weights(network.WeightStore(tensors), p1)
        fileio.save_weights(fileio.load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lexicographic_order(self, tmp_path):
        p = tmp_path / "w.tpsw"
        fileio.save_weights(network.WeightStore(
            {"z": np.zeros(1), "a": np.zeros(1)}), p)
        blob = p.read_bytes()
        assert blob.index(b"a") < blob.index(b"z")

    # a store the reader would reject: rank 5, a zero extent (a WeightStore holds no name
    # that TPSW cannot encode)
    @pytest.mark.parametrize("name, arr", [
        ("r5", np.ones((1, 1, 1, 1, 2))), ("empty", np.ones((3, 0)))],
        ids=["rank-5", "zero-extent"])
    def test_unreadable_store_not_written(self, tmp_path, name, arr):
        p = tmp_path / "w.tpsw"
        store = network.WeightStore({name: arr})
        with pytest.raises(FormatError, match=re.escape(repr(name))):
            fileio.save_weights(store, p)
        assert not p.exists()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "w.tpsw"
        p.write_bytes(b"NOPE" + struct.pack("<II", 1, 0))
        with pytest.raises(FormatError, match="bad magic"):
            fileio.load_weights(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "w.tpsw"
        p.write_bytes(b"TPSW" + struct.pack("<II", 9, 0))
        with pytest.raises(FormatError, match="unsupported TPSW version 9"):
            fileio.load_weights(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "w.tpsw"
        fileio.save_weights(network.WeightStore({"b": np.ones(8)}), p)
        (tmp_path / "t.tpsw").write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError, match=r"need \d+ bytes at offset \d+, file has"):
            fileio.load_weights(tmp_path / "t.tpsw")

    def test_duplicate_names(self, tmp_path):
        rec = struct.pack("<I", 1) + b"b" + struct.pack("<II", 1, 1) + struct.pack("<f", 0.0)
        blob = b"TPSW" + struct.pack("<II", 1, 2) + rec + rec
        p = tmp_path / "w.tpsw"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match="duplicate tensor name 'b'"):
            fileio.load_weights(p)

    # extents whose product overflows int64: it wraps to a negative number and to exactly 0
    @pytest.mark.parametrize("dims", [(2**32 - 1,) * 4, (2**16,) * 4])
    def test_overflowing_extents_truncation(self, tmp_path, dims):
        p = tmp_path / "w.tpsw"
        p.write_bytes(b"TPSW" + struct.pack("<III", 1, 1, 1) + b"a"
                      + struct.pack("<5I", 4, *dims) + struct.pack("<f", 0.0))
        with pytest.raises(FormatError, match=r"need \d+ bytes at offset \d+, file has"):
            fileio.load_weights(p)
        assert main(["inspect", "--weights", str(p)]) == 2

    def test_corruption_fuzz(self, tmp_path):
        fileio.save_weights(network.init_weights(0), tmp_path / "w.tpsw")
        blob = (tmp_path / "w.tpsw").read_bytes()
        rng = np.random.default_rng(1)
        bad = tmp_path / "bad.tpsw"
        for i in range(1000):
            data = bytearray(blob)
            if i % 2:
                data = data[:int(rng.integers(0, len(blob)))]
            else:
                data[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
            bad.write_bytes(bytes(data))
            try:
                fileio.load_weights(bad)
            except TpsError:
                pass  # typed errors are the contract; crashes are not


def _header_fields(blob):
    """Byte offsets of a TPSW file's u32 header fields: count, then name_len, rank and
    each dim of every tensor."""
    fields, pos = [8], 12
    (count,) = struct.unpack_from("<I", blob, 8)
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        rank_pos = pos + 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, rank_pos)
        dims = struct.unpack_from(f"<{rank}I", blob, rank_pos + 4)
        fields += [pos, rank_pos, *range(rank_pos + 4, rank_pos + 4 + 4 * rank, 4)]
        pos = rank_pos + 4 + 4 * rank + 4 * int(np.prod(dims))
    return fields


@pytest.fixture(scope="module")
def header_file(tmp_path_factory):
    rng = np.random.default_rng(4)
    store = network.WeightStore({"a": rng.standard_normal((2, 3)), "bias": np.ones(4),
                                 "conv": rng.standard_normal((2, 1, 3, 2))})
    path = tmp_path_factory.mktemp("header") / "w.tpsw"
    fileio.save_weights(store, path)
    blob = path.read_bytes()
    # count; per tensor name_len and rank, then dims: (2, 3), (4,), (2, 1, 3, 2)
    assert len(_header_fields(blob)) == 1 + 2 * 3 + 2 + 1 + 4
    return path, blob


@settings(max_examples=150, deadline=2000)
@given(data=st.data(), value=st.integers(0, 16) | st.integers(0, 2**32 - 1))
def test_header_field_overwrite_typed(header_file, data, value):
    path, blob = header_file
    mutated = bytearray(blob)
    struct.pack_into("<I", mutated, data.draw(st.sampled_from(_header_fields(blob))), value)
    bad = path.with_name("bad.tpsw")
    bad.write_bytes(bytes(mutated))
    try:
        assert isinstance(fileio.load_weights(bad), network.WeightStore)
    except TpsError:
        pass  # typed errors are the contract; crashes are not
    assert main(["inspect", "--weights", str(bad)]) in (0, 2)


class TestImages:
    def test_p5_single_white_pixel(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n1 1\n255\n\xff")
        t = fileio.load_image(p)
        assert t.shape == (1, 1, 1)
        assert t[0, 0, 0] == 1.0

    def test_p5_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, size=(1, 7, 9)).astype(np.float32)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        fileio.save_image(img, p1)
        fileio.save_image(fileio.load_image(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_p6_red_pixel_luminance(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P6\n1 1\n255\n\xff\x00\x00")
        assert abs(float(fileio.load_image(p)[0, 0, 0]) - 0.299) <= 1.0 / 255.0

    def test_p3_parsing(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P3\n2 1\n255\n255 255 255  0 0 0\n")
        t = fileio.load_image(p)
        assert abs(float(t[0, 0, 0]) - 1.0) <= 1e-6
        assert t[0, 0, 1] == 0.0

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n# a comment\n1 1\n255\n\x80")
        assert fileio.load_image(p).shape == (1, 1, 1)

    def test_unsupported_magic(self, tmp_path):
        p = tmp_path / "a.pbm"
        p.write_bytes(b"P1\n1 1\n1")
        with pytest.raises(FormatError):
            fileio.load_image(p)

    def test_unsupported_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError):
            fileio.load_image(p)

    def test_truncated_binary_payload(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(FormatError, match=r"binary payload has 2 bytes, need 16"):
            fileio.load_image(p)

    def test_quantization(self, tmp_path):
        p = tmp_path / "a.pgm"
        fileio.save_image(np.array([[[0.5]]], np.float32), p)
        assert p.read_bytes().endswith(bytes([128]))  # round(0.5*255) = 128

    def test_values_outside_unit_interval_saturate(self, tmp_path):
        p = tmp_path / "a.pgm"
        fileio.save_image(np.array([[-1e308, -0.5, 1.5, 1e308]]), p)  # no overflow warning
        assert p.read_bytes() == b"P5\n4 1\n255\n" + bytes([0, 0, 255, 255])

    @pytest.mark.parametrize("t, error", [
        (np.array([[np.nan, 0.5], [np.inf, -np.inf]]), ValidationError),
        (np.array([["0.5"]]), ValidationError),
        (np.zeros((1, 0, 3)), FormatError),
        (np.zeros((3, 0), np.float32), FormatError)],
        ids=["non-finite", "str", "zero-height", "zero-width"])
    def test_unwritable_map_rejected_before_the_file_is_opened(self, tmp_path, t, error):
        p = tmp_path / "a.pgm"
        with pytest.raises(error):
            fileio.save_image(t, p)
        assert not p.exists()


def _points_doc(**fields):
    grid = make_grid(2, 2)
    doc = {"rows": 2, "cols": 2, "base": grid.base.tolist(), "offsets": grid.offsets.tolist(),
           "lambda": 0.5, "beta": 1.0, "attention": None}
    return json.dumps({**doc, **fields}).encode()


# malformed points files: each must end in a typed error, never an untyped exception
MALFORMED_POINTS = [
    pytest.param(_points_doc(attention=[[0.0] * 4, [0.0]]), ValidationError, id="ragged-attention"),
    pytest.param(_points_doc(offsets=[[0.0, 0.0], [0.0], [0.0, 0.0], [0.0, 0.0]]),
                 ValidationError, id="ragged-offsets"),
    pytest.param(_points_doc(rows="abc"), ValidationError, id="rows-string"),
    pytest.param(_points_doc(rows=None), ValidationError, id="rows-null"),
    # extents are JSON integers only: no fraction, no integral float, no digits, no bool
    pytest.param(_points_doc(rows=2.9), ValidationError, id="rows-fraction"),
    pytest.param(_points_doc(rows=2.0), ValidationError, id="rows-integral-float"),
    pytest.param(_points_doc(cols="2"), ValidationError, id="cols-digits"),
    pytest.param(_points_doc(rows=True, base=make_grid(1, 2).base.tolist(),
                             offsets=[[0.0, 0.0]] * 2), ValidationError, id="rows-bool"),
    pytest.param(_points_doc(**{"lambda": "x"}), ValidationError, id="lambda-string"),
    pytest.param(_points_doc(**{"lambda": None}), ValidationError, id="lambda-null"),
    pytest.param(_points_doc(attention="abc"), ValidationError, id="attention-string"),
    # NaN compares False with the 1e-9 lattice tolerance, so it must fail the check, not pass it
    pytest.param(_points_doc(base=[[float("nan"), -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]),
                 ValidationError, id="base-nan"),
    pytest.param(b"5", ValidationError, id="top-level-number"),
    pytest.param(b"null", ValidationError, id="top-level-null"),
    pytest.param(b'{"rows": "\xff\xfe"}', FormatError, id="non-utf8"),
    pytest.param(b"[" * 100000 + b"]" * 100000, FormatError, id="nesting-too-deep"),
    # numeric fields hold JSON numbers only: strings and booleans are not parsed into them
    pytest.param(_points_doc(**{"lambda": "0.5"}), ValidationError, id="lambda-digits"),
    pytest.param(_points_doc(beta="1e3"), ValidationError, id="beta-digits"),
    pytest.param(_points_doc(**{"lambda": True}), ValidationError, id="lambda-bool"),
    pytest.param(_points_doc(offsets=[["0.01", "0.0"]] * 4), ValidationError,
                 id="offsets-digits"),
    # integers wider than int64 give an object array, whose entries are checked one by one
    pytest.param(_points_doc(offsets=[[10**30, "0.5"]] + [[0, 0]] * 3), ValidationError,
                 id="offsets-wide-int-and-digits"),
    pytest.param(_points_doc(base=[[repr(x) for x in row] for row in make_grid(2, 2).base.tolist()]),
                 ValidationError, id="base-digits"),
    # 24 rows: the CLI tests' 4x6 output lattice, where numeric scores would be accepted
    pytest.param(_points_doc(attention=[["0.5"] * 4] * 24), ValidationError, id="attention-digits"),
    pytest.param(_points_doc().replace(b'"offsets": [[0.0', b'"offsets": [[1e400'),
                 ValidationError, id="offsets-1e400"),
    pytest.param(_points_doc(attention=[[0.25] * 4] * 24).split(b"], [0.25")[0], FormatError,
                 id="cut-mid-attention"),
    pytest.param(b"\xef\xbb\xbf" + _points_doc(), FormatError, id="utf8-bom"),
    # a lone surrogate is no Unicode text; Python's json accepted it in a key
    pytest.param(_points_doc(**{"\ud800": 0}), FormatError, id="lone-surrogate-key"),
]


class TestGridJson:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = make_grid(4, 16).with_offsets(rng.uniform(-0.1, 0.1, size=(64, 2)))
        att = AttentionMatrix(rng.uniform(-0.9, 0.9, size=(12, 64)))
        p = tmp_path / "g.json"
        fileio.export_grid_json(grid, att, p, lam=0.3, beta=0.8)
        g2, a2, lam, beta = fileio.import_grid_json(p)
        assert np.abs(g2.offsets - grid.offsets).max() <= 1e-9
        assert np.abs(a2.scores - att.scores).max() <= 1e-9
        assert lam == 0.3 and beta == 0.8

    def test_null_attention(self, tmp_path):
        p = tmp_path / "g.json"
        fileio.export_grid_json(make_grid(4, 16), None, p)
        _, att, _, _ = fileio.import_grid_json(p)
        assert att is None

    @pytest.mark.parametrize("field", ["lam", "beta"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x"])
    def test_export_rejects_what_import_rejects(self, tmp_path, field, bad):
        # checked before the file is opened, so no file is left for import to reject
        p = tmp_path / "g.json"
        with pytest.raises(ValidationError):
            fileio.export_grid_json(make_grid(2, 2), None, p, **{field: bad})
        assert not p.exists()

    def test_export_writes_numpy_scalars_as_floats(self, tmp_path):
        p = tmp_path / "g.json"
        fileio.export_grid_json(make_grid(2, 2), None, p, lam=np.float32(0.5), beta=np.int64(2))
        _, _, lam, beta = fileio.import_grid_json(p)
        assert (lam, beta) == (0.5, 2.0)

    def test_out_of_bound_attention_names_index(self, tmp_path):
        p = tmp_path / "g.json"
        grid = make_grid(2, 2)
        doc = {"rows": 2, "cols": 2, "base": grid.base.tolist(),
               "offsets": grid.offsets.tolist(), "lambda": 0.5, "beta": 1.0,
               "attention": [[0.0, 0.0, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0]]}
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="row 1, col 1"):
            fileio.import_grid_json(p)

    def test_k_mismatch(self, tmp_path):
        p = tmp_path / "g.json"
        grid = make_grid(2, 2)
        doc = {"rows": 2, "cols": 2, "base": grid.base.tolist(),
               "offsets": grid.offsets.tolist(), "lambda": 0.5, "beta": 1.0,
               "attention": [[0.0, 0.0, 0.0]]}
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            fileio.import_grid_json(p)

    def test_non_lattice_base_rejected(self, tmp_path):
        p = tmp_path / "g.json"
        grid = make_grid(2, 2)
        base = grid.base.tolist()
        base[0][0] += 0.5
        doc = {"rows": 2, "cols": 2, "base": base, "offsets": grid.offsets.tolist(),
               "lambda": 0.5, "beta": 1.0, "attention": None}
        p.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            fileio.import_grid_json(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text("{}")
        with pytest.raises(ValidationError):
            fileio.import_grid_json(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text("{not json")
        with pytest.raises(FormatError):
            fileio.import_grid_json(p)

    def test_integer_wider_than_int64_converts(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_bytes(_points_doc(offsets=[[10**30, 0], [0, 0], [0, 0], [0, 0]],
                                  **{"lambda": 10**30}))
        grid, _, lam, _ = fileio.import_grid_json(p)
        assert grid.offsets[0, 0] == 1e30 and lam == 1e30

    @pytest.mark.parametrize("blob, error", MALFORMED_POINTS)
    def test_malformed_points_typed_error(self, tmp_path, blob, error):
        p = tmp_path / "g.json"
        p.write_bytes(blob)
        with pytest.raises(error):
            fileio.import_grid_json(p)

    @pytest.mark.parametrize("blob, error", MALFORMED_POINTS)
    def test_malformed_points_cli_exit_2(self, tmp_path, blob, error):
        image, points = tmp_path / "in.pgm", tmp_path / "g.json"
        fileio.save_image(np.zeros((1, 4, 6), np.float32), image)
        points.write_bytes(blob)
        assert main(["rectify", "--image", str(image), "--points", str(points),
                     "--out", str(tmp_path / "o.pgm")]) == 2
        assert not (tmp_path / "o.pgm").exists()


def test_import_leaves_json_parser_unloaded():
    # the parser pulls in asyncio, so importing it with the package would slow every set-up
    code = "import sys, tpspp, tpspp.cli; print('pydantic_core' in sys.modules)"
    src = str(Path(fileio.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "False"

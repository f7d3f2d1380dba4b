"""Bit-exact persistence: TPSW weight files, PGM/PPM images, grid JSON.

TPSW layout (all integers u32 little-endian, floats IEEE-754 f32 LE):

  magic "TPSW" | version = 1 | tensor_count
  per tensor, in lexicographic name order:
    name_len | name (UTF-8) | rank | dims[rank] | payload f32 * prod(dims)
"""

import json
import math
import re
import struct

import numpy as np

from .errors import FormatError, ValidationError
from .network import WeightStore
from .tensor import read_only, real_array, real_scalar
from .tps import DEFAULT_BETA, DEFAULT_LAMBDA, ControlPointGrid
from .warp import AttentionMatrix

MAGIC = b"TPSW"
VERSION = 1
MAX_RANK = 4


def save_weights(w, path):
    """Write a WeightStore as TPSW; FormatError, before the file is opened, for a tensor that
    load_weights would reject."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<II", VERSION, len(w))
    for name, arr in w.items():
        encoded = name.encode("utf-8")
        if not 1 <= arr.ndim <= MAX_RANK or 0 in arr.shape:
            raise FormatError(f"tensor {name!r} has shape {arr.shape}; a TPSW tensor has rank "
                              f"1..{MAX_RANK} and no zero extent")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise FormatError(f"need {n} bytes at offset {self.pos}, file has {len(self.data)}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]


def load_weights(path):
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise FormatError("bad magic, not a TPSW file")
    version = r.u32()
    if version != VERSION:
        raise FormatError(f"unsupported TPSW version {version}")
    count = r.u32()
    tensors = {}
    for _ in range(count):
        name_len = r.u32()
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"tensor name is not valid UTF-8: {exc}") from exc
        rank = r.u32()
        if rank < 1 or rank > MAX_RANK:
            raise FormatError(f"tensor {name!r} has rank {rank}, expected 1..{MAX_RANK}")
        dims = [r.u32() for _ in range(rank)]
        if any(d == 0 for d in dims):
            raise FormatError(f"tensor {name!r} has a zero extent {dims}")
        n = math.prod(dims)  # Python integers: np.prod of four u32 extents overflows int64
        payload = r.take(4 * n)  # FormatError when 4n exceeds the bytes left
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
    return WeightStore(tensors)


# A netpbm header: P3, P5 or P6, then width, height and maxval, each after whitespace, then the
# one whitespace byte before the raster. A '#' comment starts the file or follows whitespace and
# runs to the end of its line: (?![^\n]) keeps it from ending early. A number is leading zeros and
# at most 19 digits: int() refuses over 4300, and no file holds 1e19 pixels.
_PNM_HEADER = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*(P[356])"
                         + 3 * rb"\s(?:\s|#[^\n]*(?![^\n]))*0*([0-9]{1,19})" + rb"\s")


def load_image(path):
    """Read a P5 PGM or P3/P6 PPM as a (1, H, W) float32 map in [0, 1].

    Color input is converted to luminance 0.299 R + 0.587 G + 0.114 B.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PNM_HEADER.match(data)
    if header is None:
        raise FormatError("not a netpbm header: P3, P5 or P6, then width, height and maxval in "
                          "decimal digits, each after whitespace or '#' comments")
    magic, end = header[1], header.end()
    width, height, maxval = (int(v) for v in header.groups()[1:])
    if width < 1 or height < 1:
        raise FormatError(f"bad image extents {width}x{height}")
    if maxval != 255:
        raise FormatError(f"only maxval 255 supported, got {maxval}")

    channels = 3 if magic in (b"P6", b"P3") else 1
    n = width * height * channels
    if magic == b"P3":
        # the unread tail stays one piece; no file holds more samples than bytes
        values = data[end:].split(None, min(n, len(data)))[:n]
        if len(values) < n:
            raise FormatError(f"P3 payload has {len(values)} samples, need {n}")
        if not all(map(bytes.isdigit, values)):
            raise FormatError("non-numeric P3 sample")
        pixels = np.array(list(map(float, values)))  # float, unlike int, takes any digit count
        if pixels.max() > 255:
            raise FormatError("P3 sample out of range 0..255")
    else:
        payload = data[end:end + n]
        if len(payload) < n:
            raise FormatError(f"binary payload has {len(payload)} bytes, need {n}")
        pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)

    pixels = pixels.reshape(height, width, channels)
    if channels == 3:
        gray = pixels @ np.array([0.299, 0.587, 0.114])
    else:
        gray = pixels[:, :, 0]
    return (gray / 255.0).astype(np.float32)[None, :, :]


def save_image(t, path):
    """Write a (1, H, W) or (H, W) map in [0, 1] as binary PGM, values outside it saturated.
    Before the file is opened, a value that is not a finite real number raises ValidationError
    and a shape that load_image would reject, a zero extent included, FormatError."""
    t = real_array(t, "image")
    if t.ndim == 3:
        if t.shape[0] != 1:
            raise FormatError(f"save_image needs a single channel, got {t.shape}")
        t = t[0]
    if t.ndim != 2 or 0 in t.shape:
        raise FormatError(f"save_image expects (H, W) or (1, H, W), H, W >= 1, got {t.shape}")
    if not np.isfinite(t).all():
        raise ValidationError("image values must be finite")
    q = np.rint(np.clip(t, 0.0, 1.0).astype(np.float64) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (t.shape[1], t.shape[0]))
        fh.write(q.tobytes())


def export_grid_json(grid, attention, path, lam=DEFAULT_LAMBDA, beta=DEFAULT_BETA):
    """Write grid + attention as JSON; attention may be None (all-zero). A lam or beta that is
    not one finite real number, or attention with no rows or other than K columns, raises
    ValidationError before the file is opened."""
    lam, beta = real_scalar(lam, "lambda"), real_scalar(beta, "beta")
    if attention is not None and (attention.m_locations == 0 or attention.k_points != grid.k):
        raise ValidationError(f"attention shape {attention.scores.shape} needs rows and K={grid.k}")
    doc = {
        "rows": grid.rows,
        "cols": grid.cols,
        "base": grid.base.tolist(),
        "offsets": grid.offsets.tolist(),
        "lambda": lam,
        "beta": beta,
        "attention": None if attention is None else attention.scores.tolist(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))  # one write: json.dump writes chunk by chunk


def import_grid_json(path):
    """Load and validate (grid, attention, lambda, beta) from JSON; attention is None when the
    file stores null (treated as all-zero by callers choosing their own output lattice)."""
    from pydantic_core import from_json  # here: it imports asyncio, which only this reader needs

    with open(path, "rb") as fh:
        try:
            doc = from_json(fh.read())  # the bytes are freed here, before the arrays are built
        except ValueError as exc:  # invalid JSON or UTF-8, or nesting past the parser's depth limit
            raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"points file must hold a JSON object, not {type(doc).__name__}")
    for field in ("rows", "cols", "base", "offsets", "lambda", "beta", "attention"):
        if field not in doc:
            raise ValidationError(f"missing field {field!r}")
    rows, cols = doc["rows"], doc["cols"]
    if type(rows) is not int or type(cols) is not int:  # bool is an int subclass
        raise ValidationError("grid extents must be JSON integers, got "
                              f"{type(rows).__name__} and {type(cols).__name__}")
    base = real_array(doc["base"], "base")
    # offsets and scores are fresh arrays, handed over read-only: their types keep them uncopied
    offsets = read_only(real_array(doc["offsets"], "offsets"))
    lam, beta = real_scalar(doc["lambda"], "lambda"), real_scalar(doc["beta"], "beta")
    scores = doc["attention"]
    scores = None if scores is None else read_only(real_array(scores, "attention"))
    if base.shape != (rows * cols, 2):
        raise ValidationError(f"base shape {base.shape} != ({rows * cols}, 2)")
    grid = ControlPointGrid(rows, cols, offsets)
    if not np.all(np.abs(base - grid.base) <= 1e-9):  # False for NaN too
        raise ValidationError("base points do not form the uniform [-1,1] lattice")

    attention = None
    if scores is not None:
        if scores.ndim != 2 or scores.shape[1] != grid.k:
            raise ValidationError(f"attention shape {scores.shape} incompatible with K={grid.k}")
        attention = AttentionMatrix(scores)
    return grid, attention, lam, beta

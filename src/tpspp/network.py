"""Forward-only rectification networks.

The chain for a 1x32x128 input:

  toy_backbone -> (32x32x128, 64x16x64, 96x16x64)
  msfa_forward -> encoded 64x4x16 (after the channel/spatial gate),
                  decoded 64x16x64
  aipe_forward -> 64 control-point offsets and a 1024x64 score matrix

All forwards are pure functions of (input, weights); no state is kept.
Convolutions are cross-correlations with zero padding; linear layers use
the out-by-in convention y = W @ x + b.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import MissingParameterError, ShapeError, ValidationError
from .warp import AttentionMatrix

D = 64                 # shared channel width of encoded/decoded features
ENC_H, ENC_W = 4, 16   # encoded spatial extent = control grid
DEC_H, DEC_W = 16, 64  # decoded spatial extent = output lattice
CBAM_REDUCTION = 16
INPUT_H, INPUT_W = 32, 128


class DecodedAttention(AttentionMatrix):
    """Scores on the decoded DEC_H x DEC_W lattice, resampled to every other output lattice."""


class WeightStore:
    """Immutable name -> float32 tensor map; a name must be a str that encodes as UTF-8."""

    def __init__(self, tensors):
        store = {}
        for name, arr in tensors.items():
            try:
                str.encode(name, "utf-8")  # TypeError unless a str; a lone surrogate fails
            except (TypeError, UnicodeEncodeError):
                raise ValidationError(f"weight name {name!r} is not a UTF-8 string") from None
            with np.errstate(over="ignore"):  # past float32's range is inf, as in the forward
                store[name] = tensor.frozen_real_array(arr, name, np.float32)
        self._tensors = store

    def __getitem__(self, name):
        """The forwards' one read of a parameter: a manifest name must have its manifest shape."""
        try:
            arr = self._tensors[name]
        except KeyError:
            raise MissingParameterError(f"weight {name!r} not found") from None
        shape = WEIGHT_MANIFEST.get(name, arr.shape)
        if arr.shape != shape:
            raise ShapeError(f"weight {name!r} has shape {arr.shape}, the manifest says {shape}")
        return arr

    def __len__(self):
        return len(self._tensors)

    def items(self):
        return ((k, self._tensors[k]) for k in sorted(self._tensors))

    def parameter_count(self):
        return sum(arr.size for arr in self._tensors.values())


@dataclass(frozen=True)
class FeatureBundle:
    """Outputs of the three backbone stages, channels-first."""

    f1: np.ndarray  # 32 x 32 x 128
    f2: np.ndarray  # 64 x 16 x 64
    f3: np.ndarray  # 96 x 16 x 64


@dataclass(frozen=True)
class EncodedDecodedPair:
    f_e: np.ndarray  # D x 4 x 16
    f_d: np.ndarray  # D x 16 x 64


# name -> shape of every parameter the forward passes read.
WEIGHT_MANIFEST = {
    "backbone.conv1.weight": (32, 1, 3, 3),
    "backbone.conv1.bias": (32,),
    "backbone.conv2.weight": (64, 32, 3, 3),
    "backbone.conv2.bias": (64,),
    "backbone.conv3.weight": (96, 64, 3, 3),
    "backbone.conv3.bias": (96,),
    "msfa.align1.weight": (D, 32, 1, 1),
    "msfa.align1.bias": (D,),
    "msfa.align2.weight": (D, 64, 1, 1),
    "msfa.align2.bias": (D,),
    "msfa.align3.weight": (D, 96, 1, 1),
    "msfa.align3.bias": (D,),
    "msfa.layer1.weight": (D, 3 * D, 1, 1),
    "msfa.layer1.bias": (D,),
    "msfa.layer2.weight": (D, D, 3, 3),
    "msfa.layer2.bias": (D,),
    "msfa.layer3.weight": (D, D, 3, 3),
    "msfa.layer3.bias": (D,),
    "msfa.cbam.mlp1.weight": (D // CBAM_REDUCTION, D),
    "msfa.cbam.mlp1.bias": (D // CBAM_REDUCTION,),
    "msfa.cbam.mlp2.weight": (D, D // CBAM_REDUCTION),
    "msfa.cbam.mlp2.bias": (D,),
    "msfa.cbam.spatial.weight": (1, 2, 7, 7),
    "msfa.cbam.spatial.bias": (1,),
    "msfa.layer5.weight": (D, D, 3, 3),
    "msfa.layer5.bias": (D,),
    "msfa.layer6.weight": (D, D, 3, 3),
    "msfa.layer6.bias": (D,),
    "msfa.layer7.weight": (D, D, 3, 3),
    "msfa.layer7.bias": (D,),
    "dgab.seq_w.weight": (DEC_W, DEC_W + ENC_H * ENC_W),
    "dgab.seq_w.bias": (DEC_W,),
    "dgab.seq_h.weight": (DEC_H, DEC_H + ENC_H * ENC_W),
    "dgab.seq_h.bias": (DEC_H,),
    "dgab.gate_w.weight": (D,),
    "dgab.gate_w.bias": (1,),
    "dgab.gate_h.weight": (D,),
    "dgab.gate_h.bias": (1,),
    "aipe.offset1.weight": (D, D),
    "aipe.offset1.bias": (D,),
    "aipe.offset2.weight": (2, D),
    "aipe.offset2.bias": (2,),
}

RECTIFIER_PREFIXES = ("msfa.", "dgab.", "aipe.")


def init_weights(seed=0):
    """Deterministic uniform [-0.05, 0.05] weights for self-tests.

    The final offset layer starts at zero so an untrained network yields
    the identity rectification.
    """
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in WEIGHT_MANIFEST.items():
        if name.startswith("aipe.offset2."):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        else:
            tensors[name] = rng.uniform(-0.05, 0.05, size=shape).astype(np.float32)
    return WeightStore(tensors)


def rectifier_parameter_count():
    """Parameters of the rectifier proper (backbone stub excluded), from WEIGHT_MANIFEST."""
    return sum(int(np.prod(shape)) for name, shape in WEIGHT_MANIFEST.items()
               if name.startswith(RECTIFIER_PREFIXES))


def _conv(x, w, name, stride=1, pad=0, act=True):
    out = tensor.conv2d(x, w[f"{name}.weight"], w[f"{name}.bias"], stride=stride, pad=pad)
    return tensor.relu(out) if act else out


def _linear(x, weight, bias):
    # x: (..., in); weight: (out, in)
    return tensor.matmul(x, weight.T) + bias


def toy_backbone(image, w):
    """Fixed three-stage conv stub standing in for a real backbone.

    Stage strides 1, 2, 1 with 3x3 kernels and pad 1 give channel counts
    (32, 64, 96) at spatial extents (32x128, 16x64, 16x64).
    """
    image = tensor.real_array(image, "image")
    if image.shape != (1, INPUT_H, INPUT_W):
        raise ShapeError(f"expected (1, {INPUT_H}, {INPUT_W}) input, got {image.shape}")
    if image.dtype.kind in "iu":  # conv2d keeps its input's dtype: integer maps would truncate
        image = image.astype(np.float32)
    f1 = _conv(image, w, "backbone.conv1", stride=1, pad=1)
    f2 = _conv(f1, w, "backbone.conv2", stride=2, pad=1)
    f3 = _conv(f2, w, "backbone.conv3", stride=1, pad=1)
    return FeatureBundle(f1, f2, f3)


def _avgpool2x2(x):
    c, h, w_ = x.shape
    v = x.reshape(c, h // 2, 2, w_ // 2, 2)
    # float64 adds in numpy's pairwise order, so the result equals mean(axis=(2, 4))
    # whenever the pooled width is above 1, as it always is here
    out = np.add(v[:, :, 0, :, 0], v[:, :, 0, :, 1], dtype=np.float64)
    out += np.add(v[:, :, 1, :, 0], v[:, :, 1, :, 1], dtype=np.float64)
    out /= 4
    return out.astype(x.dtype)


def cbam_forward(x, w):
    """Channel gate then spatial gate, both multiplicative."""
    x = np.asarray(x)
    c = x.shape[0]
    if c % CBAM_REDUCTION != 0:
        raise ShapeError(f"channels {c} not divisible by reduction {CBAM_REDUCTION}")

    def mlp(v):
        h = tensor.relu(_linear(v[None, :], w["msfa.cbam.mlp1.weight"], w["msfa.cbam.mlp1.bias"]))
        return _linear(h, w["msfa.cbam.mlp2.weight"], w["msfa.cbam.mlp2.bias"])[0]

    avg = x.mean(axis=(1, 2), dtype=np.float64).astype(x.dtype)
    mx = x.max(axis=(1, 2))
    gate_c = tensor.sigmoid(mlp(avg) + mlp(mx))
    x = x * gate_c[:, None, None]

    stat = np.stack([tensor.reduce_mean(x, 0), x.max(axis=0)])
    gate_s = tensor.sigmoid(tensor.conv2d(stat, w["msfa.cbam.spatial.weight"],
                                          w["msfa.cbam.spatial.bias"], stride=1, pad=3))
    return x * gate_s[0]


def msfa_forward(bundle, w):
    """Encoder-decoder aggregation of the three backbone maps."""
    if bundle.f1.shape != (32, 32, 128) or bundle.f2.shape != (64, 16, 64) \
            or bundle.f3.shape != (96, 16, 64):
        raise ShapeError(f"unexpected bundle shapes {bundle.f1.shape}, {bundle.f2.shape}, {bundle.f3.shape}")
    a1 = _avgpool2x2(_conv(bundle.f1, w, "msfa.align1"))
    a2 = _conv(bundle.f2, w, "msfa.align2")
    a3 = _conv(bundle.f3, w, "msfa.align3")
    x = np.concatenate([a1, a2, a3])  # 192 x 16 x 64

    x = _conv(x, w, "msfa.layer1")                       # 64 x 16 x 64
    x = _conv(x, w, "msfa.layer2", stride=2, pad=1)      # 64 x 8 x 32
    x = _conv(x, w, "msfa.layer3", stride=2, pad=1)      # 64 x 4 x 16
    f_e = cbam_forward(x, w)                             # 64 x 4 x 16

    x = _conv(tensor.upsample_x2(f_e), w, "msfa.layer5", pad=1)  # 64 x 8 x 32
    x = _conv(tensor.upsample_x2(x), w, "msfa.layer6", pad=1)    # 64 x 16 x 64
    f_d = _conv(x, w, "msfa.layer7", pad=1, act=False)           # signed output
    return EncodedDecodedPair(f_e, f_d)


def _encoded_sequence(f_e):
    # D x H_e x W_e -> K x D, row-major over (row, col)
    d, h, w_ = f_e.shape
    return f_e.transpose(1, 2, 0).reshape(h * w_, d)


def dgab_forward(pair, w):
    """Gated attention over the decoded map, guided by the encoded one.

    Column/row summaries of f_d are concatenated with the encoded
    sequence, realigned by a linear layer, gated by a per-column/row
    sigmoid importance weight, softmax-normalized over channels,
    broadcast back, summed, and multiplied into the raw f_d.
    """
    f_d = np.asarray(pair.f_d)
    f_e = np.asarray(pair.f_e)
    if f_d.shape != (D, DEC_H, DEC_W) or f_e.shape != (D, ENC_H, ENC_W):
        raise ShapeError(f"unexpected pair shapes {f_e.shape}, {f_d.shape}")
    fe_seq = _encoded_sequence(f_e)  # K x D

    def branch(summary, name):
        # summary: (len, D) sequence; realign (len + K) -> len
        cat = np.concatenate([summary, fe_seq])
        aligned = tensor.matmul(w[f"dgab.seq_{name}.weight"], cat) \
            + w[f"dgab.seq_{name}.bias"][:, None].astype(np.float32)
        gate = tensor.sigmoid(aligned @ w[f"dgab.gate_{name}.weight"]
                              + w[f"dgab.gate_{name}.bias"][0])
        return tensor.softmax(aligned, axis=1) * gate[:, None]

    s_w = branch(tensor.reduce_mean(f_d, 1).T, "w")  # W_d x D
    s_h = branch(tensor.reduce_mean(f_d, 2).T, "h")  # H_d x D

    merged = s_w.T[:, None, :] + s_h.T[:, :, None]  # D x H_d x W_d
    return (merged * f_d).astype(f_d.dtype)


def check_control_points(grid):
    """ShapeError unless the grid is the ENC_H x ENC_W lattice, one point per encoded position."""
    if (grid.rows, grid.cols) != (ENC_H, ENC_W):
        raise ShapeError(f"grid {grid.rows}x{grid.cols} is not the encoded {ENC_H}x{ENC_W}")


def aipe_forward(pair, w, grid):
    """Predict control-point offsets and the attention score matrix."""
    check_control_points(grid)
    fe_seq = _encoded_sequence(np.asarray(pair.f_e))  # K x D

    h = tensor.relu(_linear(fe_seq, w["aipe.offset1.weight"], w["aipe.offset1.bias"]))
    offsets = _linear(h, w["aipe.offset2.weight"], w["aipe.offset2.bias"])  # K x 2

    gated = dgab_forward(pair, w)  # D x H_d x W_d
    m_seq = gated.transpose(1, 2, 0).reshape(DEC_H * DEC_W, D)
    # tensor.tanh keeps the scores inside the open interval (-1, 1)
    scores = tensor.tanh(m_seq.astype(np.float64) @ fe_seq.astype(np.float64).T / np.sqrt(D))
    return (grid.with_offsets(tensor.read_only(offsets.astype(np.float64))),
            DecodedAttention(tensor.read_only(scores)))


def rectification_forward(image, w, grid):
    """Full chain: backbone, aggregation, parameter estimation, once the grid's extents pass.
    Overflow is not reported: non-finite offsets or scores raise ValidationError instead."""
    check_control_points(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        pair = msfa_forward(toy_backbone(image, w), w)
        regressed_grid, attention = aipe_forward(pair, w, grid)
    return pair, regressed_grid, attention

"""Mirror and transpose relations of rectify_map, which need no oracle.

Reversing the source along one axis, with the control grid, its offsets and the scores
mirrored to match, reverses the output and its sampling coordinates along that axis.
Transposing the source, with the grid, the output extents and the scores transposed and x
and y trading places, transposes the output and its sampling coordinates. The scalar
oracles share the code's conventions (x rightward, y downward, row-major control points and
score rows), so a slip made in both goes unseen by them; a relation catches it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpspp import tps
from tpspp.network import DEC_H, DEC_W, DecodedAttention
from tpspp.rectify import rectify_map
from tpspp.warp import AttentionMatrix

# The residue comes from np.linspace, whose lattice is not exactly antisymmetric, amplified by
# the TPS sum. Over 8,000 random draws of the cases below (2-vCPU Xeon, numpy 2.4) it reached
# 1.8e-11 times max(1, max|coordinate|): i.i.d. scores drive coordinates to the hundreds, and
# the residue grows with them. The bound is 1e-9, a margin of 50. The output bound follows
# from it: a bilinear sample of a [0, 1] source moves by at most 1 per pixel that its
# coordinate moves along each axis, and the warp rounds each side to within 6 * 2^-24 *
# max|source| in float32 (6 * 2^-53 in float64). The outputs' residues were 1.6e-10 in float64
# and 1.2e-7, one float32 ulp at 1, in float32.
COORD_TOL = 1e-9


@st.composite
def cases(draw, kinds=("none", "per-location", "decoded")):
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(2, 16))
    scores = draw(st.sampled_from(kinds))
    if scores == "decoded":  # the decoded rows' floor rule is mirror-symmetric at these only
        out_h, out_w = DEC_H * draw(st.integers(1, 2)), DEC_W * draw(st.integers(1, 2))
    else:
        out_h, out_w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = rng.uniform(-1.0, 1.0, (rows * cols, 2)) * draw(st.floats(0.0, 0.3))
    values = None
    if scores != "none":
        locations = DEC_H * DEC_W if scores == "decoded" else out_h * out_w
        values = rng.uniform(-0.99, 0.99, (locations, rows * cols))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    source = rng.uniform(0.0, 1.0, shape).astype(draw(st.sampled_from([np.float64, np.float32])))
    return dict(rows=rows, cols=cols, offsets=offsets, scores=scores, values=values,
                out_h=out_h, out_w=out_w, source=source, lam=draw(st.floats(-2.0, 2.0)),
                beta=draw(st.floats(-1.0, 2.0)), border=draw(st.sampled_from(["zeros", "clamp"])))


def rectify(case, source, offsets, values):
    grid = tps.make_grid(case["rows"], case["cols"]).with_offsets(offsets)
    kind = {"per-location": AttentionMatrix, "decoded": DecodedAttention}.get(case["scores"])
    attention = values if values is None else kind(values)
    return rectify_map(source, grid, attention, case["lam"], case["beta"], case["out_h"],
                       case["out_w"], case["border"])


def assert_agree(source, out, coords, want_out, want_coords):
    """Sampling coordinates within COORD_TOL of max(1, max|coordinate|), and outputs within
    what the coordinates' residue and the warp's rounding can move them."""
    scale = max(1.0, float(np.abs(coords).max()))
    assert np.abs(coords - want_coords).max() <= COORD_TOL * scale
    pixels = COORD_TOL * scale * (max(source.shape[1:]) - 1) / 2  # a coordinate's move, in px
    rounding = 6 * np.finfo(source.dtype).eps / 2 * float(np.abs(source).max())
    got = want_out.astype(np.float64)
    assert np.abs(out.astype(np.float64) - got).max() <= 2 * pixels + 2 * rounding


@pytest.mark.parametrize("axis", [0, 1], ids=["mirror-in-y", "mirror-in-x"])
@settings(max_examples=120, deadline=None)
@given(case=cases())
def test_mirror_reverses_the_output(axis, case):
    # axis 0 reverses rows and negates y, axis 1 reverses columns and negates x
    rows, cols, out_h, out_w = case["rows"], case["cols"], case["out_h"], case["out_w"]
    sign = np.where(np.arange(2) == 1 - axis, -1.0, 1.0)
    values, mirrored_values = case["values"], None
    if values is not None:  # score rows over their lattice, score columns like the points
        lattice = (DEC_H, DEC_W) if case["scores"] == "decoded" else (out_h, out_w)
        mirrored_values = np.flip(values.reshape(lattice + (rows, cols)),
                                  axis=(axis, 2 + axis)).reshape(values.shape)
    mirrored_offsets = np.flip(case["offsets"].reshape(rows, cols, 2), axis=axis) * sign
    source = case["source"]
    out, sampling = rectify(case, source, case["offsets"], values)
    mirrored_out, mirrored_sampling = rectify(case, np.flip(source, axis=1 + axis),
                                              mirrored_offsets.reshape(-1, 2), mirrored_values)

    assert_agree(source, out, sampling.coords.reshape(out_h, out_w, 2),
                 np.flip(mirrored_out, axis=1 + axis),
                 np.flip(mirrored_sampling.coords.reshape(out_h, out_w, 2), axis=axis) * sign)


# decoded scores stay on the 16x64 lattice, which a transpose would turn into 64x16
@settings(max_examples=120, deadline=None)
@given(case=cases(kinds=("none", "per-location")))
def test_transpose_transposes_the_output(case):
    # point (i, j) of the R x C grid is point (j, i) of the C x R one, its x and y swapped
    rows, cols, out_h, out_w = case["rows"], case["cols"], case["out_h"], case["out_w"]
    values, transposed_values = case["values"], None
    if values is not None:  # score rows follow the output locations, score columns the points
        transposed_values = values.reshape(out_h, out_w, rows, cols).transpose(
            1, 0, 3, 2).reshape(values.shape)
    transposed_offsets = case["offsets"].reshape(rows, cols, 2).transpose(1, 0, 2)[..., ::-1]
    transposed = dict(case, rows=cols, cols=rows, out_h=out_w, out_w=out_h)
    source = case["source"]
    out, sampling = rectify(case, source, case["offsets"], values)
    transposed_out, transposed_sampling = rectify(transposed, source.transpose(0, 2, 1),
                                                  transposed_offsets.reshape(-1, 2),
                                                  transposed_values)

    coords = transposed_sampling.coords.reshape(out_w, out_h, 2).transpose(1, 0, 2)[..., ::-1]
    assert_agree(source, out, sampling.coords.reshape(out_h, out_w, 2),
                 transposed_out.transpose(0, 2, 1), coords)

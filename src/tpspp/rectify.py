"""End-to-end rectification of images and feature maps."""

import numpy as np

from . import network
from .errors import ShapeError, ValidationError
from .tensor import real_array
from .tps import solve_transform
from .warp import build_sampling_grid, check_lattice, check_source, warp

GRID_STEP = 4  # deformation_grid_image marks every 4th location of each lattice axis


def attention_for_lattice(attention, out_h, out_w):
    """Score row of each location of an out_h x out_w lattice, or None for no gather.

    None: no scores (read as all-zero), or one row per location. Scores on the decoded
    16x64 lattice, always the network's, give location (i, j) decoded row (floor(i*16/out_h),
    floor(j*64/out_w)), flat: mirror-symmetric at multiples of 16x64, the align-corners
    nearest only at 16 or 32 rows and 64 or 128 columns. Other row counts raise ValidationError.
    """
    m = out_h * out_w
    if attention is None or (attention.m_locations == m
                             and not isinstance(attention, network.DecodedAttention)):
        return None
    if attention.m_locations != network.DEC_H * network.DEC_W:
        raise ValidationError(
            f"attention has {attention.m_locations} rows; expected {m} or "
            f"{network.DEC_H * network.DEC_W}")
    ri = (np.arange(out_h) * network.DEC_H) // out_h  # i < out_h, so ri < DEC_H
    ci = (np.arange(out_w) * network.DEC_W) // out_w
    return (ri[:, None] * network.DEC_W + ci).ravel()


def rectify_map(source, grid, attention, lam, beta, out_h, out_w, border="zeros"):
    """Solve the transform for a regressed grid and warp a (C,H,W) map."""
    transform = solve_transform(grid, lam=lam, beta=beta)
    source = check_source(source)  # a (C,H,W) map warps to C * itemsize B per output location
    out_h, out_w = check_lattice(out_h, out_w, transform.k,
                                 source.itemsize * int(np.prod(source.shape[:-2])))
    rows = attention_for_lattice(attention, out_h, out_w)
    sampling = build_sampling_grid(transform, attention, out_h, out_w, rows=rows)
    return warp(source, sampling, border=border), sampling


def rectify_with_network(image, weights, grid, lam, beta, out_h, out_w, border="zeros"):
    """Check the output lattice and that the grid is the network's, run the networks, rectify."""
    image = real_array(image, "image")
    check_lattice(out_h, out_w, grid.k, image.itemsize)  # the network takes (1,H,W) images
    if (grid.rows, grid.cols) != (network.ENC_H, network.ENC_W):
        raise ShapeError(f"grid {grid.rows}x{grid.cols} is not the encoded "
                         f"{network.ENC_H}x{network.ENC_W}")
    _, regressed, attention = network.rectification_forward(image, weights)
    warped, sampling = rectify_map(image, regressed, attention, lam, beta, out_h, out_w, border)
    return warped, sampling, regressed, attention


def _pixels(points, h, w):
    """Rounded (col, row) pixels of normalized (N, 2) points; non-finite or outside ones dropped."""
    with np.errstate(over="ignore", invalid="ignore"):
        px = np.rint((points[:, 0] + 1.0) / 2.0 * (w - 1))
        py = np.rint((points[:, 1] + 1.0) / 2.0 * (h - 1))
    inside = (px >= 0) & (px < w) & (py >= 0) & (py < h)  # False for NaN
    return zip(px[inside].astype(int), py[inside].astype(int))


def annotate_points(image, grid):
    """Copy of a (1,H,W) image with each regressed point marked by a bright 3x3 square."""
    img = np.array(image[0], dtype=np.float32)
    h, w = img.shape
    for cx, cy in _pixels(grid.regressed, h, w):
        img[max(cy - 1, 0):cy + 2, max(cx - 1, 0):cx + 2] = 1.0
    return img[None, :, :]


def deformation_grid_image(sampling, src_h, src_w):
    """Source-sized map with every GRID_STEP-th sampled location of each axis marked."""
    img = np.zeros((src_h, src_w), dtype=np.float32)
    coords = sampling.coords.reshape(sampling.height, sampling.width, 2)[::GRID_STEP, ::GRID_STEP]
    for px, py in _pixels(coords.reshape(-1, 2), src_h, src_w):
        img[py, px] = 1.0
    return img[None, :, :]

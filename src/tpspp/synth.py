"""Synthetic test images: a bright stripe with sinusoidal displacement."""

import numpy as np

from .network import INPUT_H, INPUT_W

DEFAULT_AMPLITUDE = 6.0  # pixels
DEFAULT_NOISE = 0.02
STRIPE_CYCLES = 1.5
STRIPE_SIGMA = 2.5
MIN_COLUMN_MASS = 1e-3  # straightness skips columns of less intensity


def stripe_center(x_frac, amplitude=DEFAULT_AMPLITUDE):
    """Stripe center row (pixels) at horizontal position x_frac in [0, 1]."""
    return (INPUT_H - 1) / 2.0 + amplitude * np.sin(2.0 * np.pi * STRIPE_CYCLES * np.asarray(x_frac))


def make_stripe_image(seed, amplitude=DEFAULT_AMPLITUDE, noise=DEFAULT_NOISE):
    """Deterministic (1, INPUT_H, INPUT_W) float32 stripe image in [0, 1]."""
    rng = np.random.default_rng(seed)
    xs = np.arange(INPUT_W) / (INPUT_W - 1)
    centers = stripe_center(xs, amplitude)
    ys = np.arange(INPUT_H)[:, None]
    with np.errstate(over="ignore"):  # a stripe far off the image squares to inf: exp(-inf) = 0
        img = np.exp(-0.5 * ((ys - centers[None, :]) / STRIPE_SIGMA) ** 2)
    img = np.clip(img + rng.uniform(-noise, noise, size=img.shape), 0.0, 1.0)
    return img.astype(np.float32)[None, :, :]


def counter_offsets(grid, amplitude=DEFAULT_AMPLITUDE):
    """Control-point offsets that undo the stripe's sinusoidal displacement.

    The transform maps output locations to source locations, so each
    control point is shifted down by the stripe displacement at its x.
    """
    x_frac = (grid.base[:, 0] + 1.0) / 2.0
    dy_px = amplitude * np.sin(2.0 * np.pi * STRIPE_CYCLES * x_frac)
    offsets = np.zeros_like(grid.base)
    offsets[:, 1] = dy_px * 2.0 / (INPUT_H - 1)
    return grid.with_offsets(offsets)


def straightness(image):
    """Max deviation of per-column intensity centroids from their mean."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3:
        img = img[0]
    h = img.shape[0]
    ys = np.arange(h)
    mass = img.sum(axis=0)
    cols = mass > MIN_COLUMN_MASS
    centroids = (ys[:, None] * img).sum(axis=0)[cols] / mass[cols]
    return float(np.abs(centroids - centroids.mean()).max())

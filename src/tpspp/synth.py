"""Synthetic test images: a bright stripe with sinusoidal displacement."""

import numpy as np

from .network import INPUT_H, INPUT_W

DEFAULT_AMPLITUDE = 6.0  # pixels
DEFAULT_NOISE = 0.02
DEFAULT_CYCLES = 1.5
STRIPE_SIGMA = 2.5


def stripe_center(x_frac, amplitude=DEFAULT_AMPLITUDE, cycles=DEFAULT_CYCLES, height=INPUT_H):
    """Stripe center row (pixels) at horizontal position x_frac in [0, 1]."""
    return (height - 1) / 2.0 + amplitude * np.sin(2.0 * np.pi * cycles * np.asarray(x_frac))


def make_stripe_image(seed, amplitude=DEFAULT_AMPLITUDE, noise=DEFAULT_NOISE,
                      cycles=DEFAULT_CYCLES, height=INPUT_H, width=INPUT_W):
    """Deterministic (1, H, W) float32 stripe image in [0, 1]."""
    rng = np.random.default_rng(seed)
    xs = np.arange(width) / (width - 1)
    centers = stripe_center(xs, amplitude, cycles, height)
    ys = np.arange(height)[:, None]
    with np.errstate(over="ignore"):  # a stripe far off the image squares to inf: exp(-inf) = 0
        img = np.exp(-0.5 * ((ys - centers[None, :]) / STRIPE_SIGMA) ** 2)
    img = np.clip(img + rng.uniform(-noise, noise, size=img.shape), 0.0, 1.0)
    return img.astype(np.float32)[None, :, :]


def counter_offsets(grid, amplitude=DEFAULT_AMPLITUDE, cycles=DEFAULT_CYCLES, height=INPUT_H):
    """Control-point offsets that undo the stripe's sinusoidal displacement.

    The transform maps output locations to source locations, so each
    control point is shifted down by the stripe displacement at its x.
    """
    x_frac = (grid.base[:, 0] + 1.0) / 2.0
    dy_px = amplitude * np.sin(2.0 * np.pi * cycles * x_frac)
    offsets = np.zeros_like(grid.base)
    offsets[:, 1] = dy_px * 2.0 / (height - 1)
    return grid.with_offsets(offsets)


def straightness(image, min_mass=1e-3):
    """Max deviation of per-column intensity centroids from their mean."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3:
        img = img[0]
    h = img.shape[0]
    ys = np.arange(h)
    mass = img.sum(axis=0)
    cols = mass > min_mass
    centroids = (ys[:, None] * img).sum(axis=0)[cols] / mass[cols]
    return float(np.abs(centroids - centroids.mean()).max())

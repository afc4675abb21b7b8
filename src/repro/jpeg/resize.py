"""Image resizing — the post-decode stage the FPGA resizer unit performs.

Bilinear, matching the paper's "resizing unit", vectorised with
precomputed gather indices/weights.
"""

from __future__ import annotations

import numpy as np

__all__ = ["resize_bilinear"]


def _axis_weights(src: int, dst: int) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """Half-pixel-centre sampling positions for one axis."""
    if dst <= 0 or src <= 0:
        raise ValueError("sizes must be positive")
    pos = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    lo = np.floor(pos).astype(np.intp)
    frac = pos - lo
    lo = np.clip(lo, 0, src - 1)
    hi = np.clip(lo + 1, 0, src - 1)
    return lo, hi, frac


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of (H, W) or (H, W, C) to (out_h, out_w[, C]).

    uint8 input returns uint8 (rounded); float stays float64.
    """
    img = np.asarray(img)
    if img.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or 3-D image, got {img.shape}")
    src_h, src_w = img.shape[:2]
    ylo, yhi, yf = _axis_weights(src_h, out_h)
    xlo, xhi, xf = _axis_weights(src_w, out_w)

    # Interpolate rows first (gather), then columns.  Gathering the
    # needed rows *before* the float64 conversion touches out_h rows
    # instead of src_h (uint8 -> float64 is exact, so the order swap
    # leaves every output value bit-identical).
    top = img[ylo].astype(np.float64)
    bot = img[yhi].astype(np.float64)
    if img.ndim == 3:
        yf_ = yf[:, None, None]
        xf_ = xf[None, :, None]
    else:
        yf_ = yf[:, None]
        xf_ = xf[None, :]
    rows = top * (1 - yf_) + bot * yf_
    left = rows[:, xlo]
    right = rows[:, xhi]
    out = left * (1 - xf_) + right * xf_
    if img.dtype == np.uint8:
        return np.clip(np.round(out), 0, 255).astype(np.uint8)
    return out


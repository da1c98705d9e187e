"""Seeded MNIST-shaped synthetic digits.

Each class is a fixed stroke template drawn on a 28x28 canvas; a sample
is its class template shifted by up to two pixels, scaled by a random
gain and overlaid with Gaussian pixel noise, clipped to [0, 1].  Samples
of one class at one shift are near-duplicates, so temporal reshuffling
finds video-like orderings in them as it does in real digits.
"""

import numpy as np

SIDE = 28

# Polylines in a unit box (x right, y down), drawn into the central 20x20
# pixels like MNIST's centred digits.
_STROKES = {
    0: [[(0.5, 0.05), (0.8, 0.2), (0.85, 0.5), (0.8, 0.8), (0.5, 0.95),
         (0.2, 0.8), (0.15, 0.5), (0.2, 0.2), (0.5, 0.05)]],
    1: [[(0.35, 0.2), (0.55, 0.05), (0.55, 0.95)], [(0.35, 0.95), (0.75, 0.95)]],
    2: [[(0.2, 0.25), (0.4, 0.07), (0.7, 0.1), (0.8, 0.3), (0.2, 0.93),
         (0.85, 0.93)]],
    3: [[(0.2, 0.1), (0.75, 0.1), (0.45, 0.45), (0.8, 0.65), (0.65, 0.92),
         (0.2, 0.88)]],
    4: [[(0.7, 0.95), (0.7, 0.05), (0.15, 0.65), (0.9, 0.65)]],
    5: [[(0.8, 0.07), (0.3, 0.07), (0.25, 0.45), (0.65, 0.42), (0.8, 0.65),
         (0.6, 0.92), (0.2, 0.85)]],
    6: [[(0.7, 0.07), (0.35, 0.3), (0.2, 0.65), (0.35, 0.92), (0.7, 0.88),
         (0.75, 0.6), (0.5, 0.5), (0.25, 0.62)]],
    7: [[(0.15, 0.07), (0.85, 0.07), (0.4, 0.95)], [(0.35, 0.5), (0.7, 0.5)]],
    8: [[(0.5, 0.5), (0.25, 0.3), (0.5, 0.07), (0.75, 0.3), (0.5, 0.5),
         (0.2, 0.72), (0.5, 0.95), (0.8, 0.72), (0.5, 0.5)]],
    9: [[(0.75, 0.35), (0.5, 0.5), (0.25, 0.35), (0.5, 0.07), (0.75, 0.3),
         (0.7, 0.95)]],
}


def _segment_distance(px, py, a, b):
    (ax, ay), (bx, by) = a, b
    dx, dy = bx - ax, by - ay
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def templates(width=1.4):
    """The ten class templates, shape (10, 784), values in [0, 1]."""
    ys, xs = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    out = np.zeros((10, SIDE * SIDE))
    for digit, lines in _STROKES.items():
        dist = np.full((SIDE, SIDE), np.inf)
        for line in lines:
            pts = [(4 + 20 * x, 4 + 20 * y) for x, y in line]
            for a, b in zip(pts, pts[1:]):
                dist = np.minimum(dist, _segment_distance(xs, ys, a, b))
        out[digit] = np.clip(width + 0.5 - dist, 0.0, 1.0).ravel()
    return out


def make_digits(rng, n, base=None):
    """n labelled samples: (frames (n, 784) in [0, 1], labels (n,))."""
    base = templates() if base is None else base
    labels = rng.integers(0, 10, size=n)
    shifts = rng.integers(-2, 3, size=(n, 2))
    gains = rng.uniform(0.7, 1.0, size=n)
    frames = np.empty((n, SIDE * SIDE))
    for i in range(n):
        img = np.roll(base[labels[i]].reshape(SIDE, SIDE), tuple(shifts[i]),
                      axis=(0, 1))
        frames[i] = img.ravel() * gains[i]
    frames += rng.normal(0.0, 0.08, size=frames.shape)
    return np.clip(frames, 0.0, 1.0), labels

"""Streaming quantizers: temporal difference/integration and herding.

All stateful quantizers are single-writer objects over a fixed vector width.
State starts at zero and is reset explicitly at sequence boundaries, never
implicitly.  "Temporal" refers to presentation order only; nothing here
depends on wall-clock time.

One rounding convention is used everywhere: half-away-from-zero.  Keeping a
single global convention is what makes the herded-difference stream agree
bit-for-bit with rounding each frame independently.
"""

import numpy as np

__all__ = [
    "round_half_away",
    "TemporalDifference",
    "TemporalIntegrator",
    "Herder",
    "DeltaHerder",
]


# 1/2 as a read-only 0-d array: a Python float would be converted on
# every call
_HALF = np.full((), 0.5)
_HALF.flags.writeable = False


def round_half_away(x):
    """Round to nearest integer, ties away from zero (0.5 -> 1, -0.5 -> -1).
    Like C's round(), the result keeps the sign of x, zeros included.  It
    is a new array, copysign(1/2, x) rounded in place; x is not written."""
    x = np.asarray(x, dtype=np.float64)
    y = np.copysign(_HALF, x)
    y += x  # exact sign symmetry: -a - 0.5 rounds to -(a + 0.5)
    # a ufunc gives a 0-d result as a scalar, which has no buffer to write
    return np.trunc(y, out=y) if x.ndim else np.asarray(np.trunc(y))


class _Stateful:
    """Shared width bookkeeping for the streaming quantizers."""

    def __init__(self, size):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = int(size)

    def _check(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.size,):
            raise ValueError(f"expected shape ({self.size},), got {x.shape}")
        return x


class TemporalDifference(_Stateful):
    """Emits the change since the previous input; the first input passes through.

    After processing x_1..x_t the retained state equals x_t exactly.
    """

    def __init__(self, size):
        super().__init__(size)
        self.x_last = np.zeros(self.size)

    def step(self, x):
        x = self._check(x)
        y = x - self.x_last
        self.x_last = x.copy()
        return y

    def reset(self):
        self.x_last[:] = 0.0


class TemporalIntegrator(_Stateful):
    """Running sum of everything seen since the last reset."""

    def __init__(self, size):
        super().__init__(size)
        self.y = np.zeros(self.size)

    def step(self, x):
        x = self._check(x)
        self.y += x
        return self.y.copy()

    def reset(self):
        self.y[:] = 0.0


class Herder(_Stateful):
    """Bidirectional sigma-delta modulation in discrete time.

    Input accumulates into a residual potential phi; each step emits the
    nearest integer to phi and subtracts the emission, so |phi| never
    exceeds 1/2 and the running sum of emissions tracks the rounded
    running sum of inputs.
    """

    def __init__(self, size):
        super().__init__(size)
        self.phi = np.zeros(self.size)

    def step(self, x):
        """Emit an integer-valued vector; phi keeps the subthreshold remainder."""
        x = self._check(x)
        self.phi += x
        s = round_half_away(self.phi)
        self.phi -= s
        return s

    def reset(self):
        self.phi[:] = 0.0


class DeltaHerder(_Stateful):
    """Closed form of herding applied to a differenced stream.

    Feeding x_t directly (no differencing) emits round(x_t) - round(x_{t-1})
    with round(x_0) = 0: exactly the events a Herder produces when driven by
    a TemporalDifference of the same stream, computed without either state
    machine.
    """

    def __init__(self, size):
        super().__init__(size)
        self.prev_rounded = np.zeros(self.size)

    def step(self, x):
        x = self._check(x)
        r = round_half_away(x)
        s = r - self.prev_rounded
        self.prev_rounded = r
        return s

    def reset(self):
        self.prev_rounded[:] = 0.0

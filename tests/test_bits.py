"""The exact executors' bits, pinned by one sha256.

On nets with relu and identity layers, forward_rounding, rounding_batch,
the sigma-delta step and sigma_delta_stream compute on each layer's grid
(network.GRID_BITS), where every sum is exact, so their outputs and event
counts do not depend on BLAS summation order or thread count.  The hash
covers those outputs and each LayerActivity's l1 totals, and the frames
gen_random_stream draws.  A change that means to move these bits updates
PINNED and says so.
"""

import hashlib

import numpy as np

import sigmadelta.network as network
from sigmadelta.costs import LayerActivity
from sigmadelta.data import gen_random_stream
from sigmadelta.network import (LayerSpec, NetworkSpec, SigmaDeltaRuntime,
                                forward_rounding, rounding_batch,
                                sigma_delta_stream)

PINNED = "608ba5250ff7dafeb5d4a00f5eab8384ca85486da537d9a665c1cf3f484bf2ec"

FRAMES = 300
# row counts for rounding_batch on each side of its 64-row blocks
BATCH_ROWS = (1, 63, 64, 65, FRAMES)


def nets():
    """Two seeded relu/identity nets, 12 inputs wide."""
    rng = np.random.default_rng(2101)

    def layer(d_in, d_out, act, k):
        return LayerSpec(rng.standard_normal((d_in, d_out)),
                         rng.standard_normal(d_out), act, k)

    return [NetworkSpec([layer(12, 16, "relu", 4.0),
                         layer(16, 16, "relu", 2.5),
                         layer(16, 5, "identity", 8.0)]),
            NetworkSpec([layer(12, 7, "identity", 4.0),
                         layer(7, 3, "relu", 0.75)])]


def streams():
    """{name: (FRAMES, 12) frames}: i.i.d. and smooth streams, a smooth
    stream with each frame held 10 times, and half-integer ties at the
    first layer's scale 4."""
    rng = np.random.default_rng(2102)
    iid = gen_random_stream(rng, FRAMES, 12, 0.0).frames
    smooth = gen_random_stream(rng, FRAMES, 12, 0.95).frames
    held = np.repeat(gen_random_stream(rng, FRAMES // 10, 12, 0.95).frames,
                     10, axis=0)
    ties = (rng.integers(-12, 12, size=(FRAMES, 12)) + 0.5) / 4.0
    return {"iid": iid, "smooth": smooth, "held": held, "ties": ties}


def exact_bits(monkeypatch):
    """Every pinned array, in a fixed order, as bytes."""
    out = []

    def add(a):
        out.append(np.ascontiguousarray(a).tobytes())

    def l1(activity):
        add(np.array(activity.l1, dtype=np.int64))

    X = streams()
    for x in X.values():
        add(x)
    for net in nets():
        for x in X.values():
            add(np.stack([forward_rounding(net, row) for row in x]))
            for n in BATCH_ROWS:
                activity = LayerActivity.for_network(net)
                add(rounding_batch(net, x[:n], activity))
                l1(activity)
            runtime = SigmaDeltaRuntime(net)
            activity = LayerActivity.for_network(net)
            add(np.stack([runtime.step(row, activity=activity) for row in x]))
            l1(activity)
            # the default chunk, then chunks that split the stream unevenly
            for chunk in (network.STREAM_CHUNK, 64):
                monkeypatch.setattr(network, "STREAM_CHUNK", chunk)
                activity = LayerActivity.for_network(net)
                add(sigma_delta_stream(net, x, activity=activity))
                l1(activity)
    return out


def test_exact_executors_bits_are_pinned(monkeypatch):
    digest = hashlib.sha256()
    for b in exact_bits(monkeypatch):
        digest.update(b)
    assert digest.hexdigest() == PINNED

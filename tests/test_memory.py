"""Peak memory of the batch paths, in multiples of the frames' size.

Each pass holds one s-sized array per layer: the rounding runs in place in
64-row blocks through a 64-row scratch, a hidden layer's output is scaled
in place into the next layer's s, the bias and ReLU are applied in place
to the product, and the previous layer's s is freed before the next is
formed.  The stream takes its row L1s in 64-row blocks of one scratch
array.
gen_random_stream smooths its one draw of frames in place.  Peaks are
tracemalloc's, over a second call (the first builds each layer's grid).
"""

import tracemalloc

import numpy as np
import pytest

from sigmadelta.costs import LayerActivity
from sigmadelta.data import gen_random_stream
from sigmadelta.network import (LayerSpec, NetworkSpec, dense_batch,
                                rounding_batch, sigma_delta_stream)

N, WIDTH = 4096, 64
FRAME_BYTES = N * WIDTH * 8


def peak_frames(call):
    """call()'s tracemalloc peak over FRAME_BYTES, after a first call."""
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / FRAME_BYTES


@pytest.fixture(scope="module")
def net_and_frames():
    rng = np.random.default_rng(31)
    net = NetworkSpec([
        LayerSpec(rng.standard_normal((WIDTH, 32)), rng.standard_normal(32),
                  "relu", 8.0),
        LayerSpec(rng.standard_normal((32, 10)), rng.standard_normal(10),
                  "identity", 4.0)])
    return net, rng.standard_normal((N, WIDTH))


def test_smooth_stream_holds_one_frame_array():
    # the normal draws and a second array of smoothed frames read 2.00
    assert peak_frames(lambda: gen_random_stream(
        np.random.default_rng(32), N, WIDTH, 0.95)) <= 1.1


def rounding_batch_counted(net, X):
    return rounding_batch(net, X, LayerActivity.for_network(net))


@pytest.mark.parametrize("run, bound", [(dense_batch, 1.0),
                                        (rounding_batch, 1.7),
                                        (rounding_batch_counted, 1.7),
                                        (sigma_delta_stream, 0.7)],
                         ids=["dense_batch", "rounding_batch",
                              "rounding_batch-activity", "sigma_delta_stream"])
def test_batch_pass_peak(net_and_frames, run, bound):
    # out of place, with a bias sum and a ReLU copy per layer and two
    # frame-sized rounding temporaries, they read 1.34 and 3.00; an
    # activity's row sums of an |s| copy read 2.52; with the previous
    # layer's s held while the next was formed, the rounding pass read 2.19
    # (2.22 with an activity) and the stream 0.995; the stream read 0.812
    # with an s-sized array for the row L1s, 0.764 with a 64-row one, and
    # 0.642 with each hidden layer's output scaled in place into its s
    net, X = net_and_frames
    assert peak_frames(lambda: run(net, X)) < bound

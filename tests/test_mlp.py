import numpy as np
import pytest

from sigmadelta.mlp import accuracy, train_mlp


def make_blobs(rng, n=600, width=20, classes=3, spread=0.1):
    labels = rng.integers(0, classes, n)
    centers = rng.uniform(-1, 1, (classes, width))
    frames = centers[labels] + rng.normal(0, spread, (n, width))
    return frames, labels


def test_trains_to_target_accuracy():
    rng = np.random.default_rng(0)
    X, y = make_blobs(rng)
    net, history = train_mlp(X, y, dims=(20, 16, 3), rng=rng, epochs=40,
                             batch_size=32, target_acc=0.95)
    assert history[-1]["val_acc"] >= 0.95
    assert accuracy(net, X, y) >= 0.95
    assert net.layers[-1].activation == "softmax"


def test_early_stopping_cuts_epochs():
    rng = np.random.default_rng(1)
    X, y = make_blobs(rng, spread=0.05)  # trivially separable
    _, history = train_mlp(X, y, dims=(20, 8, 3), rng=rng, epochs=50,
                           target_acc=0.9)
    assert len(history) < 50


def test_epochs_must_be_positive():
    X, y = make_blobs(np.random.default_rng(3), n=50)
    with pytest.raises(ValueError, match="epochs"):
        train_mlp(X, y, dims=(20, 8, 3), rng=np.random.default_rng(3),
                  epochs=0)


def test_deterministic_under_seed():
    rng_data = np.random.default_rng(2)
    X, y = make_blobs(rng_data, n=200)
    net_a, _ = train_mlp(X, y, dims=(20, 8, 3),
                         rng=np.random.default_rng(7), epochs=3, target_acc=2.0)
    net_b, _ = train_mlp(X, y, dims=(20, 8, 3),
                         rng=np.random.default_rng(7), epochs=3, target_acc=2.0)
    for la, lb in zip(net_a.layers, net_b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)

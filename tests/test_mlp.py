import numpy as np
import pytest

import sigmadelta.mlp as mlp
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
                             target_acc=0.95)
    assert history[-1]["val_acc"] >= 0.95
    assert accuracy(net, X, y) >= 0.95
    assert net.layers[-1].activation == "softmax"


def test_early_stopping_cuts_epochs():
    rng = np.random.default_rng(1)
    X, y = make_blobs(rng, spread=0.05)  # trivially separable
    _, history = train_mlp(X, y, dims=(20, 8, 3), rng=rng, epochs=50,
                           target_acc=0.9)
    assert len(history) < 50


@pytest.mark.parametrize("epochs", [0, 1.5, np.inf])
def test_epochs_must_be_a_positive_integer(epochs, no_training):
    X, y = make_blobs(np.random.default_rng(3), n=50)
    with pytest.raises(ValueError, match="epochs"):
        train_mlp(X, y, dims=(20, 8, 3), rng=np.random.default_rng(3),
                  epochs=epochs)


@pytest.fixture
def no_training(monkeypatch):
    """Fails the test if train_mlp runs a single training pass."""
    def no_pass(*args, **kwargs):
        raise AssertionError("a training pass ran")

    monkeypatch.setattr(mlp, "_passes", no_pass)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_image_refused_before_any_epoch(bad, no_training):
    X, y = make_blobs(np.random.default_rng(4), n=50)
    X[17, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        train_mlp(X, y, dims=(20, 8, 3), rng=np.random.default_rng(4),
                  epochs=2)


@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_images_refused_before_any_draw(n, no_training):
    # one image is held out for validation, so at least one must be left
    # to train on; the trainer divided by an empty training set before
    X, y = make_blobs(np.random.default_rng(6), n=n)
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="at least 2 images"):
        train_mlp(X, y, dims=(20, 8, 3), rng=rng, epochs=2)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("dims", [(20,), (20, 0, 3), (20, 8, 0), (),
                                  (20, 2.5, 3)],
                         ids=["one-width", "zero-hidden", "zero-classes",
                              "none", "fractional-hidden"])
def test_unbuildable_dims_refused_before_any_draw(dims, no_training):
    # one width left no layer to index; a zero width divided by zero when
    # the next layer's weights were drawn; a fractional one raised TypeError
    # from the draw of its weights
    X, y = make_blobs(np.random.default_rng(6), n=50)
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="at least two widths"):
        train_mlp(X, y, dims=dims, rng=rng, epochs=2)
    assert rng.bit_generator.state == state


def test_two_images_train():
    X, y = make_blobs(np.random.default_rng(6), n=2)
    _, history = train_mlp(X, y, dims=(20, 8, 3),
                           rng=np.random.default_rng(6), epochs=2,
                           target_acc=2.0)
    assert len(history) == 2 and np.isfinite(history[-1]["loss"])


@pytest.mark.parametrize("edit", ["negative", "past-the-last-class",
                                  "short", "long", "float", "2-d"])
def test_labels_refused_before_any_epoch(edit, no_training):
    X, y = make_blobs(np.random.default_rng(5), n=50)
    y = {"negative": np.where(np.arange(50) == 20, -1, y),
         "past-the-last-class": np.where(np.arange(50) == 20, 3, y),
         "short": y[:-1],
         "long": np.append(y, 0),
         "float": y.astype(np.float64),
         "2-d": y[:, None]}[edit]
    with pytest.raises(ValueError, match="labels"):
        train_mlp(X, y, dims=(20, 8, 3), rng=np.random.default_rng(5),
                  epochs=2)


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

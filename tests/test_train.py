import math

import numpy as np
import pytest

from hingenet import data, losses, net, train
from hingenet.linalg import NumericError
from hingenet.net import BlockDef, build_network


def tiny_setup(seed=3, n_train=48, n_test=96):
    arch = net.ArchSpec(1, 8, 8, 4, 6, (BlockDef("plain", 6), BlockDef("plain", 6)))
    ds = data.SyntheticDataset(seed=seed, classes=4, n_train=n_train, n_test=n_test,
                               channels=1, height=8, width=8)
    return build_network(arch, seed=seed), ds


def test_zero_epochs_leaves_model_unchanged():
    model, ds = tiny_setup()
    before = {k: v.copy() for k, v in model.state_tensors().items()}
    history = train.train(model, ds, epochs=0, lr=0.1, seed=0)
    assert history == []
    for key, val in model.state_tensors().items():
        assert np.array_equal(before[key], val)


def test_overfits_16_sample_subset():
    model, ds = tiny_setup()
    ds.x_train, ds.y_train = ds.x_train[:16], ds.y_train[:16]
    train.train(model, ds, epochs=200, lr=0.02, batch_size=16, seed=5)
    acc, _ = train.evaluate(model, ds.x_train, ds.y_train)
    assert acc == 1.0


def test_train_determinism_bitwise():
    m1, ds = tiny_setup()
    m2, _ = tiny_setup()
    train.train(m1, ds, epochs=3, lr=0.03, batch_size=16, seed=9)
    train.train(m2, ds, epochs=3, lr=0.03, batch_size=16, seed=9)
    t1, t2 = m1.state_tensors(), m2.state_tensors()
    for key in t1:
        assert np.array_equal(t1[key], t2[key]), key


def test_random_weights_near_chance():
    model, ds = tiny_setup(seed=17, n_test=400)
    acc, _ = train.evaluate(model, ds.x_test, ds.y_test)
    assert abs(acc - 0.25) <= 0.05


def test_evaluate_deterministic():
    model, ds = tiny_setup()
    a1 = train.evaluate(model, ds.x_test, ds.y_test)
    a2 = train.evaluate(model, ds.x_test, ds.y_test)
    assert a1 == a2


def test_lr_drop_applied():
    model, ds = tiny_setup()
    hist = train.train(model, ds, epochs=4, lr=0.1, batch_size=16,
                       lr_drops=(2,), lr_drop_factor=0.1, seed=1)
    assert hist[1]["lr"] == pytest.approx(0.1)
    assert hist[2]["lr"] == pytest.approx(0.01)


def test_divergence_aborts():
    model, ds = tiny_setup()
    with pytest.raises(NumericError):
        train.train(model, ds, epochs=30, lr=1e4, batch_size=16, seed=2)


def test_nan_gradient_stops_before_any_parameter_moves(monkeypatch):
    model, ds = tiny_setup()
    before = {k: v.copy() for k, v in model.state_tensors().items()}
    backward = model.backward

    def nan_head_bias_grad(dlogits):
        backward(dlogits)
        model.head.grad_b[0] = np.nan   # the last parameter the optimiser visits
    monkeypatch.setattr(model, "backward", nan_head_bias_grad)
    with pytest.raises(NumericError, match="head/b"):
        train.train(model, ds, epochs=1, lr=0.1, batch_size=16, seed=0)
    for key, val in model.state_tensors().items():
        assert np.array_equal(before[key], val), key


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_evaluate_non_finite_weight_raises(value):
    model, ds = tiny_setup()
    model.stem.w[0, 0] = value
    with pytest.raises(NumericError):
        train.evaluate(model, ds.x_test, ds.y_test)


def test_weight_decay_applies_to_weights_only():
    model, ds = tiny_setup()
    model.head.b[:] = 5.0
    opt = train.SgdMomentum(model, lr=0.1, momentum=0.0, weight_decay=0.5)
    model.zero_grads()
    opt.step()  # zero grads: only decay acts
    assert np.all(model.head.b == 5.0)          # bias untouched
    assert np.all(model.head.grad_w == 0.0)


def _teacher_run(monkeypatch, epochs):
    """A distilled run on 50 samples in batches of 16 whose teacher counts
    its forward calls and whose batches and distillation targets are
    recorded."""
    model, ds = tiny_setup(n_train=50)
    teacher, _ = tiny_setup(seed=8)
    calls, batch_idx, targets = [], [], []
    forward, batches, distill_loss = teacher.forward, train.batches, losses.distill_loss

    def counted_forward(x, cache=True):
        assert not cache  # the frozen teacher runs the inference forward
        calls.append(len(x))
        return forward(x, cache=cache)

    def recorded_batches(*args):
        for idx in batches(*args):
            batch_idx.append(idx)
            yield idx

    def recorded_loss(logits, teacher_logits, labels, cfg):
        targets.append(teacher_logits.copy())
        return distill_loss(logits, teacher_logits, labels, cfg)
    monkeypatch.setattr(teacher, "forward", counted_forward)
    monkeypatch.setattr(train, "batches", recorded_batches)
    monkeypatch.setattr(train.losses, "distill_loss", recorded_loss)
    train.train(model, ds, epochs=epochs, lr=0.03, batch_size=16, seed=4,
                teacher=teacher, distill_cfg=losses.DistillConfig())
    return ds, forward, calls, batch_idx, targets


@pytest.mark.parametrize("epochs,slices", [(0, []), (1, [16, 16, 16, 2]),
                                           (3, [16, 16, 16, 2])])
def test_teacher_forward_once_per_run(monkeypatch, epochs, slices):
    """ceil(n_train / batch_size) teacher calls, whatever the epoch count."""
    _, _, calls, _, _ = _teacher_run(monkeypatch, epochs)
    assert calls == slices


def test_teacher_logits_equal_per_batch_forward(monkeypatch):
    """Logits computed once, in index-order slices, are bit-identical to
    the teacher's forward on each shuffled batch."""
    ds, teacher_forward, _, batch_idx, targets = _teacher_run(monkeypatch, epochs=3)
    assert len(batch_idx) == len(targets) == 3 * math.ceil(50 / 16)
    for idx, target in zip(batch_idx, targets):
        assert np.array_equal(target, teacher_forward(ds.x_train[idx]))

"""backward() consumes the tape: same gradients as the retaining sweep, less memory held.

The oracle is tests/reference_autodiff.backward, the sweep that keeps every
node's gradient, closure and parents until it returns.
"""

import tracemalloc

import numpy as np
import pytest
import reference_autodiff as ref
from test_autodiff_reference import loss_items

import latticepath.autodiff as ad
from latticepath import cli
from latticepath.autodiff import Tensor
from latticepath.model import (
    LossConfig,
    ModelConfig,
    Optimizer,
    OptimizerConfig,
    PathModel,
    composite_loss,
    fit,
    make_loss_batch,
    supervision_rows,
)

BATCHES = ("desk_0.1", "envelope_0.05")


def model_and_batch(name, num_layers=2):
    items, _ = loss_items(name)
    cfg = ModelConfig(embed_dim=16, num_layers=num_layers, num_heads=4, max_seq_len=32)
    batch = make_loss_batch(items, cfg)
    assert (batch.lengths < batch.lengths.max()).any()  # the batch has padding
    return PathModel(cfg, seed=7), batch


def training_loss(model, batch):
    model.zero_grad()
    logits = model.forward_batch(batch.points, batch.ctx_mat, lengths=batch.lengths)
    return composite_loss(logits, batch, LossConfig())[0]


def graph(root):
    """Every tensor reachable from root through _parents."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("name", BATCHES)
def test_parameter_gradients_match_the_retaining_sweep_byte_for_byte(name):
    model, batch = model_and_batch(name)
    grads = []
    for sweep in (ref.backward, Tensor.backward):
        sweep(training_loss(model, batch))
        grads.append({n: p.grad.copy() for n, p in model.parameters()})
    want, got = grads
    assert got.keys() == want.keys()
    for n in want:
        assert got[n].shape == want[n].shape and got[n].tobytes() == want[n].tobytes(), n


@pytest.mark.parametrize("name", BATCHES)
def test_backward_releases_op_outputs_and_leaves_keep_their_gradients(name):
    model, batch = model_and_batch(name)
    total = training_loss(model, batch)
    nodes = graph(total)
    ops = [n for n in nodes if n._parents]
    leaves = [n for n in nodes if not n._parents and n.requires_grad]
    assert len(ops) > 100 and {id(p) for _, p in model.parameters()} <= {id(n) for n in leaves}
    total.backward()
    for n in ops:
        assert n.grad is None and n._backward is ad._consumed and n._parents == ()
    for n in leaves:
        assert n.grad is not None and n.grad.shape == n.shape


def test_a_second_backward_raises():
    x = Tensor(np.arange(4.0), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * np.arange(4.0))
    with pytest.raises(ValueError, match="^backward\\(\\) already ran through this tensor; rebuild the graph$"):
        loss.backward()


def test_a_loss_over_a_consumed_subgraph_raises_and_a_rebuilt_one_does_not():
    x = Tensor(np.arange(4.0), requires_grad=True)
    h = (x * 2.0).exp()
    h.sum().backward()
    with pytest.raises(ValueError, match="already ran through this tensor"):
        (h * 3.0).sum().backward()
    x.zero_grad()
    ((x * 2.0).exp() * 3.0).sum().backward()
    np.testing.assert_allclose(x.grad, 6.0 * np.exp(2.0 * np.arange(4.0)))


def backward_peak(sweep, model, batch):
    """Peak bytes that numpy and Python allocate during the sweep, over the graph it starts from."""
    total = training_loss(model, batch)
    tracemalloc.start()
    try:
        sweep(total)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_backward_peaks_below_the_retaining_sweep():
    model, batch = model_and_batch("envelope_0.05")
    retained = backward_peak(ref.backward, model, batch)
    consumed = backward_peak(Tensor.backward, model, batch)
    assert consumed < 0.5 * retained, (consumed, retained)


def test_gelu_tape_holds_only_its_input_and_tanh():
    x = Tensor(np.random.default_rng(0).normal(size=(5, 8)), requires_grad=True)
    out = x.gelu()
    arrays = [c.cell_contents for c in out._backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    assert len(arrays) == 2 and any(a is x.data for a in arrays)


class _Mallopt:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_allocator_policy_is_set_through_mallopt_and_skipped_without_it():
    libc = _Mallopt()
    assert ad._keep_freed_pages(libc) is True
    assert libc.calls == [(-3, 32 << 20), (-1, 256 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert ad._keep_freed_pages(object()) is False


def test_fit_on_prepared_rows_matches_fit_on_items():
    items, _ = loss_items("desk_0.1")
    cfg = ModelConfig(embed_dim=16, num_layers=1, num_heads=4, max_seq_len=32)
    runs = []
    for train_items in (items, supervision_rows(items, cfg)):
        model = PathModel(cfg, seed=3)
        history = fit(model, train_items, LossConfig(), Optimizer(OptimizerConfig(kind="adam", lr=3e-3)),
                      epochs=2, batch_size=16, seed=5)
        runs.append((history, [p.data.tobytes() for _, p in model.parameters()]))
    assert runs[0] == runs[1]


def test_the_parser_is_built_once_and_keeps_no_state_between_parses():
    assert cli.build_parser() is cli.build_parser()
    first = cli.build_parser().parse_args(["train", "--out", "a", "--epochs", "3", "--lr", "0.5"])
    second = cli.build_parser().parse_args(["train", "--out", "b"])
    assert (first.epochs, getattr(first, "optimizer.lr")) == (3, 0.5)
    assert (second.epochs, getattr(second, "optimizer.lr"), second.out) == (None, None, "b")

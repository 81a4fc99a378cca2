"""What a training step holds, node by node (tests/tape_memory.py's probe)."""

import numpy as np
import pytest
import reference_autodiff as ref
from tape_memory import graph, op_name, probe
from test_embedding import BATCHES, D, model_and_batch

from latticepath.autodiff import Tensor
from latticepath.model import LossConfig, composite_loss

SLACK = 4096  # bytes of array headers and Python scalars a node's backward may hold besides its arrays


@pytest.mark.parametrize("name", BATCHES)
def test_gelu_backward_allocates_at_most_three_activation_sized_arrays(name):
    model, batch = model_and_batch(name)
    step = probe(model, batch)
    gelus = [n for n in step.nodes if n.op == "Tensor.gelu"]
    assert len(gelus) == model.cfg.num_layers
    for n in gelus:
        assert n.shape == (batch.lengths.sum(), 4 * D)
        assert n.above <= 3 * 8 * np.prod(n.shape) + SLACK, (n.above, n.shape)


def embedding_node(model, batch):
    logits = model.forward_batch(batch.points, batch.ctx_mat, lengths=batch.lengths)
    (node,) = [n for n in graph(logits) if n._parents and op_name(n._backward) == "embed"]
    return node


def test_the_embedding_node_keeps_only_its_index_arrays_and_flag_column():
    model, batch = model_and_batch("envelope_0.05")
    node = embedding_node(model, batch)
    n = batch.lengths.sum()
    P = model.params
    assert node._parents == (P["sign_x"], P["sign_y"], P["sign_z"], node._parents[3], P["seq"])
    assert node._parents[3].shape == (len(batch.lengths), D)  # the task projection of each record
    held, tensors, stack = [], [], [node._backward]
    while stack:
        for cell in stack.pop().__closure__ or ():
            c = cell.cell_contents
            if isinstance(c, Tensor) or (isinstance(c, tuple) and all(isinstance(t, Tensor) for t in c)):
                tensors.extend(c if isinstance(c, tuple) else (c,))
            elif callable(c) and getattr(c, "__closure__", None):
                stack.append(c)
            elif isinstance(c, np.ndarray):
                held.append(c)
    assert {id(t) for t in tensors} == {id(t) for t in node._parents}
    floats = [a for a in held if a.dtype.kind == "f"]
    assert all(a.dtype.kind == "i" for a in held if a.dtype.kind != "f")
    assert len(floats) == 1 and floats[0].shape == (n, 1) and floats[0].base is None
    assert set(np.unique(floats[0])) <= {0.0, 1.0}
    assert sum(a.nbytes for a in held) <= 8 * 6 * n  # three sign columns, the flag, the record and position


@pytest.mark.parametrize("name", BATCHES)
def test_the_tape_holds_nine_fewer_embedding_arrays_than_the_composition(name):
    model, batch = model_and_batch(name)
    tape = probe(model, batch).tape
    with ref.reference_embedding():
        composed = probe(model, batch).tape
    assert composed - tape >= 9 * 8 * batch.lengths.sum() * D, (composed, tape)


def test_the_probe_sees_every_node_and_leaves_the_gradients_unchanged():
    model, batch = model_and_batch("desk_0.1")
    step = probe(model, batch)
    probed = {n: p.grad.copy() for n, p in model.parameters()}
    model.zero_grad()
    total = composite_loss(model.forward_batch(batch.points, batch.ctx_mat, lengths=batch.lengths),
                           batch, LossConfig())[0]
    ops = [n for n in graph(total) if n._parents]
    total.backward()
    assert len(step.nodes) == len(ops) and step.peak >= step.tape > 0
    for n, p in model.parameters():
        assert p.grad.tobytes() == probed[n].tobytes(), n

"""Per-node memory probe of one training step, with tracemalloc.

probe(model, batch) runs the training forward and composite loss, then the
backward sweep, under tracemalloc, which counts what numpy and Python
allocate. It reports the bytes held once the loss is built (the tape, with
the logits and the loss) and, for each backward node in sweep order, its op,
its output's shape, the bytes held when it starts and the peak while it runs.
The step's backward peak is the largest node peak.

As a script it prints that sweep for the first shuffled batch of a corpus
file, drawn as `train --seed S --batch-size B` draws it, on a fresh model of
that seed:

    PYTHONPATH=src python tests/tape_memory.py CORPUS [--seed 1] [--batch-size 64]
        [--embed-dim 64] [--num-layers 2] [--num-heads 4] [--max-seq-len 32] [--top 12]
"""

from __future__ import annotations

import argparse
import tracemalloc
from dataclasses import dataclass

import numpy as np

from latticepath.corpus import read_records
from latticepath.model import (
    LossConfig,
    ModelConfig,
    PathModel,
    composite_loss,
    make_loss_batch,
    supervision_rows,
)

MiB = 1 << 20


@dataclass(frozen=True)
class NodePeak:
    op: str                  # the op that made the node: "Tensor.gelu", "embed", "linear", ...
    shape: tuple[int, ...]   # the node's output shape
    start: int               # bytes held when its backward starts
    peak: int                # peak bytes while it runs

    @property
    def above(self) -> int:
        """Bytes the node's backward allocates at its peak, over what it started with."""
        return self.peak - self.start


@dataclass(frozen=True)
class StepMemory:
    tape: int                # bytes held after the forward and the loss
    nodes: list[NodePeak]    # in sweep order

    @property
    def peak(self) -> int:
        return max(n.peak for n in self.nodes)


def graph(root) -> list:
    """Every tensor reachable from root through _parents."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def op_name(fn) -> str:
    """The op a backward closure belongs to: its qualified name up to `.<locals>`."""
    return fn.__qualname__.split(".<locals>")[0]


def _traced(fn, op: str, shape: tuple[int, ...], out: list[NodePeak]):
    def run(g):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(g)
        out.append(NodePeak(op, shape, start, tracemalloc.get_traced_memory()[1]))
    return run


def probe(model: PathModel, batch, loss_cfg: LossConfig | None = None) -> StepMemory:
    """The tape and per-node backward peaks of one training step on batch; the optimizer does not step."""
    model.zero_grad()
    nodes: list[NodePeak] = []
    tracemalloc.start()
    try:
        logits = model.forward_batch(batch.points, batch.ctx_mat, lengths=batch.lengths)
        total = composite_loss(logits, batch, loss_cfg or LossConfig())[0]
        tape = tracemalloc.get_traced_memory()[0]
        for node in graph(total):
            if node._parents:
                node._backward = _traced(node._backward, op_name(node._backward), node.shape, nodes)
        total.backward()
    finally:
        tracemalloc.stop()
    return StepMemory(tape, nodes)


def first_batch(records, cfg: ModelConfig, seed: int, batch_size: int):
    """The first batch that fit(seed=seed, batch_size=batch_size) trains on."""
    rows = supervision_rows([(r.trajectory, r.context, r.workspace) for r in records], cfg)
    order = np.random.default_rng(seed).permutation(len(rows))
    return make_loss_batch([rows[i] for i in order[:batch_size]], cfg)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("corpus")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--batch-size", type=int, default=64)
    ap.add_argument("--embed-dim", type=int, default=64)
    ap.add_argument("--num-layers", type=int, default=2)
    ap.add_argument("--num-heads", type=int, default=4)
    ap.add_argument("--max-seq-len", type=int, default=32)
    ap.add_argument("--top", type=int, default=12, help="how many of the largest node peaks to list")
    args = ap.parse_args(argv)
    records = read_records(args.corpus)
    cfg = ModelConfig(embed_dim=args.embed_dim, num_layers=args.num_layers, num_heads=args.num_heads,
                      max_seq_len=args.max_seq_len,
                      task_feature_width=len(records[0].context.task_feature_vector))
    batch = first_batch(records, cfg, args.seed, args.batch_size)
    step = probe(PathModel(cfg, seed=args.seed), batch)
    print(f"batch: B = {len(batch.lengths)}, N = {int(batch.lengths.sum())}, T = {batch.points.shape[1]}")
    print(f"tape after forward and loss: {step.tape / MiB:.2f} MiB")
    print(f"backward peak: {step.peak / MiB:.2f} MiB over {len(step.nodes)} nodes")
    print(f"{'sweep #':>7}  {'op':<24} {'shape':<16} {'start MiB':>10} {'peak MiB':>9} {'above MiB':>10}")
    for i, n in sorted(enumerate(step.nodes), key=lambda e: -e[1].peak)[:args.top]:
        mib = (f"{v / MiB:>{w}.2f}" for v, w in ((n.start, 10), (n.peak, 9), (n.above, 10)))
        print(f"{i:>7}  {n.op:<24} {str(n.shape):<16}", *mib)


if __name__ == "__main__":
    main()

"""
Deterministic corpus generation and the JSONL round trip
========================================================
"""

import collections
import os
import tempfile

from latticepath.corpus import (
    GenerationConfig,
    GenerationCounters,
    generate_corpus,
    read_records,
    write_records,
)
from latticepath.lattice import default_workspace, desk_workspace

cfg = GenerationConfig(
    workspace=desk_workspace(),
    count=500,
    obstacle_density=0.05,
    train_fraction=0.8,
)

records = generate_corpus(cfg, seed=42)
print("records:", len(records))

split = collections.Counter(r.split_tag for r in records)
print("split:", dict(split))  # exactly floor(0.8 * 500) in train

lengths = [len(r.trajectory) for r in records]
print("trajectory lengths: min=%d mean=%.2f max=%d" % (
    min(lengths), sum(lengths) / len(lengths), max(lengths)))

chains = collections.Counter(
    "->".join(n.kind for n in r.trajectory.task.nodes) for r in records
)
print("task chains:", dict(chains))

# every record carries its own workspace and a context whose target is the endpoint
r0 = records[0]
print("first record: nodes=%d seed=%d target=%s hint=%d" % (
    len(r0.trajectory.task.nodes), r0.trajectory.seed,
    r0.context.target.as_tuple(), r0.context.sequence_length_hint))

# byte-stable writes: same records, same file bytes
with tempfile.TemporaryDirectory() as d:
    p1, p2 = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
    write_records(p1, records)
    write_records(p2, records)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()
    back = read_records(p1)
    assert back == records
    print("JSONL round trip OK,", len(back), "records back")

# the same seed regenerates the identical corpus
again = generate_corpus(cfg, seed=42)
assert again == records
print("regeneration with seed 42 is identical")

# full-envelope records (45x45x35 cells) are practical too; the counters show
# how many attempts were rejected on start-goal distance before any search
envelope = GenerationConfig(workspace=default_workspace(), count=5, obstacle_density=0.05)
counters = GenerationCounters()
big = generate_corpus(envelope, seed=0, counters=counters)
print("envelope records: %d, lengths %s" % (len(big), [len(r.trajectory) for r in big]))
print("envelope counters:", counters)

"""
The full CLI pipeline, end to end
=================================

Drives gen -> train -> decode -> eval -> report through the console
entry point. Everything lands under one temporary directory, removed at
the end; every stage writes a manifest.json recording the exact resolved
config.
"""

import json
import os
import tempfile

from latticepath.cli import main

with tempfile.TemporaryDirectory(prefix="latticepath_demo_") as root:
    corpus = os.path.join(root, "corpus")
    model = os.path.join(root, "model")
    decoded = os.path.join(root, "decoded")
    evald = os.path.join(root, "eval")

    steps = [
        ["gen", "--out", corpus, "--seed", "0", "--count", "200"],
        ["train", "--corpus", os.path.join(corpus, "corpus_train.jsonl"),
         "--out", model, "--seed", "0", "--epochs", "4", "--batch-size", "32",
         "--embed-dim", "32", "--num-layers", "1", "--num-heads", "2",
         "--max-seq-len", "32", "--lr", "0.003", "--optimizer", "adam"],
        ["decode", "--checkpoint", os.path.join(model, "model.npz"),
         "--records", os.path.join(corpus, "corpus_validation.jsonl"),
         "--out", decoded, "--seed", "0"],
        ["eval", "--pred", os.path.join(decoded, "predictions.jsonl"),
         "--gold", os.path.join(corpus, "corpus_validation.jsonl"),
         "--out", evald],
    ]

    for argv in steps:
        print("$ latticepath " + " ".join(argv))
        rc = main(argv)
        assert rc == 0, rc

    manifest = json.load(open(os.path.join(model, "manifest.json")))
    print("\ntrain manifest outputs:", manifest["outputs"])
    print("resolved optimizer:", manifest["config"]["optimizer"])

    report = json.load(open(os.path.join(evald, "report.json")))
    print("\nheld-out metrics:")
    for key in ("stepwise_accuracy", "precision", "recall", "f1", "valid_path_percent"):
        print("  %-20s %.4f" % (key, report[key]))

    print("\n$ latticepath report " + os.path.join(evald, "report.json"))
    main(["report", os.path.join(evald, "report.json")])
    print("\nartifacts:", sorted(os.listdir(root)))

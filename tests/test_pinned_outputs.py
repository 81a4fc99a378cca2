"""Fixed-seed CLI outputs pinned by sha256, so any drift in the workspace codec or the BFS shows.

The digests were computed from the code before workspaces stored their
obstacles as cell ranks; corpus, manifest and outcome bytes must not move.
"""

import hashlib
import json
import random

import pytest

from latticepath.cli import main

ENVELOPE_BOX = (-22, 22, -22, 22, 0, 34)

GEN_DIGESTS = {
    "desk": {
        "corpus_train.jsonl": "cffbf0b02d1cee54d6a6dfbcfd6c820fc97cacaa6652500ec6260e87a0ff4062",
        "corpus_validation.jsonl": "35c19857308a322c536f9ed8f0abf9486895312e0bba1483fd2b997507cca8f2",
        "manifest.json": "7192e91c515fc52d171fe399f2f63a7b25e645225f7a4c8f969b4ff08d22d6ac",
    },
    "envelope": {
        "corpus_train.jsonl": "7d2aeed88b3ac6f780cc0dfa4667537032ddb1bd2315fb156f051d18950e443d",
        "corpus_validation.jsonl": "d87c0de5c64aea4e17802a429ff007a3b52991ece00e81b4f9752df3e25a4c18",
        "manifest.json": "d7cce10e43f579a91e98bec4ed70f8af351f3dec0874c128c38a6a74f0983018",
    },
}

OUTCOMES_DIGEST = "416aff67ca7a5e2f8bd7304a8a5c36e54c09b8b1a51a19ce498cc3699ad7c30c"

GEN_ARGS = {
    "desk": ["--count", "300", "--obstacle-density", "0.1"],
    "envelope": ["--count", "2", "--box", *map(str, ENVELOPE_BOX), "--obstacle-density", "0.05",
                 "--max-path-length", "32"],
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GEN_ARGS))
def test_gen_outputs_match_pinned_digests(tmp_path, name):
    assert main(["gen", "--out", str(tmp_path), "--seed", "0", *GEN_ARGS[name]]) == 0
    assert {f: sha256(tmp_path / f) for f in GEN_DIGESTS[name]} == GEN_DIGESTS[name]


def envelope_scenes(n: int) -> list[dict]:
    """Seeded full-envelope scenes: 5% static obstacles, a straight route kept clear, a slip and a pop-up on it."""
    x0, x1, y0, y1, z0, z1 = ENVELOPE_BOX
    cells = [(x, y, z) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1) for z in range(z0, z1 + 1)]
    scenes = []
    for i in range(n):
        rng = random.Random(f"pinned-envelope:{i}")
        obstacles = set(rng.sample(cells, round(0.05 * len(cells))))
        ee = (rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(12, 22))
        target = (ee[0] + 7, ee[1] - 6, ee[2] + 4)
        drop = (target[0] - 5, target[1] + 4, target[2] - 6)
        slip = (target[0] + 1, target[1] + 1, target[2])
        route = [ee]
        for axis in range(3):
            while route[-1][axis] != target[axis]:
                nxt = list(route[-1])
                nxt[axis] += 1 if target[axis] > nxt[axis] else -1
                route.append(tuple(nxt))
        obstacles.difference_update(route, (drop, slip))
        scenes.append({
            "schema_version": 1,
            "name": f"envelope_{i}",
            "scene": {
                "workspace": {"x_min": x0, "x_max": x1, "y_min": y0, "y_max": y1, "z_min": z0, "z_max": z1,
                              "resolution_mm": 20.0, "obstacles": [list(c) for c in sorted(obstacles)]},
                "end_effector": list(ee),
                "target": list(target),
                "container": [list(drop)],
                "dynamic_obstacles": [[list(route[3]), 1]],
            },
            "events": [{"kind": "slip", "step": 5, "cell": list(slip), "mode": None}],
            "tags": ["slip", "detour"],
            "expected": None,
        })
    return scenes


def test_envelope_oracle_outcomes_match_pinned_digest(tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    scenes.write_text("".join(json.dumps(s, sort_keys=True) + "\n" for s in envelope_scenes(3)))
    assert main(["sim", "--scenarios", str(scenes), "--out", str(tmp_path / "sim"), "--seed", "0"]) == 0
    assert sha256(tmp_path / "sim" / "outcomes.jsonl") == OUTCOMES_DIGEST

"""Names the benchmark harness wraps or calls must stay resolvable.

perfbench/tracer.py installs its span wrappers at the module global or class
attribute each caller looks a function up by (INSTALL_POINTS), and
perfbench/checks.py reads outputs through a few package functions. Removing or
renaming one of them breaks the traced benchmark run; these tests catch it in
the unit suite instead.
"""

import importlib.util
from pathlib import Path

import pytest

import latticepath
import latticepath.cli  # noqa: F401  (imports every layer module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

CHECKED_NAMES = (
    "cli.main",
    "corpus.read_records",
    "corpus.Trajectory",
    "decoder.validate_path",
    "lattice.LatticeCoord",
    "twinsim.read_scenarios",
)


def _resolve(dotted: str):
    obj = latticepath
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _install_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # stdlib-only module: definitions, no side effects
    return tracer.INSTALL_POINTS


def test_every_tracer_install_point_resolves():
    points = _install_points()
    assert points
    missing = []
    for owner_path, attr, *_ in points:
        try:
            owner = _resolve(owner_path)
        except AttributeError:
            missing.append(f"{owner_path} (owner)")
            continue
        # class attributes are wrapped where they are defined, as the tracer does
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if not found or not callable(getattr(owner, attr)):
            missing.append(f"{owner_path}.{attr}")
    assert not missing, f"benchmark install points no longer resolve: {missing}"


@pytest.mark.parametrize("dotted", CHECKED_NAMES)
def test_names_read_by_benchmark_checks_resolve(dotted):
    assert callable(_resolve(dotted))

"""Constraint-masked trajectory generation on a 3D lattice.

Paths live on an integer grid with six canonical unit moves; a small
transformer predicts the next move under a legality mask so decoded paths
satisfy bounds and adjacency by construction. The package also ships the
BFS oracle planner used to generate training corpora, evaluation metrics
with an error taxonomy, and a scripted digital-twin episode simulator.
"""

from .corpus import (
    CorpusRecord,
    GenerationConfig,
    Trajectory,
    UnreachableGoalError,
    generate_corpus,
    oracle_path,
    read_records,
    validate_path,
    write_records,
)
from .decoder import DecodeConfig, DecodedPath, decode
from .evaluator import EvalReport, evaluate, evaluate_records
from .lattice import LatticeCoord, Workspace, default_workspace, desk_workspace
from .model import LossConfig, ModelConfig, Optimizer, OptimizerConfig, PathModel
from .taskgrid import TaskContext, TaskGraph, build_context
from .twinsim import Scene, default_scenario_pack, run_episode

__version__ = "0.1.0"

__all__ = [
    "CorpusRecord",
    "DecodeConfig",
    "DecodedPath",
    "EvalReport",
    "GenerationConfig",
    "LatticeCoord",
    "LossConfig",
    "ModelConfig",
    "Optimizer",
    "OptimizerConfig",
    "PathModel",
    "Scene",
    "TaskContext",
    "TaskGraph",
    "Trajectory",
    "UnreachableGoalError",
    "Workspace",
    "build_context",
    "decode",
    "default_scenario_pack",
    "default_workspace",
    "desk_workspace",
    "evaluate",
    "evaluate_records",
    "generate_corpus",
    "oracle_path",
    "read_records",
    "run_episode",
    "validate_path",
    "write_records",
    "__version__",
]

"""Integer 3D lattice geometry: cells, bounded workspaces, Manhattan adjacency.

Everything downstream (corpus synthesis, model masks, decoding, the twin
simulator) shares the conventions fixed here: unit moves are the six axis
steps in the canonical order +x, -x, +y, -y, +z, -z, and a cell is legal
iff it lies inside the workspace box and is not an obstacle. A workspace's
LegalityGrid is the flat-index form of that rule that the BFS oracle and
every legality mask read; a GridStack stacks a batch's grids into one table
for the decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True, order=True)
class LatticeCoord:
    """A cell index on the integer lattice."""

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        for v in (self.x, self.y, self.z):
            if not isinstance(v, int):
                raise TypeError(f"lattice coordinates must be integers, got {v!r}")

    def offset(self, dx: int, dy: int, dz: int) -> "LatticeCoord":
        return LatticeCoord(self.x + dx, self.y + dy, self.z + dz)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


# Canonical unit moves. Index 0..5 is the shared move vocabulary used by the
# model head and the decoder; the order is a fixed tie-breaking convention.
MOVES: tuple[tuple[int, int, int], ...] = (
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
)

MOVE_NAMES: tuple[str, ...] = ("+x", "-x", "+y", "-y", "+z", "-z")

# Index of the termination token in the 7-way move vocabulary.
STOP = len(MOVES)

_MOVE_INDEX = {m: i for i, m in enumerate(MOVES)}


def move_index(a: LatticeCoord, b: LatticeCoord) -> int:
    """Canonical move index taking cell a to adjacent cell b."""
    delta = (b.x - a.x, b.y - a.y, b.z - a.z)
    try:
        return _MOVE_INDEX[delta]
    except KeyError:
        raise ValueError(f"{a} -> {b} is not a unit lattice move") from None


def apply_move(p: LatticeCoord, idx: int) -> LatticeCoord:
    """Cell reached from p by canonical move idx (0..5)."""
    dx, dy, dz = MOVES[idx]
    return p.offset(dx, dy, dz)


@dataclass(frozen=True)
class Workspace:
    """Axis-aligned legal region with an obstacle mask and a physical scale."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int
    z_min: int
    z_max: int
    obstacles: frozenset[LatticeCoord] = field(default_factory=frozenset)
    resolution_mm: float = 20.0

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max or self.z_min > self.z_max:
            raise ValueError("workspace bounds must satisfy min <= max on every axis")
        if not (self.resolution_mm > 0):
            raise ValueError("resolution_mm must be positive")
        object.__setattr__(self, "obstacles", frozenset(self.obstacles))
        for c in self.obstacles:
            if not self._in_box(c):
                raise ValueError(f"obstacle {c} lies outside the workspace bounds")

    def _in_box(self, p: LatticeCoord) -> bool:
        return (
            self.x_min <= p.x <= self.x_max
            and self.y_min <= p.y <= self.y_max
            and self.z_min <= p.z <= self.z_max
        )

    @property
    def bounds(self) -> tuple[int, int, int, int, int, int]:
        return (self.x_min, self.x_max, self.y_min, self.y_max, self.z_min, self.z_max)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (
            self.x_max - self.x_min + 1,
            self.y_max - self.y_min + 1,
            self.z_max - self.z_min + 1,
        )

    def volume(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    def cells(self):
        """All in-bounds cells (excluding obstacles), canonical x/y/z order."""
        for x in range(self.x_min, self.x_max + 1):
            for y in range(self.y_min, self.y_max + 1):
                for z in range(self.z_min, self.z_max + 1):
                    c = LatticeCoord(x, y, z)
                    if c not in self.obstacles:
                        yield c

    @cached_property
    def grid(self) -> "LegalityGrid":
        """The legality grid of this workspace, built on first use."""
        return LegalityGrid(self)

    def with_obstacles(self, obstacles) -> "Workspace":
        return Workspace(
            self.x_min, self.x_max, self.y_min, self.y_max, self.z_min, self.z_max,
            obstacles=frozenset(obstacles), resolution_mm=self.resolution_mm,
        )

    def to_dict(self) -> dict:
        return {
            "x_min": self.x_min, "x_max": self.x_max,
            "y_min": self.y_min, "y_max": self.y_max,
            "z_min": self.z_min, "z_max": self.z_max,
            "resolution_mm": self.resolution_mm,
            "obstacles": sorted(c.as_tuple() for c in self.obstacles),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Workspace":
        return cls(
            int(d["x_min"]), int(d["x_max"]),
            int(d["y_min"]), int(d["y_max"]),
            int(d["z_min"]), int(d["z_max"]),
            obstacles=frozenset(LatticeCoord(*map(int, c)) for c in d.get("obstacles", [])),
            resolution_mm=float(d.get("resolution_mm", 20.0)),
        )


class LegalityGrid:
    """Flat legality table of a workspace box padded by one cell on every side.

    free[i] is 1 on in-box non-obstacle cells and 0 on obstacles and on the
    padding, so from any cell i of the box the canonical move m lands on
    i + strides[m] and is legal iff free at that index; no bounds check is
    needed.
    """

    def __init__(self, w: Workspace):
        nx, ny, nz = w.shape
        sy = nz + 2
        sx = (ny + 2) * sy
        self.origin = (w.x_min - 1, w.y_min - 1, w.z_min - 1)
        self.strides = (sx, -sx, sy, -sy, 1, -1)
        self._axis = (sx, sy)
        free = bytearray(sx * (nx + 2))
        run = b"\x01" * nz
        for x in range(1, nx + 1):
            for y in range(1, ny + 1):
                i = x * sx + y * sy + 1
                free[i : i + nz] = run
        for c in w.obstacles:
            free[self.index(c)] = 0
        self.free = free
        self._free = np.frombuffer(free, dtype=bool)
        self._cell_weights = np.array([sx, sy, 1], dtype=np.int64)
        self._move_strides = np.array(self.strides, dtype=np.int64)

    def index(self, p: LatticeCoord) -> int:
        """Flat index of a cell of the box."""
        ox, oy, oz = self.origin
        sx, sy = self._axis
        return (p.x - ox) * sx + (p.y - oy) * sy + (p.z - oz)

    def coord(self, i: int) -> LatticeCoord:
        """Cell at flat index i; inverse of index."""
        ox, oy, oz = self.origin
        sx, sy = self._axis
        x, r = divmod(i, sx)
        y, z = divmod(r, sy)
        return LatticeCoord(x + ox, y + oy, z + oz)

    def move_mask(self, cells: np.ndarray) -> np.ndarray:
        """Legality (..., 6) of the canonical moves from integer cells (..., 3) of the box."""
        flat = (np.asarray(cells, dtype=np.int64) - self.origin) @ self._cell_weights
        return self._free[flat[..., None] + self._move_strides]


class GridStack:
    """Legality for a batch of rows, each on its own workspace's grid, from one flat table.

    GridStack.of concatenates the grids of the batch's workspaces once (a
    grid shared by several rows is stored once); each row keeps its grid's
    offset into that table and its move strides, so rows on boxes of
    different shapes are masked by one gather. take() selects and reorders
    rows, as KVCache.keep does.
    """

    def __init__(self, free: np.ndarray, base: np.ndarray, move_strides: np.ndarray):
        self.free = free
        self.base = base
        self.move_strides = move_strides

    @classmethod
    def of(cls, workspaces) -> "GridStack":
        """One row per workspace."""
        tables, offsets, size, base, strides = [], {}, 0, [], []
        for w in workspaces:
            g = w.grid
            if id(g) not in offsets:
                offsets[id(g)] = size
                tables.append(g._free)
                size += len(g._free)
            base.append(offsets[id(g)] + g.index(LatticeCoord(0, 0, 0)))
            strides.append(g.strides)
        return cls(np.concatenate(tables) if tables else np.zeros(0, dtype=bool), np.array(base, dtype=np.int64),
                   np.array(strides, dtype=np.int64).reshape(-1, len(MOVES)))

    def take(self, rows: np.ndarray) -> "GridStack":
        return GridStack(self.free, self.base[rows], self.move_strides[rows])

    def move_mask(self, cells: np.ndarray) -> np.ndarray:
        """Legality (rows, 6) of the canonical moves from each row's cell (rows, 3) of its box."""
        flat = self.base + (cells * self.move_strides[:, ::2]).sum(axis=1)  # +x, +y, +z strides weigh x, y, z
        return self.free[flat[:, None] + self.move_strides]


def default_workspace() -> Workspace:
    """Full-envelope workspace: x,y in [-22,22], z in [0,34], 20 mm cells."""
    return Workspace(-22, 22, -22, 22, 0, 34)


def desk_workspace() -> Workspace:
    """Small centered box (7x7x5) used for desk-scale training experiments."""
    return Workspace(-3, 3, -3, 3, 0, 4)


def manhattan(a: LatticeCoord, b: LatticeCoord) -> int:
    """L1 distance between two cells."""
    return abs(a.x - b.x) + abs(a.y - b.y) + abs(a.z - b.z)


def in_bounds(p: LatticeCoord, w: Workspace) -> bool:
    """True iff p lies inside the box and is not an obstacle."""
    return w._in_box(p) and p not in w.obstacles


def neighbors(p: LatticeCoord, w: Workspace) -> list[LatticeCoord]:
    """Legal unit-step successors of p, in canonical move order.

    Raises ValueError if p itself is not a legal cell; neighbor queries are
    only meaningful from inside the workspace.
    """
    if not in_bounds(p, w):
        raise ValueError(f"neighbor query from out-of-bounds cell {p}")
    result = []
    for dx, dy, dz in MOVES:
        u = p.offset(dx, dy, dz)
        if in_bounds(u, w):
            result.append(u)
    return result


def legal_moves(p: LatticeCoord, w: Workspace) -> list[bool]:
    """Boolean legality of each of the six canonical moves from p.

    The cell-by-cell rule; LegalityGrid.move_mask gives the same answer for
    whole arrays of cells of the box.
    """
    return [in_bounds(p.offset(*m), w) for m in MOVES]


def voxelize(point_mm: tuple[float, float, float], w: Workspace) -> LatticeCoord:
    """Map a millimeter point to its cell via floor(coordinate / resolution).

    Exact multiples of the resolution land on the cell whose lower edge they
    touch (plain floor). The result may be out of bounds; callers check.
    """
    vals = []
    for v in point_mm:
        fv = float(v)
        if not math.isfinite(fv):
            raise ValueError(f"cannot voxelize non-finite coordinate {v!r}")
        vals.append(math.floor(fv / w.resolution_mm))
    return LatticeCoord(*vals)


def cell_center_mm(c: LatticeCoord, w: Workspace) -> tuple[float, float, float]:
    """Millimeter center of a cell; voxelize(cell_center_mm(c)) == c."""
    r = w.resolution_mm
    return ((c.x + 0.5) * r, (c.y + 0.5) * r, (c.z + 0.5) * r)

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

import base64
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

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


# The largest magnitude of a workspace bound or a target coordinate. Every
# integer within it is exact in float64, so the sign of a target minus a
# cell, which the model takes in float64, is exact too.
MAX_COORD = 2 ** 53


def check_magnitude(values, name: str) -> None:
    """Raise ValueError naming `name` unless every value lies within -MAX_COORD..MAX_COORD."""
    if any(abs(v) > MAX_COORD for v in values):
        raise ValueError(f"{name} must lie within -2^53..2^53, got {_text(list(values))}")


_NO_RANKS = np.zeros(0, dtype=np.int64)
_NO_RANKS.flags.writeable = False

_BOX_FIELDS = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max", "resolution_mm")


class Workspace:
    """Axis-aligned legal region with an obstacle mask and a physical scale.

    The obstacles are stored as `ranks`: the sorted indices of their cells in
    x/y/z order of the box, the source of the legality grid. The obstacle
    cells as a frozenset of LatticeCoord (`obstacles`) are built only when
    asked for. A workspace is immutable and compares and hashes by value.
    """

    def __init__(self, x_min: int, x_max: int, y_min: int, y_max: int, z_min: int, z_max: int,
                 obstacles=(), resolution_mm: float = 20.0):
        if x_min > x_max or y_min > y_max or z_min > z_max:
            raise ValueError("workspace bounds must satisfy min <= max on every axis")
        check_magnitude((x_min, x_max, y_min, y_max, z_min, z_max), "workspace bounds")
        if not (0 < resolution_mm < math.inf):
            raise ValueError("resolution_mm must be a finite positive number")
        self.__dict__.update(x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max, z_min=z_min, z_max=z_max,
                             resolution_mm=resolution_mm, ranks=_NO_RANKS)
        ranks = []
        for c in obstacles:
            if not self._in_box(c):
                raise ValueError(f"obstacle {c} lies outside the workspace bounds")
            ranks.append(self.rank(c))
        if ranks:
            self.__dict__["ranks"] = _rank_array(np.array(ranks, dtype=np.int64))

    def __setattr__(self, name, value):
        raise AttributeError(f"Workspace is immutable: cannot set {name!r}")

    def _key(self) -> tuple:
        return (self.bounds, self.resolution_mm, self.ranks.tobytes())

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Workspace(bounds={self.bounds}, obstacles={len(self.ranks)} cells, "
                f"resolution_mm={self.resolution_mm})")

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

    def rank(self, p: LatticeCoord) -> int:
        """Index of box cell p in x/y/z order of the box, the order of `ranks`."""
        _, ny, nz = self.shape
        return ((p.x - self.x_min) * ny + (p.y - self.y_min)) * nz + (p.z - self.z_min)

    def _obstacle_cells(self) -> list[tuple[int, int, int]]:
        """Obstacle cells as (x, y, z) tuples in rank order, which is sorted tuple order."""
        ranks = self.ranks.tolist()
        if not ranks:
            return ranks
        _, ny, nz = self.shape
        nyz, x0, y0, z0 = ny * nz, self.x_min, self.y_min, self.z_min
        return [(x0 + r // nyz, y0 + r // nz % ny, z0 + r % nz) for r in ranks]

    @cached_property
    def obstacles(self) -> frozenset[LatticeCoord]:
        """The obstacle cells as coordinates, built on first use; the program reads the ranks instead."""
        return frozenset(LatticeCoord(*c) for c in self._obstacle_cells())

    def cells(self):
        """All in-bounds cells (excluding obstacles), canonical x/y/z order."""
        g = self.grid
        return (g.coord(i) for i in np.flatnonzero(g.free_mask).tolist())

    @cached_property
    def grid(self) -> "LegalityGrid":
        """The legality grid of this workspace, built on first use."""
        return LegalityGrid(self)

    def with_obstacles(self, obstacles) -> "Workspace":
        return Workspace(*self.bounds, obstacles=obstacles, resolution_mm=self.resolution_mm)

    def with_ranks(self, ranks) -> "Workspace":
        """This box with obstacles on the cells of the given ranks (a sequence or array, any order)."""
        r = _rank_array(np.asarray(ranks, dtype=np.int64))
        if len(r) and (r[0] < 0 or r[-1] >= self.volume()):
            raise ValueError("obstacle rank outside the workspace box")
        return self._with_rank_array(r)

    def _with_rank_array(self, ranks: np.ndarray) -> "Workspace":
        """This box with the obstacles of a _rank_array whose ranks lie in the box."""
        w = object.__new__(Workspace)
        w.__dict__.update({k: self.__dict__[k] for k in _BOX_FIELDS}, ranks=ranks)
        return w

    def to_dict(self, packed: bool = False) -> dict:
        """The box, and its obstacles as an `obstacles` list of cells or, if packed, as `obstacle_bits`.

        obstacle_bits is the base64 text of np.packbits over the box's cells
        in rank order: the cell of rank i is bit 7 - i % 8 (most significant
        first) of byte i // 8, set on an obstacle; the pad bits of the last
        byte are zero.
        """
        d = {
            "x_min": self.x_min, "x_max": self.x_max,
            "y_min": self.y_min, "y_max": self.y_max,
            "z_min": self.z_min, "z_max": self.z_max,
            "resolution_mm": self.resolution_mm,
        }
        if packed:
            d["obstacle_bits"] = self._obstacle_bits
        else:
            d["obstacles"] = self._obstacle_cells()
        return d

    @cached_property
    def _obstacle_bits(self) -> str:
        """to_dict's obstacle_bits text, built on first use, so the records that share a workspace pack it once."""
        bits = np.zeros(self.volume(), dtype=bool)
        bits[self.ranks] = True
        return base64.b64encode(np.packbits(bits).tobytes()).decode("ascii")

    @classmethod
    def from_dict(cls, d: dict) -> "Workspace":
        """Inverse of to_dict, packed or not; a malformed entry is a ValueError naming it.

        A workspace carries `obstacles` or `obstacle_bits`, not both; with
        neither it has no obstacles.
        """
        read_object(d, "workspace")
        bounds = (read_int(d[k], f"workspace.{k}") for k in ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max"))
        box = cls(*bounds, resolution_mm=_read_resolution(d.get("resolution_mm", 20.0)))
        if "obstacle_bits" in d:
            if "obstacles" in d:
                raise ValueError("workspace.obstacle_bits and workspace.obstacles are both present; give one")
            return box._with_rank_array(_unpack_ranks(d["obstacle_bits"], box.volume()))
        given = d.get("obstacles", [])
        obs = read_cells(given, "workspace.obstacles")
        if not obs:
            return box
        x0, x1, y0, y1, z0, z1 = box.bounds
        try:
            cells = np.fromiter(chain.from_iterable(obs), dtype=np.int64, count=3 * len(obs)).reshape(-1, 3)
        except OverflowError:  # a coordinate beyond int64 lies outside any box
            cells = None
        if cells is None or (cells.min(axis=0) < (x0, y0, z0)).any() or (cells.max(axis=0) > (x1, y1, z1)).any():
            i = next(i for i, (x, y, z) in enumerate(obs)
                     if not (x0 <= x <= x1 and y0 <= y <= y1 and z0 <= z <= z1))
            raise ValueError(f"workspace.obstacles[{i}] = {_text(given[i])} lies outside the workspace bounds")
        _, ny, nz = box.shape
        return box._with_rank_array(_rank_array((cells - (x0, y0, z0)) @ (ny * nz, nz, 1)))


def _text(v) -> str:
    return json.dumps(v, default=repr)


def _rank_array(ranks: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, sorted, as a read-only array."""
    if not len(ranks):
        return _NO_RANKS
    r = np.sort(ranks)
    repeat = r[1:] == r[:-1]
    if repeat.any():
        r = r[np.append(True, ~repeat)]
    r.flags.writeable = False
    return r


def _read_resolution(v) -> float:
    """A workspace's resolution_mm: a finite positive int or float, else a ValueError naming it."""
    if not (type(v) in (int, float) and 0 < v <= sys.float_info.max):
        raise ValueError(f"workspace.resolution_mm must be a finite positive number, got {_text(v)}")
    return float(v)


def _unpack_ranks(text, volume: int) -> np.ndarray:
    """The obstacle ranks of an obstacle_bits text (see Workspace.to_dict), as a _rank_array."""
    name = "workspace.obstacle_bits"
    if type(text) is not str:
        raise ValueError(f"{name} must be a base64 string, got {_text(text)}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as e:
        raise ValueError(f"{name} is not valid base64 ({e})") from None
    if len(raw) != (volume + 7) // 8:
        raise ValueError(f"{name} holds {len(raw)} bytes, but a box of {volume} cells takes {(volume + 7) // 8}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits[volume:].any():
        raise ValueError(f"{name} sets a pad bit past the box's {volume} cells")
    ranks = np.flatnonzero(bits).astype(np.int64, copy=False)
    if not len(ranks):
        return _NO_RANKS
    ranks.flags.writeable = False
    return ranks


def _integral(v) -> bool:
    return type(v) is int or (type(v) is float and v.is_integer())


def read_cell(v, name: str) -> LatticeCoord:
    """Entry `name` of a file as a cell: three integers (an integral float counts), else a ValueError naming it."""
    if not (type(v) in (list, tuple) and len(v) == 3 and all(map(_integral, v))):
        raise ValueError(f"{name} must be three integers, got {_text(v)}")
    return LatticeCoord(*map(int, v))


def read_int(v, name: str) -> int:
    """Entry `name` of a file as an int: an integer (an integral float counts), else a ValueError naming it."""
    if not _integral(v):
        raise ValueError(f"{name} must be an integer, got {_text(v)}")
    return int(v)


def read_number(v, name: str) -> float:
    """Entry `name` of a file as a float: an int or a float (not a bool), else a ValueError naming it.

    An int too large for a float is refused too.
    """
    if type(v) not in (int, float):
        raise ValueError(f"{name} must be a number, got {_text(v)}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{name} must be a number that fits a float, got an integer of {len(str(abs(v)))} digits"
                         ) from None


def read_object(v, name: str) -> dict:
    """Entry `name` of a file as a JSON object, else a ValueError naming it."""
    if type(v) is not dict:
        raise ValueError(f"{name} must be an object, got {_text(v)}")
    return v


def read_str(v, name: str) -> str:
    """Entry `name` of a file as a string, else a ValueError naming it."""
    if type(v) is not str:
        raise ValueError(f"{name} must be a string, got {_text(v)}")
    return v


def read_list(v, name: str, pairs: bool = False) -> list:
    """Entry `name` of a file as a list (with `pairs`, of two-entry lists), else a ValueError naming it."""
    if type(v) is not list:
        raise ValueError(f"{name} must be a list, got {_text(v)}")
    if pairs:
        for i, e in enumerate(v):
            if not (type(e) is list and len(e) == 2):
                raise ValueError(f"{name}[{i}] must be a pair, got {_text(e)}")
    return v


def read_step(v, name: str) -> int:
    """A tick or count `name` as an int: a non-negative integer (an integral float counts), else a ValueError."""
    if not (_integral(v) and v >= 0):
        raise ValueError(f"{name} must be a non-negative integer, got {_text(v)}")
    return int(v)


def read_cells(v, name: str) -> list | tuple:
    """Entry `name` of a file as a list of (x, y, z) int cells, each as read_cell reads it, else a ValueError.

    An all-integer list, the common case, is checked without a Python loop and returned unchanged.
    """
    if type(v) not in (list, tuple):
        raise ValueError(f"{name} must be a list of [x, y, z] cells, got {_text(v)}")
    if (set(map(type, v)) <= {list, tuple} and set(map(len, v)) <= {3}
            and set(map(type, chain.from_iterable(v))) <= {int}):
        return v
    return [read_cell(c, f"{name}[{i}]").as_tuple() for i, c in enumerate(v)]


@lru_cache(maxsize=64)
def _free_box(shape: tuple[int, int, int]) -> bytes:
    """Padded free table of an obstacle-free box of this shape (1 inside, 0 on the padding)."""
    nx, ny, nz = shape
    free = np.zeros((nx + 2, ny + 2, nz + 2), dtype=bool)
    free[1:-1, 1:-1, 1:-1] = True
    return free.tobytes()


class LegalityGrid:
    """Flat legality table of a workspace box padded by one cell on every side.

    free[i] is 1 on in-box non-obstacle cells and 0 on obstacles and on the
    padding, so from any cell i of the box the canonical move m lands on
    i + strides[m] and is legal iff free at that index; no bounds check is
    needed. It is a copy of the obstacle-free table of the box's shape with
    the workspace's obstacle ranks scattered to 0. free_mask is a bool view
    of free, and move_strides the strides as an int64 array.
    """

    def __init__(self, w: Workspace):
        nx, ny, nz = w.shape
        sy = nz + 2
        sx = (ny + 2) * sy
        self.origin = (w.x_min - 1, w.y_min - 1, w.z_min - 1)
        self.strides = (sx, -sx, sy, -sy, 1, -1)
        self._axis = (sx, sy)
        self.free = bytearray(_free_box(w.shape))
        self.free_mask = np.frombuffer(self.free, dtype=bool)
        if len(w.ranks):
            x, yz = np.divmod(w.ranks, ny * nz)
            y, z = np.divmod(yz, nz)
            self.free_mask[x * sx + y * sy + z + (sx + sy + 1)] = False  # the padding shifts each axis by 1
        self._cell_weights = np.array([sx, sy, 1], dtype=np.int64)
        self.move_strides = np.array(self.strides, dtype=np.int64)

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
        return self.free_mask[flat[..., None] + self.move_strides]


class GridStack:
    """Legality for a batch of rows, each on its own workspace's grid, from one flat table.

    GridStack.of concatenates the grids of the batch's workspaces once (a
    grid shared by several rows is stored once); each row keeps its grid's
    offset into that table and its move strides, so rows on boxes of
    different shapes are masked by one gather. take() selects and reorders
    rows, as KVCache.take does.
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
                tables.append(g.free_mask)
                size += len(g.free_mask)
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
    """True iff p lies inside the box and is not an obstacle (a free cell of w.grid)."""
    return w._in_box(p) and w.grid.free[w.grid.index(p)] == 1


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

"""A stand-in planner whose raw logits are looked up by the current cell.

Scripted logits make exact ties, legal-yet-vanishing moves and early stops
easy to set up. ScriptedModel offers both steps a decoder may take:
forward_batch (what latticepath.decoder's search runs, one newest cell per
row with a KV cache) and forward(prefix, ctx, w) (the full-prefix step of
the reference decoders in reference_decoder.py).
"""

import numpy as np

from latticepath.autodiff import Tensor
from latticepath.lattice import LatticeCoord, legal_moves
from latticepath.model import ModelConfig, StepLogits


class ScriptedModel:
    """Raw logits of each cell from `table`, else `default` (uniform zeros)."""

    cfg = ModelConfig()  # context features are computed against it; the logits ignore them

    def __init__(self, table, default=None):
        self.table = table
        self.default = np.zeros(7) if default is None else np.asarray(default, dtype=float)

    def _raw(self, cell: LatticeCoord) -> np.ndarray:
        return np.asarray(self.table.get(cell, self.default), dtype=float)

    def forward_batch(self, points, ctx_mat, cache=None) -> Tensor:
        """Logits (B, T, 7) for each cell of points (B, T, 3); a cache only counts positions."""
        raw = np.array([[self._raw(LatticeCoord(*c)) for c in row] for row in points.tolist()])
        if cache is not None:
            cache.t += points.shape[1]
        return Tensor(raw)

    def forward(self, prefix, ctx, w) -> StepLogits:
        return StepLogits(raw=self._raw(prefix[-1]), legal_mask=np.append(legal_moves(prefix[-1], w), True))

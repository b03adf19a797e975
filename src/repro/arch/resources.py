"""FPGA resource estimation (Table III).

The paper reports post-place-and-route utilisation on the Alveo U50 for each
model kernel.  We obviously cannot re-run Vivado, so this module provides an
*analytical estimator* driven by the same quantities that drive the real
utilisation:

* DSPs — multiply-accumulate lanes: every NT unit instantiates
  ``P_apply x max(out_dim)`` MACs (input-stationary broadcast across the
  output vector is bounded by a lane budget), every MP unit instantiates
  ``P_scatter`` lanes per concurrent running aggregate, and attention adds
  score/normalise multipliers.
* LUT/FF — control logic and datapath registers, proportional to unit count,
  lane count and message width.
* BRAM — node-embedding buffer, two message buffers and edge-attribute
  tables, each sized for ``max_nodes``/``max_edges`` entries of the model's
  widest embedding.

Constants are calibrated so the six paper models land in the right relative
order and magnitude on the default configuration; the point of the model is
to let experiments reason about how resources scale with the parallelism
knobs (used by the DSE bench), not to predict Vivado to the percent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Union

from ..nn.models.base import GNNModel
from .config import ArchitectureConfig
from .pipeline import dataclass_fields
from .simulator import ModelProfile

__all__ = ["ResourceEstimate", "ALVEO_U50", "TABLE3_REFERENCE", "estimate_resources"]


@dataclass_fields
class ResourceEstimate(NamedTuple):
    """Estimated FPGA resource usage of one compiled model kernel."""

    dsp: int
    lut: int
    ff: int
    bram: int

    def utilisation(self, board: "BoardResources") -> Dict[str, float]:
        """Fractional utilisation of each resource on ``board``."""
        return {
            "dsp": self.dsp / board.dsp,
            "lut": self.lut / board.lut,
            "ff": self.ff / board.ff,
            "bram": self.bram / board.bram,
        }

    def fits(self, board: "BoardResources") -> bool:
        """Whether the kernel fits on ``board``."""
        usage = self.utilisation(board)
        return all(value <= 1.0 for value in usage.values())


@dataclass(frozen=True)
class BoardResources:
    """Available resources of a target FPGA board."""

    name: str
    dsp: int
    lut: int
    ff: int
    bram: int


# Available resources of the Xilinx Alveo U50 (Table III header row).
ALVEO_U50 = BoardResources(name="Alveo U50", dsp=5952, lut=872_000, ff=1_743_000, bram=1344)

# Paper-reported utilisation (Table III) for cross-referencing in reports.
TABLE3_REFERENCE: Dict[str, Dict[str, int]] = {
    "GIN": {"dsp": 1741, "lut": 262_863, "ff": 166_098, "bram": 204},
    "GCN": {"dsp": 1048, "lut": 229_521, "ff": 192_328, "bram": 185},
    "PNA": {"dsp": 2499, "lut": 205_641, "ff": 203_125, "bram": 767},
    "GAT": {"dsp": 2488, "lut": 148_750, "ff": 134_439, "bram": 335},
    "DGN": {"dsp": 1563, "lut": 200_602, "ff": 156_681, "bram": 462},
}

# Calibration constants (per lane / per unit / per buffer entry).
_DSP_PER_NT_LANE = 5            # MAC lanes broadcast over the output vector
_DSP_PER_MP_LANE = 3            # message transform + running aggregate update
_DSP_PER_ATTENTION_HEAD = 24    # score, exp and normalise arithmetic
_LUT_PER_DSP = 90
_LUT_PER_UNIT = 9_000
_FF_PER_DSP = 70
_FF_PER_UNIT = 8_000
_BRAM_KBITS = 36.0              # one BRAM36 block
_BYTES_PER_ELEMENT = 4          # single-precision datapath


def _buffer_brams(entries: int, width: int, banks: int) -> int:
    """BRAM blocks for a banked ``entries x width`` buffer."""
    bits = entries * width * _BYTES_PER_ELEMENT * 8
    blocks = max(int(-(-bits // (_BRAM_KBITS * 1024))), 1)
    # Each bank needs at least one physical block.
    return max(blocks, banks)


@dataclass(frozen=True)
class _LayerWidths:
    """What the resource model reads from a model's layer stack."""

    max_out: int
    max_in: int
    max_message: int
    max_aggregated: int
    attention_heads: int
    nt_stages: int
    num_aggregates: int
    uses_edge_features: bool


_WIDTHS_SLOT = "_resource_widths"
_BRAM_SLOT = "_resource_brams"


def _layer_widths(profile: ModelProfile) -> _LayerWidths:
    """The layer stack's widths, derived once per profile."""
    widths = profile._derived.get(_WIDTHS_SLOT)
    if widths is None:
        specs = profile.layer_specs
        widths = _LayerWidths(
            max_out=max(spec.out_dim for spec in specs),
            max_in=max(max(shape[0] for shape in spec.nt_linear_shapes) for spec in specs),
            max_message=max(spec.message_dim for spec in specs),
            max_aggregated=max(spec.aggregated_dim for spec in specs),
            attention_heads=max(spec.attention_heads for spec in specs),
            nt_stages=max(len(spec.nt_linear_shapes) for spec in specs),
            num_aggregates=max(
                {"pna": 4, "directional": 2}.get(spec.aggregation, 1) for spec in specs
            ),
            uses_edge_features=any(spec.uses_edge_features for spec in specs),
        )
        profile._derived[_WIDTHS_SLOT] = widths
    return widths


def estimate_resources(
    model: Union[GNNModel, ModelProfile],
    config: ArchitectureConfig,
    max_nodes: int = 512,
    max_edges: int = 4096,
) -> ResourceEstimate:
    """Estimate DSP/LUT/FF/BRAM usage of ``model`` compiled under ``config``.

    ``model`` is a :class:`~repro.nn.models.base.GNNModel` or its
    :class:`~repro.arch.ModelProfile`.  The BRAM count, which reads no
    ``P_apply`` or ``P_scatter``, is derived once per profile and unit
    counts.
    """
    profile = ModelProfile.of(model)
    widths = _layer_widths(profile)
    num_nt = config.effective_nt_units()
    num_mp = config.effective_mp_units()

    # DSPs: NT lanes scale with P_apply, the width of the datapath they
    # broadcast over (input + output vector widths) and the number of dense
    # stages per node (an MLP or multi-head projection instantiates one MAC
    # group per stage); MP lanes scale with P_scatter and the number of
    # concurrent running aggregates.
    datapath_width = max((widths.max_in + widths.max_out) // 8, 1)
    nt_dsp = (
        num_nt * config.apply_parallelism * _DSP_PER_NT_LANE * datapath_width * widths.nt_stages
    )
    mp_dsp = num_mp * config.scatter_parallelism * _DSP_PER_MP_LANE * widths.num_aggregates
    attention_dsp = num_mp * widths.attention_heads * _DSP_PER_ATTENTION_HEAD
    dsp = nt_dsp + mp_dsp + attention_dsp

    # LUT/FF: datapath + control per DSP and per unit.
    units = num_nt + num_mp
    lut = dsp * _LUT_PER_DSP + units * _LUT_PER_UNIT
    ff = dsp * _FF_PER_DSP + units * _FF_PER_UNIT

    # BRAM: node embedding buffer, two message buffers, edge attribute table
    # and the per-MP-unit data queues.
    key = (_BRAM_SLOT, num_nt, num_mp, config.node_queue_depth, max_nodes, max_edges)
    bram = profile._derived.get(key)
    if bram is None:
        bram = _buffer_brams(max_nodes, widths.max_out, num_nt)
        bram += 2 * _buffer_brams(max_nodes, widths.max_aggregated, num_mp)
        edge_width = widths.max_message if widths.uses_edge_features else 2
        bram += _buffer_brams(max_edges, edge_width, num_mp)
        bram += num_mp * max(config.node_queue_depth // 8, 1)
        profile._derived[key] = bram

    return ResourceEstimate(int(dsp), int(lut), int(ff), int(bram))

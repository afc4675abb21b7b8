"""FPGA device model: CLB budget, mirror loading, DMA busy time.

The paper deploys its decoder on an Intel Arria 10 AX (S5.1) and makes
the decoder a *pluggable mirror*: "users [can] download relevant
preprocessing mirrors to FPGA devices for different applications"
(S3.1).  The device here enforces the board's logic budget when a
mirror is loaded — which is exactly the constraint that forces the
paper's 4-way-Huffman / 2-way-resizer balance (S3.3) — and accounts the
busy time of the DMA path to host hugepages.  That path has one user,
the loaded mirror's 1-way DMA stage, which already serializes the
writes, so the engine needs no queue of its own.
"""

from __future__ import annotations

from ..calib import Testbed
from ..sim import BusyTracker, Environment

__all__ = ["FpgaDevice", "FpgaResourceError"]

# Intel Arria 10 AX 10AX115: ~427k ALMs. We expose a round logic budget
# in "CLB" units; mirror unit costs are expressed in the same units.
ARRIA10_CLB_BUDGET = 420_000


class FpgaResourceError(RuntimeError):
    """Mirror does not fit the device (CLB over-subscription)."""


class FpgaDevice:
    """One FPGA board: logic budget + DMA busy time + loaded mirror slot."""

    def __init__(self, env: Environment, testbed: Testbed,
                 clb_budget: int = ARRIA10_CLB_BUDGET,
                 name: str = "fpga0"):
        self.env = env
        self.testbed = testbed
        self.name = name
        self.clb_budget = clb_budget
        self.mirror = None
        # Credited by the mirror's DMA stage around each write.
        self.dma_busy = BusyTracker(env, name=f"{name}.dma")

    # -- mirror management (pluggable decoders, S3.1) --------------------
    def load_mirror(self, mirror) -> None:
        """Program the device with a decoder mirror; validates fit."""
        required = mirror.clb_cost()
        if required > self.clb_budget:
            raise FpgaResourceError(
                f"{mirror.name} needs {required} CLBs; {self.name} has "
                f"{self.clb_budget}")
        if self.mirror is not None:
            self.mirror.shutdown()
        self.mirror = mirror
        mirror.bind(self)

    @property
    def clb_used(self) -> int:
        return self.mirror.clb_cost() if self.mirror else 0

    @property
    def clb_free(self) -> int:
        return self.clb_budget - self.clb_used

    # -- DMA ---------------------------------------------------------------
    def dma_utilization(self) -> float:
        return self.dma_busy.cores("dma")

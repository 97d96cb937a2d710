"""PCIe interconnect model.

The bus is where Pagoda's TaskTable design earns its keep: every
``cudaMemcpy`` pays a fixed multi-microsecond transaction cost, the bus
has no atomic operations, and delivery order *within* one transaction's
payload is not guaranteed (§4.2.1's ready-flag hazard).

- :class:`~repro.pcie.bus.PcieBus` — full-duplex link, one DMA engine
  per direction, per-transaction overhead + bandwidth.

Zero-copy (mapped) TaskTable writes are not bus transfers: the table
pays ``TimingModel.mapped_write_ns`` per store
(:mod:`repro.core.tasktable`), and the ready-flag hazard is the
``PagodaConfig(protocol="unsafe-single")`` ablation, which lets a
scheduler warp read a ready flag before the entry's parameters land.
"""

from repro.pcie.bus import Direction, PcieBus

__all__ = ["PcieBus", "Direction"]

"""PHY/MAC timing parameters and their conversion to slot units.

Every closed form in this package works in slot units. This module owns
the conversion: raw bit counts and interframe gaps go in, durations in
(possibly fractional) slots come out. Control frame durations count MAC
frame bits only; the PHY preamble and header are charged once inside
EIFS. That convention is what makes the derived access overheads come
out right, and it is fixed here so the rest of the code never has to
think about it.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError


class AccessMode(Enum):
    BASIC = "basic"
    RTS_CTS = "rts"


@dataclass(frozen=True)
class TimingParams:
    """Raw system parameters: 1 Mb/s DSSS-style defaults.

    Rates in bits/second, gaps in seconds, frame sizes in bits. The MAC
    header size is carried for completeness (payload figures exclude it)
    but no derived duration depends on it.
    """

    channel_rate: float = 1e6
    slot: float = 20e-6
    sifs: float = 10e-6
    difs: float = 50e-6
    phy_preamble_bits: int = 144
    phy_header_bits: int = 48
    mac_header_bits: int = 224
    ack_bits: int = 112
    rts_bits: int = 160
    cts_bits: int = 112

    def validate(self):
        for name in ("channel_rate", "slot", "sifs", "difs",
                     "phy_preamble_bits", "phy_header_bits",
                     "mac_header_bits", "ack_bits", "rts_bits", "cts_bits"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"timing parameter {name} must be positive")
        return self

    def _slots_per_bit(self):
        return 1.0 / (self.channel_rate * self.slot)

    def sifs_slots(self):
        return self.sifs / self.slot

    def difs_slots(self):
        return self.difs / self.slot

    def ack_slots(self):
        return self.ack_bits * self._slots_per_bit()

    def rts_slots(self):
        return self.rts_bits * self._slots_per_bit()

    def cts_slots(self):
        return self.cts_bits * self._slots_per_bit()

    def phy_overhead_slots(self):
        return (self.phy_preamble_bits + self.phy_header_bits) * self._slots_per_bit()

    def eifs_slots(self):
        return (self.sifs_slots() + self.phy_overhead_slots()
                + self.ack_slots() + self.difs_slots())


@dataclass(frozen=True)
class SlotDurations:
    """Protocol durations in slot units, as consumed by the closed forms."""

    t_rts: float
    t_cts: float
    t_ack: float
    sifs: float
    difs: float
    eifs: float
    phy_overhead: float


def derive_slot_durations(p: TimingParams) -> SlotDurations:
    """Convert TimingParams to slot units.

    EIFS is composed as SIFS + PHY overhead + ACK + DIFS. With the
    defaults this gives t_rts=8.0, t_cts=5.6, t_ack=5.6, sifs=0.5,
    difs=2.5, phy_overhead=9.6 and eifs=18.2 slots.
    """
    p.validate()
    return SlotDurations(t_rts=p.rts_slots(), t_cts=p.cts_slots(),
                         t_ack=p.ack_slots(), sifs=p.sifs_slots(),
                         difs=p.difs_slots(), eifs=p.eifs_slots(),
                         phy_overhead=p.phy_overhead_slots())


DEFAULT_TIMING = TimingParams()
DEFAULT_DURATIONS = derive_slot_durations(DEFAULT_TIMING)

"""PHY/MAC timing parameters and their conversion to slot units.

Every closed form in this package works in slot units. This module owns
the conversion: raw bit counts and interframe gaps go in, durations in
(possibly fractional) slots come out. Control frame durations count MAC
frame bits only; the PHY preamble and header are charged once inside
EIFS. That convention is what makes the derived access overheads come
out right, and it is fixed here so the rest of the code never has to
think about it.
"""

from dataclasses import dataclass, fields
from enum import Enum

from .errors import ValidationError


class AccessMode(Enum):
    BASIC = "basic"
    RTS_CTS = "rts"


@dataclass(frozen=True)
class TimingParams:
    """Raw system parameters: 1 Mb/s DSSS-style defaults.

    Rates in bits/second, gaps in seconds, frame sizes in bits. Payload
    figures exclude the MAC header, so no header size appears here.
    """

    channel_rate: float = 1e6
    slot: float = 20e-6
    sifs: float = 10e-6
    difs: float = 50e-6
    phy_preamble_bits: int = 144
    phy_header_bits: int = 48
    ack_bits: int = 112
    rts_bits: int = 160
    cts_bits: int = 112

    def validate(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValidationError(f"timing parameter {f.name} must be positive")
        return self


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
    per_bit = 1.0 / (p.channel_rate * p.slot)
    sifs = p.sifs / p.slot
    difs = p.difs / p.slot
    ack = p.ack_bits * per_bit
    phy = (p.phy_preamble_bits + p.phy_header_bits) * per_bit
    return SlotDurations(t_rts=p.rts_bits * per_bit, t_cts=p.cts_bits * per_bit,
                         t_ack=ack, sifs=sifs, difs=difs,
                         eifs=sifs + phy + ack + difs, phy_overhead=phy)


DEFAULT_TIMING = TimingParams()
DEFAULT_DURATIONS = derive_slot_durations(DEFAULT_TIMING)

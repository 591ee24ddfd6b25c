"""PHY/MAC timing parameters and their conversion to slot units.

Every closed form in this package works in slot units. This module owns
the conversion: raw bit counts and interframe gaps go in, durations in
(possibly fractional) slots come out. Control frame durations count MAC
frame bits only; the PHY preamble and header are charged once inside
EIFS. That convention is what makes the derived access overheads come
out right, and it is fixed here so the rest of the code never has to
think about it.
"""

import math
from enum import Enum

from ._record import Record
from .errors import ValidationError


class AccessMode(Enum):
    BASIC = "basic"
    RTS_CTS = "rts"


class TimingParams(Record):
    """Raw system parameters: 1 Mb/s DSSS-style defaults.

    Rates in bits/second, gaps in seconds, frame sizes in bits. Payload
    figures exclude the MAC header, so no header size appears here.
    """

    __slots__ = ("channel_rate", "slot", "sifs", "difs", "phy_preamble_bits",
                 "phy_header_bits", "ack_bits", "rts_bits", "cts_bits")

    def __init__(self, channel_rate: float = 1e6, slot: float = 20e-6,
                 sifs: float = 10e-6, difs: float = 50e-6,
                 phy_preamble_bits: int = 144, phy_header_bits: int = 48,
                 ack_bits: int = 112, rts_bits: int = 160, cts_bits: int = 112):
        values = (channel_rate, slot, sifs, difs, phy_preamble_bits,
                  phy_header_bits, ack_bits, rts_bits, cts_bits)
        for name, value in zip(self.__slots__, values):
            if isinstance(value, bool) or not 0 < value < math.inf:
                raise ValidationError(f"timing parameter {name} must be positive and finite")
        self._fill(*values)


class SlotDurations(Record):
    """Protocol durations in slot units, as consumed by the closed forms."""

    __slots__ = ("t_rts", "t_cts", "t_ack", "sifs", "difs", "eifs", "phy_overhead")

    def __init__(self, t_rts: float, t_cts: float, t_ack: float, sifs: float,
                 difs: float, eifs: float, phy_overhead: float):
        self._fill(t_rts, t_cts, t_ack, sifs, difs, eifs, phy_overhead)


def derive_slot_durations(p: TimingParams) -> SlotDurations:
    """Convert TimingParams to slot units.

    EIFS is composed as SIFS + PHY overhead + ACK + DIFS. With the
    defaults this gives t_rts=8.0, t_cts=5.6, t_ack=5.6, sifs=0.5,
    difs=2.5, phy_overhead=9.6 and eifs=18.2 slots. Finite parameters
    can still overflow here (a huge gap over a tiny slot) or in the sums
    formed from them; a duration or a sum that is not finite is refused.
    """
    per_bit = 1.0 / (p.channel_rate * p.slot)
    sifs = p.sifs / p.slot
    difs = p.difs / p.slot
    ack = p.ack_bits * per_bit
    phy = (p.phy_preamble_bits + p.phy_header_bits) * per_bit
    d = SlotDurations(t_rts=p.rts_bits * per_bit, t_cts=p.cts_bits * per_bit,
                      t_ack=ack, sifs=sifs, difs=difs,
                      eifs=sifs + phy + ack + difs, phy_overhead=phy)
    for name in SlotDurations.__slots__:
        if not math.isfinite(getattr(d, name)):
            raise ValidationError(f"timing gives a {name} of {getattr(d, name)} slots; "
                                  "every slot duration must be finite")
    # the longest sum: a handshake exchange with its DIFS, plus two EIFS
    longest = d.t_rts + d.t_cts + d.t_ack + 3 * d.sifs + d.difs + 2 * d.eifs
    if not math.isfinite(longest):
        raise ValidationError(f"timing gives exchanges of {longest} slots; "
                              "every slot duration must be finite")
    return d


DEFAULT_TIMING = TimingParams()
DEFAULT_DURATIONS = derive_slot_durations(DEFAULT_TIMING)

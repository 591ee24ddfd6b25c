import dataclasses
import math

import pytest

from maclab.errors import ValidationError
from maclab.timing import (AccessMode, DEFAULT_DURATIONS, DEFAULT_TIMING,
                           SlotDurations, TimingParams, derive_slot_durations)


def test_access_mode_values():
    assert AccessMode("basic") is AccessMode.BASIC
    assert AccessMode("rts") is AccessMode.RTS_CTS


def test_default_slot_durations():
    d = DEFAULT_DURATIONS
    assert d.t_rts == pytest.approx(8.0, rel=1e-12)
    assert d.t_cts == pytest.approx(5.6, rel=1e-12)
    assert d.t_ack == pytest.approx(5.6, rel=1e-12)
    assert d.sifs == pytest.approx(0.5, rel=1e-12)
    assert d.difs == pytest.approx(2.5, rel=1e-12)
    assert d.phy_overhead == pytest.approx(9.6, rel=1e-12)
    assert d.eifs == pytest.approx(18.2, rel=1e-12)


def test_eifs_composition():
    # extended deferral is sifs + preamble/header time + ack + difs
    d = DEFAULT_DURATIONS
    assert d.eifs == pytest.approx(d.sifs + d.phy_overhead + d.t_ack + d.difs,
                                   rel=1e-12)


def test_custom_slot_length_rescales():
    p = DEFAULT_TIMING.replace(slot=50e-6, sifs=25e-6, difs=125e-6)
    d = derive_slot_durations(p)
    assert d.sifs == pytest.approx(0.5)
    assert d.difs == pytest.approx(2.5)
    # frame times shrink when slots get longer: 112 bits at 1 Mb/s is
    # 112 us, which is 2.24 of these 50 us slots
    assert d.t_ack == pytest.approx(2.24)
    assert d.t_rts == pytest.approx(3.2)


@pytest.mark.parametrize("field,value", [
    ("channel_rate", 0.0),
    ("slot", 0.0),
    ("slot", -20e-6),
    ("sifs", -1e-6),
    ("ack_bits", -1),
    ("rts_bits", 0),
    ("slot", math.inf),
    ("slot", True),
    ("ack_bits", True),
])
def test_validate_rejects_bad_params(field, value):
    with pytest.raises(ValidationError):
        DEFAULT_TIMING.replace(**{field: value})


def test_durations_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_DURATIONS.t_rts = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_TIMING.slot = 1.0


def test_slot_durations_is_plain_record():
    d = SlotDurations(t_rts=1, t_cts=1, t_ack=1, sifs=1, difs=1, eifs=1,
                      phy_overhead=1)
    assert d.t_rts == 1


@pytest.mark.parametrize("changes", [
    {"channel_rate": 1e-10, "slot": 1e-300},    # 1/(channel_rate·slot) overflows
    {"sifs": 1e308, "difs": 1e308},             # sifs/slot and difs/slot overflow
    {"sifs": 1.6e303, "difs": 1.6e303},         # finite, but 3·sifs + difs is not
], ids=["frame-times", "gaps", "sums"])
def test_durations_past_float_range_are_refused(changes):
    p = DEFAULT_TIMING.replace(**changes)       # every parameter is finite
    with pytest.raises(ValidationError, match="every slot duration must be finite"):
        derive_slot_durations(p)

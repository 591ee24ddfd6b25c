import dataclasses

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
    p = dataclasses.replace(DEFAULT_TIMING, slot=50e-6, sifs=25e-6, difs=125e-6)
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
])
def test_validate_rejects_bad_params(field, value):
    p = dataclasses.replace(DEFAULT_TIMING, **{field: value})
    with pytest.raises(ValidationError):
        p.validate()


def test_durations_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_DURATIONS.t_rts = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_TIMING.slot = 1.0


def test_slot_durations_is_plain_record():
    d = SlotDurations(t_rts=1, t_cts=1, t_ack=1, sifs=1, difs=1, eifs=1,
                      phy_overhead=1)
    assert d.t_rts == 1

"""Figure 10: aggregate write bandwidth when the device is shared.

Paper: there are no SPDK bars (it cannot share a device); with BypassD
every process gets direct access, so aggregate throughput scales with
the process count and beats the kernel paths until the device
saturates.
"""

import pytest

from repro.machine import Machine
from repro.nvme.device import DeviceBusyError


def series(table, engine):
    return {procs: mbps for eng, procs, mbps in table.rows
            if eng == engine}


def test_fig10(experiment):
    table = experiment("fig10")
    byp = series(table, "bypassd")
    sync = series(table, "sync")

    # Scaling with processes until device saturation.
    assert byp[4] > 2.5 * byp[1]
    assert byp[16] >= byp[8] * 0.9
    # BypassD leads the kernel paths at low process counts.
    for procs in (1, 2, 4):
        assert byp[procs] > sync[procs]


def test_fig10_no_spdk_bars():
    """The reason the figure has no SPDK bars, demonstrated."""
    from repro.baselines.spdk import SPDKEngine

    m = Machine(capacity_bytes=1 << 30, memory_bytes=256 << 20)
    SPDKEngine(m.sim, m.device, m.spawn_process())
    with pytest.raises(DeviceBusyError):
        SPDKEngine(m.sim, m.device, m.spawn_process())

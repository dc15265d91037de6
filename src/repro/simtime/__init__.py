"""Virtual-time performance model.

Real wall-clock timing in Python cannot reproduce the paper's device
contrasts (NVMe vs. SSD vs. burst buffer vs. Lustre), so every rank in
the simulated SPMD runtime carries a :class:`~repro.simtime.clock.VirtualClock`
and all storage/network operations charge costs taken from calibrated
device and network profiles.  See DESIGN.md §5.
"""

from repro.simtime.clock import VirtualClock
from repro.simtime.resources import StripedResource, TimedResource
from repro.simtime.profiles import (
    CORI,
    DeviceProfile,
    NetworkProfile,
    STAMPEDE,
    SUMMITDEV,
    SystemProfile,
    system_by_name,
)

__all__ = [
    "CORI",
    "DeviceProfile",
    "NetworkProfile",
    "STAMPEDE",
    "SUMMITDEV",
    "StripedResource",
    "SystemProfile",
    "TimedResource",
    "VirtualClock",
    "system_by_name",
]

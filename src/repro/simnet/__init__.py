"""Network model: topology and latency.

This is where the milliseconds in every reproduced page-load-time figure
come from. A :class:`Topology` connects named nodes (browsers, CDN edge
PoPs, the origin) with :class:`Link` objects whose one-way delays are
drawn from pluggable distributions; :mod:`repro.simnet.profiles`
provides calibrated presets for typical last-mile connection types.
"""

from repro.simnet.delay import (
    ConstantDelay,
    Delay,
    LogNormalDelay,
    UniformDelay,
)
from repro.simnet.profiles import (
    CONNECTION_PROFILES,
    ConnectionProfile,
    build_web_topology,
)
from repro.simnet.topology import Link, NodeKind, Topology

__all__ = [
    "CONNECTION_PROFILES",
    "ConnectionProfile",
    "ConstantDelay",
    "Delay",
    "Link",
    "LogNormalDelay",
    "NodeKind",
    "Topology",
    "UniformDelay",
    "build_web_topology",
]

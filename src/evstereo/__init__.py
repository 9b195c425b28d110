"""Event-driven spiking stereo vision: cooperative coincidence/disparity
network simulation and evaluation for stereo event-camera streams."""

__version__ = "0.1.0"

from .events import CameraGeometry, DvsEvent, StereoEventStream
from .simulator import LifParams, SpikeRecord, simulate
from .topology import Population, Topology, WeightParams, build_topology

__all__ = [
    "CameraGeometry",
    "DvsEvent",
    "StereoEventStream",
    "LifParams",
    "SpikeRecord",
    "simulate",
    "Population",
    "Topology",
    "WeightParams",
    "build_topology",
    "__version__",
]

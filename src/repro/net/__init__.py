"""Simulated cluster substrate: processors, load traces, networks, SPMD.

This package replaces the paper's physical testbed (SUN4 workstations + P4
over Ethernet, Sec. 4) with a virtual-time simulation; see
docs/architecture.md for the substitution argument.
"""

from repro.net.cluster import (
    SUN4_SPEEDS,
    ClusterSpec,
    adaptive_cluster,
    heterogeneous_cluster,
    sun4_cluster,
    uniform_cluster,
)
from repro.net.comm import Communicator, RankContext, resolve_recv_timeout
from repro.net.loadmodel import (
    ConstantLoad,
    LoadTrace,
    MembershipEvent,
    MembershipTrace,
    NoLoad,
    RampLoad,
    RandomWalkLoad,
    StepLoad,
    advance_clock,
    work_done_in,
)
from repro.net.message import Message, Tags, payload_nbytes
from repro.net.network import (
    ETHERNET_10MBIT,
    NetworkModel,
    PointToPointNetwork,
    SharedEthernet,
)
from repro.net.processor import ProcessorSpec
from repro.net.spmd import WORLDS, SPMDResult, run_spmd
from repro.net.trace import TraceEvent, TraceLog

__all__ = [
    "ClusterSpec",
    "Communicator",
    "ConstantLoad",
    "ETHERNET_10MBIT",
    "LoadTrace",
    "MembershipEvent",
    "MembershipTrace",
    "Message",
    "NetworkModel",
    "NoLoad",
    "PointToPointNetwork",
    "ProcessorSpec",
    "RampLoad",
    "RandomWalkLoad",
    "RankContext",
    "SPMDResult",
    "SUN4_SPEEDS",
    "SharedEthernet",
    "StepLoad",
    "Tags",
    "TraceEvent",
    "TraceLog",
    "WORLDS",
    "adaptive_cluster",
    "advance_clock",
    "heterogeneous_cluster",
    "payload_nbytes",
    "resolve_recv_timeout",
    "run_spmd",
    "sun4_cluster",
    "uniform_cluster",
    "work_done_in",
]

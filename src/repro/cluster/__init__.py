"""Simulated PC-cluster node model."""

from repro._lazy import lazy_exports

__all__ = ["Node", "NodeSpec", "ClusterSpec", "PRINCETON_WALL"]

__getattr__, __dir__ = lazy_exports(
    __name__, {name: "repro.cluster.node" for name in __all__}
)

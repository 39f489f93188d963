"""Shared fixtures for the FlashWalker reproduction test suite."""

from __future__ import annotations

import resource
import sys

import numpy as np
import pytest

from repro.common import FlashWalkerConfig, RngRegistry
from repro.graph import CSRGraph, partition_graph, powerlaw_graph, rmat

#: Most a single test body may raise the process's peak resident set.
#: The suite must run on an 8 GB host; one stray full-population array
#: (``np.arange(10**9)``) is 8 GB on its own.
RSS_GROWTH_LIMIT = 1 << 30


def _peak_rss_bytes() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else peak * 1024  # KiB on Linux


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail a test whose body raises peak RSS by more than the limit."""
    before = _peak_rss_bytes()
    result = yield
    grown = _peak_rss_bytes() - before
    if grown > RSS_GROWTH_LIMIT:
        pytest.fail(
            f"{item.nodeid} raised peak RSS by {grown / 2**20:.0f} MiB "
            f"(limit {RSS_GROWTH_LIMIT / 2**20:.0f} MiB)",
            pytrace=False,
        )
    return result


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(12345)


@pytest.fixture
def rng(rngs) -> np.random.Generator:
    return rngs.stream("test")


@pytest.fixture
def small_graph(rng) -> CSRGraph:
    """A 1024-vertex RMAT graph, skewed, with dead ends."""
    return rmat(10, 8, rng)


@pytest.fixture
def skewed_graph(rng) -> CSRGraph:
    """Power-law graph with dense vertices under a 4 KB block size."""
    return powerlaw_graph(2000, 60_000, rng, exponent=0.9)


@pytest.fixture
def tiny_config() -> FlashWalkerConfig:
    """FlashWalker config shrunk for fast engine tests."""
    return FlashWalkerConfig().replace(
        partition_subgraphs=64,
        board_hot_subgraphs=4,
        channel_hot_subgraphs=1,
    )


@pytest.fixture
def diamond_graph() -> CSRGraph:
    """0 -> {1, 2} -> 3 -> 0: deterministic structure for walk checks."""
    src = np.array([0, 0, 1, 2, 3])
    dst = np.array([1, 2, 3, 3, 0])
    return CSRGraph.from_edge_list(src, dst, num_vertices=4)


def make_partitioning(graph: CSRGraph, subgraph_bytes: int = 4096):
    return partition_graph(graph, subgraph_bytes)

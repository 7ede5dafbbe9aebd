"""Deterministic random streams and worker-count-independent parallelism.

Every stochastic operation in the package takes a ``seed`` that is either a
master seed (int) or a tuple ``(master, *path)`` naming a derived substream.
Substreams are numpy's default PCG64 generator seeded with
``SeedSequence(entropy=master, spawn_key=path)``, numpy's documented way to
build independent streams: streams with distinct paths are statistically
independent and the derivation never depends on execution order or worker
count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar, Union

import numpy as np

Seed = Union[int, Sequence[int]]

_T = TypeVar("_T")
_R = TypeVar("_R")


def substream(seed: Seed) -> np.random.Generator:
    """Return the PCG64 generator for a master seed or a (master, *path) tuple."""
    if isinstance(seed, (tuple, list)):
        if len(seed) == 0:
            raise ValueError("empty seed tuple")
        master, path = int(seed[0]), tuple(int(s) for s in seed[1:])
    else:
        master, path = int(seed), ()
    ss = np.random.SeedSequence(entropy=master, spawn_key=path)
    return np.random.Generator(np.random.PCG64(ss))


def derive(seed: Seed, *path: int) -> tuple[int, ...]:
    """Extend a seed with additional substream path components."""
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed) + tuple(int(p) for p in path)
    return (int(seed),) + tuple(int(p) for p in path)


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T], threads: int = 1) -> list[_R]:
    """Map ``fn`` over ``items`` preserving order.

    Work units must carry their own substream seeds; then the result is
    identical for every ``threads`` value.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, items))

"""Deterministic, duplicate-laden compile request lists for the serving tests.

A realistic serving workload is not a uniform sweep: a few hot
configurations repeat while distinct ones trickle in.
:func:`synthetic_requests` models that by drawing a unique working set from
the apps' declared search spaces and then re-drawing a duplicate fraction
from it.  The list is a pure function of its arguments (one private
:class:`random.Random`, never module-level RNG state), so a test that names
its seed replays bit-identically.  Imported by the tests as a top-level
module, the way ``golden_kernels`` is.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.apps.registry import available_apps, get_app
from repro.serve import CompileRequest

__all__ = ["synthetic_requests"]


def _unique_pools(names: Sequence[str], unique_count: int) -> dict[str, list[dict]]:
    """Per-app pools of distinct projected configurations.

    Each app contributes at most ``ceil(unique/apps)`` distinct
    configurations, so its space (matmul's holds 2 000 points) is streamed
    just far enough instead of materialising the whole product.  Pools hold
    *projected* configurations deduplicated by kernel identity: a unique
    request should be a unique kernel, not an evaluation-axis variant of the
    previous one.
    """
    share = -(-unique_count // len(names))

    def _pool(name: str) -> list[dict]:
        spec = get_app(name)
        seen: set[tuple] = set()
        configs: list[dict] = []
        for config in spec.space:
            projected = spec.generate_config(config)
            key = tuple(sorted(projected.items()))
            if key in seen:
                continue
            seen.add(key)
            configs.append(projected)
            if len(configs) >= share:
                break
        return configs

    pools = {name: _pool(name) for name in names}
    for name, pool in pools.items():
        if not pool:
            raise ValueError(f"app {name!r} has an empty search space")
    return pools


def synthetic_requests(
    apps: Sequence[str] | None = None,
    total: int = 1000,
    duplicate_fraction: float = 0.5,
    seed: int = 0,
) -> list[CompileRequest]:
    """A deterministic list of ``total`` compile requests.

    Roughly ``total * (1 - duplicate_fraction)`` requests are unique
    configurations taken round-robin from the apps' search spaces (cycling
    when a space is smaller than its share); the rest are duplicates drawn
    uniformly from the unique working set.  The list is shuffled, so
    duplicates interleave with first sightings the way concurrent clients
    would produce them.  Configurations are projected onto the axes each
    app's generator reads (``AppSpec.generate_config``), the projection the
    autotuner applies, so requests that would compile the identical kernel
    share one cache identity.  ``apps`` defaults to every app that generates
    kernels.
    """
    if total < 1:
        raise ValueError("synthetic_requests needs a positive request count")
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ValueError("duplicate_fraction must lie in [0, 1)")
    names = list(apps) if apps else [
        name for name in available_apps() if get_app(name).generate is not None
    ]
    if not names:
        raise ValueError("no apps with kernel generators available")

    unique_count = max(1, int(round(total * (1.0 - duplicate_fraction))))
    pools = _unique_pools(names, unique_count)
    rng = random.Random(seed)
    unique: list[CompileRequest] = []
    cursors = {name: 0 for name in names}
    for i in range(unique_count):
        name = names[i % len(names)]
        pool = pools[name]
        config = pool[cursors[name] % len(pool)]
        cursors[name] += 1
        unique.append(CompileRequest(app=name, config=config))

    requests = list(unique)
    while len(requests) < total:
        requests.append(rng.choice(unique))
    rng.shuffle(requests)
    return requests

"""The benchmark's three workloads, generated from a seed.

Each workload is raw items (coordinates and values), a pool of
distinct queries, per-client schedules drawing from that pool, and the
deployment that serves them.  The program under test receives only
these generated inputs; every size below is fixed, only the seed
varies the data, the hot spots and the query order.

- ``dense_grid``: the reference query -- a full-region 256x256 ``mean``
  grid over 400k 2-D items, FRA on 8 virtual processors, one
  in-memory ``ADRServer`` whose 64 MB payload cache holds all 9.6 MB.
  The 1.4 MB result makes the wire the largest cost.
- ``box_browse``: Virtual-Microscope browsing -- small zoomed boxes
  around Zipf-skewed hot spots of a 2M-item slide on a
  ``FileChunkStore`` with an 8 MB cache (working set larger), one in
  three queries with a ``where`` predicate, two clients, ``AUTO``.
  Planning, store misses, pruning and the service carry the load.
- ``sharded_sat``: AVHRR-style compositing over 2 shard processes
  behind a ``ShardRouter``: latitude-band x time-window queries onto a
  128x128 image, alternating ``best`` and ``mean``, ``AUTO`` resolved
  by the router.  Polar readings are denser, so shards and bands get
  uneven load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.aggregation.output_grid import OutputGrid
from repro.frontend.query import RangeQuery
from repro.planner.select import AUTO, FRA
from repro.space.attribute_space import AttributeSpace
from repro.space.mapping import GridMapping
from repro.util.geometry import Rect
from repro.util.rng import make_rng
from repro.util.units import MB

__all__ = ["Workload", "WORKLOADS", "build"]

#: Queries drawn per client schedule; clients cycle through it, so it
#: only needs to outlast the fastest run.
SCHEDULE_LEN = 20_000


@dataclass
class Workload:
    name: str
    dataset: str
    space: AttributeSpace
    coords: np.ndarray
    values: np.ndarray
    items_per_chunk: int
    #: virtual processors per serving ADR
    n_procs: int
    #: ``"memory"`` or ``"file"`` backing store
    store: str
    cache_bytes: int
    n_clients: int
    #: 0: one ``ADRServer``; k > 0: k shard servers behind a router
    n_shards: int
    queries: List[RangeQuery]
    #: per client: indices into ``queries``, sent in order, cycled
    schedules: List[List[int]]
    #: ``"exact"`` (bit-identical to in-process execution) or
    #: ``"close"`` (allclose: shards combine in another order)
    compare: str
    summary: str

    @property
    def raw_bytes(self) -> int:
        return int(self.coords.nbytes + self.values.nbytes)


def _unit_square(name: str) -> AttributeSpace:
    return AttributeSpace.regular(name, ("x", "y"), (0.0, 0.0), (1.0, 1.0))


def dense_grid(seed: int) -> Workload:
    rng = make_rng(seed)
    n = 400_000
    coords = rng.uniform(0.0, 1.0, size=(n, 2))
    values = rng.uniform(0.0, 100.0, size=(n, 1))
    space = _unit_square("plane")
    out = _unit_square("image")
    grid = OutputGrid(out, (256, 256), (32, 32))
    query = RangeQuery(
        "plane", Rect((0.0, 0.0), (1.0, 1.0)), GridMapping(space, out, (256, 256)),
        grid, aggregation="mean", strategy=FRA,
    )
    return Workload(
        name="dense_grid", dataset="plane", space=space, coords=coords,
        values=values, items_per_chunk=500, n_procs=8, store="memory",
        cache_bytes=64 * MB, n_clients=1, n_shards=0, queries=[query],
        schedules=[[0] * SCHEDULE_LEN], compare="exact",
        summary="400k 2-D items / 800 chunks (9.6 MB) in a 64 MB cache; "
        "full-region 256x256 mean grid, FRA, 8 procs; 1 ADRServer, "
        "1 closed-loop client",
    )


def _slide_intensity(
    rng, coords: np.ndarray, centres: np.ndarray, n_fixed: int
) -> np.ndarray:
    """Bright cell-like blobs on a dark ground, sampled per item from
    a 512x512 field (the Virtual Microscope's stained specimen).  The
    first *n_fixed* blobs get one radius, so the bright share of each
    hot spot -- what a ``where`` predicate keeps -- does not vary."""
    res = 512
    axis = (np.arange(res) + 0.5) / res
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    field = np.full((res, res), 40.0)
    radii = rng.uniform(0.01, 0.03, size=len(centres))
    radii[:n_fixed] = 0.02
    for (cx, cy), r in zip(centres, radii):
        field += 180.0 * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2 * r * r))
    cells = np.minimum((coords * res).astype(np.int64), res - 1)
    noise = rng.normal(0.0, 4.0, size=len(coords))
    return (field[cells[:, 0], cells[:, 1]] + noise)[:, None]


def box_browse(seed: int) -> Workload:
    rng = make_rng(seed)
    n = 2_000_000
    n_hot, variants = 20, 3
    coords = rng.uniform(0.0, 1.0, size=(n, 2))
    # Hot spots on a jittered 5x4 lattice in seeded order: the seed
    # moves them, but how far apart they lie -- and so how much their
    # views share -- stays about the same from seed to seed.
    lattice = np.stack(
        np.meshgrid(np.linspace(0.2, 0.8, 5), np.linspace(0.2, 0.8, 4), indexing="ij"),
        axis=-1,
    ).reshape(-1, 2)
    hot = rng.permutation(lattice) + rng.uniform(-0.03, 0.03, size=(n_hot, 2))
    blobs = np.concatenate([hot, rng.uniform(0.05, 0.95, size=(40, 2))])
    values = _slide_intensity(rng, coords, blobs, n_hot)
    space = _unit_square("slide")
    display = _unit_square("display")
    grid = OutputGrid(display, (64, 64), (16, 16))
    queries = []
    # Each hot spot is viewed at 5%, 10% and 15% of each axis (with a
    # little aspect jitter); the where= view rotates through the sizes
    # by hot-spot rank.  So the Zipf weights -- fixed by rank -- meet
    # the same mix of view costs under every seed.
    sizes = (0.05, 0.10, 0.15)
    for h in range(n_hot):
        for v in range(variants):
            centre = np.clip(hot[h] + rng.normal(0.0, 0.01, size=2), 0.1, 0.9)
            half = sizes[v] * rng.uniform(0.9, 1.1, size=2) / 2
            lo = [float(c) for c in centre - half]
            hi = [float(c) for c in centre + half]
            # The view maps the box onto the whole 64x64 display, as a
            # microscope client zoomed onto the region would.
            view = AttributeSpace.regular("view", ("x", "y"), lo, hi)
            queries.append(RangeQuery(
                "slide", Rect(tuple(lo), tuple(hi)),
                GridMapping(view, display, (64, 64)), grid,
                aggregation="mean", strategy=AUTO,
                where={0: (120.0, None)} if v == h % variants else None,
            ))
    # Zipf-skewed hot spots: a few regions draw most of the browsing.
    weights = 1.0 / np.arange(1, n_hot + 1) ** 1.2
    weights /= weights.sum()
    schedules = []
    for _ in range(2):
        spots = rng.choice(n_hot, size=SCHEDULE_LEN, p=weights)
        picks = rng.integers(0, variants, size=SCHEDULE_LEN)
        schedules.append((spots * variants + picks).tolist())
    return Workload(
        name="box_browse", dataset="slide", space=space, coords=coords,
        values=values, items_per_chunk=500, n_procs=8, store="file",
        cache_bytes=8 * MB, n_clients=2, n_shards=0, queries=queries,
        schedules=schedules, compare="exact",
        summary="2M 2-D items / 4000 chunks (48 MB) on a FileChunkStore, "
        "8 MB cache (working set exceeds it); 60 distinct 64x64 boxes, "
        "Zipf over 20 hot spots, 1 in 3 with where=; AUTO; 1 ADRServer, "
        "2 closed-loop clients",
    )


def polar_orbit_readings(rng, n: int):
    """Readings along a polar ground track, latitude density ~ sec.

    The generator of ``examples/satellite_composite.py``, kept here so
    that edits to the example cannot change the benchmark's inputs.
    """
    x_max = np.arcsinh(np.tan(np.radians(80.0)))
    lat = np.degrees(np.arctan(np.sinh(rng.uniform(-x_max, x_max, n))))
    lon = rng.uniform(-180, 180, n)
    t = rng.uniform(0, 10, n)
    coords = np.stack((lon, lat, t), axis=1)
    vegetation = np.cos(np.radians(lat)) ** 2
    score = vegetation + rng.normal(0, 0.1, n)
    band = 200 * vegetation + rng.normal(0, 5, n)
    return coords, np.stack((score, band), axis=1)


def sharded_sat(seed: int) -> Workload:
    rng = make_rng(seed)
    coords, values = polar_orbit_readings(rng, 400_000)
    earth = AttributeSpace.regular(
        "avhrr", ("lon", "lat", "time"), (-180.0, -90.0, 0.0), (180.0, 90.0, 10.0)
    )
    image = _unit_square("composite")
    grid = OutputGrid(image, (128, 128), (16, 16))
    mapping = GridMapping(
        earth, image, (128, 128), dim_select=(0, 1), footprint=(1 / 256, 1 / 256)
    )
    queries = []
    # Fixed bands and window length; the seed shifts them slightly, so
    # each query's share of the readings barely changes with the seed.
    for centre in np.arange(-70.0, 71.0, 20.0):
        lat = centre + rng.uniform(-1.0, 1.0)
        t0 = rng.uniform(0.0, 7.5)
        t1 = t0 + 2.5
        region = Rect((-180.0, lat - 10.0, t0), (180.0, lat + 10.0, t1))
        for aggregation in ("best", "mean"):
            queries.append(RangeQuery(
                "avhrr", region, mapping, grid, aggregation=aggregation,
                strategy=AUTO, value_components=2,
            ))
    order = np.concatenate(
        [rng.permutation(len(queries)) for _ in range(SCHEDULE_LEN // len(queries))]
    )
    return Workload(
        name="sharded_sat", dataset="avhrr", space=earth, coords=coords,
        values=values, items_per_chunk=500, n_procs=4, store="memory",
        cache_bytes=64 * MB, n_clients=1, n_shards=2, queries=queries,
        schedules=[order.tolist()], compare="close",
        summary="400k 3-D polar-orbit readings / 800 chunks (16 MB) over "
        "2 shard processes; 16 distinct lat-band x time-window queries onto "
        "128x128, best/mean, AUTO; router in 1 closed-loop client",
    )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "dense_grid": dense_grid,
    "box_browse": box_browse,
    "sharded_sat": sharded_sat,
}


def build(name: str, seed: int) -> Workload:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return factory(seed)

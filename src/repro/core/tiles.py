"""Tiled, lazily-materialised distance backend.

Dense :class:`repro.geo.distance.DistanceMatrix` precomputes the full
``O(n_users x n_events)`` float64 user-event plane up front — the memory
wall between this reproduction and million-user instances (ROADMAP open
item 3).  :class:`TiledDistanceMatrix` keeps only the *coordinates*
resident (``O(n + m)``) and computes distances on demand in fixed-size
tiles under a size-bounded LRU, so peak memory follows the working set of
the solver instead of the instance size.

Value-identity contract
-----------------------

Dense stays the oracle.  A tile is computed with the metric's own
``cross_coords`` over slices of the *same* coordinate arrays the dense
path uses, i.e. the identical elementwise operation sequence — so under
the default ``float64`` tile dtype every served value is bit-identical to
the dense plane, and tier-1 plus the kernel-strategy bit-identity audits
pass unchanged under ``REPRO_DISTANCE=tiled``.  With the opt-in
``REPRO_TILE_DTYPE=float32`` (the memory-lean soak configuration) every
served value is the correctly-rounded float32 image of the dense value
(``dense.astype(float32)``), upcast back to float64 at the serving
boundary so downstream kernel arithmetic stays in float64 on every
strategy.

The dense plane property deliberately **raises** here: any call site that
still reaches for ``user_event_matrix`` under the tiled backend is a
scaling bug, and lint rule RL008 flags such sites statically.  Serving
goes through :meth:`user_event`, :meth:`user_event_row`, and
:meth:`user_event_rows`.  The event-event block is ``O(m^2)`` — events
number thousands where users number millions — and stays dense (built
lazily on first touch).

Backend selection (``REPRO_DISTANCE=dense|tiled``) follows the
``repro.core.kernel`` strategy-registry idiom: an env default, a process
override, and a scoped context manager.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

import numpy as np

from repro.geo.metrics import EUCLIDEAN, TravelMetric
from repro.geo.point import Point
from repro.obs import get_recorder

#: Default tile geometry: 1024 users x 256 events = 2 MiB per float64 tile.
DEFAULT_TILE_USERS = 1024
DEFAULT_TILE_EVENTS = 256
#: Default LRU budget for resident tiles.
DEFAULT_CACHE_MIB = 64.0

_VALID_BACKENDS = ("dense", "tiled")
_VALID_DTYPES = {"float64": np.float64, "float32": np.float32}

_BACKEND_OVERRIDE: str | None = None


def distance_backend_from_env() -> str:
    """The backend named by ``REPRO_DISTANCE`` (default ``dense``)."""
    raw = os.environ.get("REPRO_DISTANCE", "dense").strip().lower()
    if raw not in _VALID_BACKENDS:
        raise ValueError(
            f"REPRO_DISTANCE={raw!r} is not a distance backend; "
            f"choose from {list(_VALID_BACKENDS)}"
        )
    return raw


def active_distance_backend() -> str:
    """The backend new ``Instance`` distance caches are built with."""
    if _BACKEND_OVERRIDE is not None:
        return _BACKEND_OVERRIDE
    return distance_backend_from_env()


def set_distance_backend(name: str | None) -> None:
    """Process-wide backend override (``None`` returns to the env)."""
    global _BACKEND_OVERRIDE
    if name is not None:
        name = name.strip().lower()
        if name not in _VALID_BACKENDS:
            raise ValueError(
                f"{name!r} is not a distance backend; "
                f"choose from {list(_VALID_BACKENDS)}"
            )
    _BACKEND_OVERRIDE = name


@contextmanager
def use_distance_backend(name: str) -> Iterator[None]:
    """Scoped backend override (mirrors ``kernel.use_kernel``)."""
    previous = _BACKEND_OVERRIDE
    set_distance_backend(name)
    try:
        yield
    finally:
        set_distance_backend(previous)


def tile_dtype_from_env() -> type[np.floating]:
    """Tile storage dtype from ``REPRO_TILE_DTYPE`` (default float64)."""
    raw = os.environ.get("REPRO_TILE_DTYPE", "float64").strip().lower()
    try:
        return _VALID_DTYPES[raw]
    except KeyError:
        raise ValueError(
            f"REPRO_TILE_DTYPE={raw!r} is not a tile dtype; "
            f"choose from {sorted(_VALID_DTYPES)}"
        ) from None


def tile_shape_from_env() -> tuple[int, int]:
    """Tile geometry from ``REPRO_TILE_SHAPE`` (``"<users>x<events>"``)."""
    raw = os.environ.get("REPRO_TILE_SHAPE", "").strip().lower()
    if not raw:
        return DEFAULT_TILE_USERS, DEFAULT_TILE_EVENTS
    try:
        users_part, events_part = raw.split("x")
        tile_users, tile_events = int(users_part), int(events_part)
    except ValueError:
        raise ValueError(
            f"REPRO_TILE_SHAPE={raw!r} must look like '1024x256'"
        ) from None
    if tile_users < 1 or tile_events < 1:
        raise ValueError(
            f"REPRO_TILE_SHAPE={raw!r} must have positive extents"
        )
    return tile_users, tile_events


def tile_cache_mib_from_env() -> float:
    """LRU budget from ``REPRO_TILE_CACHE_MIB`` (default 64 MiB)."""
    raw = os.environ.get("REPRO_TILE_CACHE_MIB", "").strip()
    if not raw:
        return DEFAULT_CACHE_MIB
    value = float(raw)
    if value <= 0.0:
        raise ValueError(
            f"REPRO_TILE_CACHE_MIB={raw!r} must be positive"
        )
    return value


def coords_of(points: Sequence[Point]) -> np.ndarray:
    """``(k, 2)`` float64 coordinates of ``points`` (the dense metric's
    own packing, so tile blocks see bit-identical inputs)."""
    if not points:
        return np.zeros((0, 2), dtype=np.float64)
    return np.array([(p.x, p.y) for p in points], dtype=np.float64)


class TiledDistanceMatrix:
    """Lazily tiled user-event distances behind the dense interface.

    Parameters
    ----------
    user_coords / event_coords:
        ``(n, 2)`` / ``(m, 2)`` float64 coordinate arrays; copied, so the
        in-place patch methods never alias a caller's array.
    metric:
        The travel metric (defaults to Euclidean, the paper's choice).
    tile_users / tile_events / cache_mib / dtype:
        Tile geometry, LRU budget, and storage dtype; each defaults to
        its ``REPRO_TILE_*`` env knob.
    """

    def __init__(
        self,
        user_coords: np.ndarray,
        event_coords: np.ndarray,
        metric: TravelMetric | None = None,
        *,
        tile_users: int | None = None,
        tile_events: int | None = None,
        cache_mib: float | None = None,
        dtype: type[np.floating] | None = None,
    ) -> None:
        self._metric: TravelMetric = metric or EUCLIDEAN
        # Owned writable copies: the source may be a caller's array or a
        # read-only view, and the in-place patch methods write these.
        self._user_coords = np.array(
            user_coords, dtype=np.float64, copy=True
        ).reshape(-1, 2)
        self._event_coords = np.array(
            event_coords, dtype=np.float64, copy=True
        ).reshape(-1, 2)
        self._tile_users = (
            tile_users if tile_users is not None else tile_shape_from_env()[0]
        )
        self._tile_events = (
            tile_events
            if tile_events is not None
            else tile_shape_from_env()[1]
        )
        self._cache_bytes = int(
            (cache_mib if cache_mib is not None else tile_cache_mib_from_env())
            * (1 << 20)
        )
        self._dtype: type[np.floating] = (
            dtype if dtype is not None else tile_dtype_from_env()
        )
        self._tiles: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._resident_bytes = 0
        self._peak_resident_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._scalar_serves = 0
        self._row_serves = 0
        self._event_event: np.ndarray | None = None

    @classmethod
    def from_points(
        cls,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
        metric: TravelMetric | None = None,
    ) -> "TiledDistanceMatrix":
        """Construct from ``Point`` sequences (the ``Instance`` path)."""
        return cls(
            coords_of(user_locations), coords_of(event_locations), metric
        )

    # ------------------------------------------------------------------ #
    # Shape / coordinate access
    # ------------------------------------------------------------------ #

    @property
    def n_users(self) -> int:
        return int(self._user_coords.shape[0])

    @property
    def n_events(self) -> int:
        return int(self._event_coords.shape[0])

    @property
    def user_coords(self) -> np.ndarray:
        """``(n, 2)`` user coordinates (read-only view)."""
        view = self._user_coords.view()
        view.flags.writeable = False
        return view

    @property
    def event_coords(self) -> np.ndarray:
        """``(m, 2)`` event coordinates (read-only view)."""
        view = self._event_coords.view()
        view.flags.writeable = False
        return view

    @property
    def metric(self) -> TravelMetric:
        return self._metric

    @property
    def _n_event_tiles(self) -> int:
        return -(-self.n_events // self._tile_events) if self.n_events else 0

    # ------------------------------------------------------------------ #
    # The dense plane is deliberately unavailable
    # ------------------------------------------------------------------ #

    @property
    def user_event_matrix(self) -> np.ndarray:
        """Always raises: the tiled backend never owns the full plane."""
        raise RuntimeError(
            "the tiled distance backend does not materialise the dense "
            "user-event plane; serve through user_event / user_event_row / "
            "user_event_rows instead (see docs/memory.md and lint rule "
            "RL008)"
        )

    @property
    def event_event_matrix(self) -> np.ndarray:
        """The ``m x m`` event-event block (dense, lazy, read-only).

        Events number thousands where users number millions, so this
        block is not the memory wall; it is materialised once on first
        touch with the metric's pairwise elementwise ops (bit-identical
        to the dense backend's block).
        """
        if self._event_event is None:
            block = self._metric.cross_coords(
                self._event_coords, self._event_coords
            )
            block.flags.writeable = False
            self._event_event = block
        return self._event_event

    # ------------------------------------------------------------------ #
    # Tile cache
    # ------------------------------------------------------------------ #

    def _tile(self, user_tile: int, event_tile: int) -> np.ndarray:
        key = (user_tile, event_tile)
        cached = self._tiles.get(key)
        if cached is not None:
            self._tiles.move_to_end(key)
            self._hits += 1
            get_recorder().count("tiles.hits")
            return cached
        self._misses += 1
        u0 = user_tile * self._tile_users
        u1 = min(u0 + self._tile_users, self.n_users)
        e0 = event_tile * self._tile_events
        e1 = min(e0 + self._tile_events, self.n_events)
        block = self._metric.cross_coords(
            self._user_coords[u0:u1], self._event_coords[e0:e1]
        )
        if block.dtype != np.dtype(self._dtype):
            block = block.astype(self._dtype)
        block.flags.writeable = False
        self._tiles[key] = block
        self._resident_bytes += block.nbytes
        if self._resident_bytes > self._peak_resident_bytes:
            self._peak_resident_bytes = self._resident_bytes
        # Evict least-recently-used tiles down to budget, but never the
        # tile just inserted (a tile larger than the whole budget stays
        # resident alone rather than thrashing forever).
        obs = get_recorder()
        while self._resident_bytes > self._cache_bytes and len(self._tiles) > 1:
            _, evicted = self._tiles.popitem(last=False)
            self._resident_bytes -= evicted.nbytes
            self._evictions += 1
            obs.count("tiles.evictions")
        obs.count("tiles.misses")
        obs.gauge("tiles.resident_mib", self._resident_bytes / (1 << 20))
        return block

    def tile_stats(self) -> dict[str, float]:
        """Cache accounting for benches and tests (MiB, counts)."""
        return {
            "hits": float(self._hits),
            "misses": float(self._misses),
            "evictions": float(self._evictions),
            "scalar_serves": float(self._scalar_serves),
            "row_serves": float(self._row_serves),
            "tiles_resident": float(len(self._tiles)),
            "resident_mib": self._resident_bytes / (1 << 20),
            "peak_resident_mib": self._peak_resident_bytes / (1 << 20),
            "peak_backend_mib": self.peak_backend_mib,
            "dense_equiv_plane_mib": self.dense_equiv_plane_mib,
        }

    @property
    def peak_backend_mib(self) -> float:
        """Peak resident footprint of the whole backend: coordinates,
        the dense event-event block (if built), and the tile high-water
        mark.  The denominator of the soak compression gate — scattered
        row serving can legitimately materialise *zero* tiles, and a
        0 MiB denominator would make compression meaningless."""
        event_event = (
            self._event_event.nbytes if self._event_event is not None else 0
        )
        return (
            self._user_coords.nbytes
            + self._event_coords.nbytes
            + event_event
            + self._peak_resident_bytes
        ) / (1 << 20)

    @property
    def dense_equiv_plane_mib(self) -> float:
        """What the dense float64 user-event plane would occupy."""
        return self.n_users * self.n_events * 8 / (1 << 20)

    def _invalidate(
        self,
        *,
        user_tile: int | None = None,
        event_tile: int | None = None,
    ) -> None:
        doomed = [
            key
            for key in self._tiles
            if (user_tile is not None and key[0] == user_tile)
            or (event_tile is not None and key[1] == event_tile)
        ]
        for key in doomed:
            self._resident_bytes -= self._tiles.pop(key).nbytes

    # ------------------------------------------------------------------ #
    # Serving (always float64 at the boundary)
    # ------------------------------------------------------------------ #

    @property
    def _plane_fits_cache(self) -> bool:
        """Whole user-event plane fits inside the LRU budget.

        Small instances (the paper's city sizes) promote every serving
        path to tile builds: total residency is bounded by the plane,
        and after warmup rows and scalars are slice serves at dense
        speed.  The scatter-averse policies below only matter when the
        plane is bigger than the cache — the soak scale.
        """
        itemsize = int(np.dtype(self._dtype).itemsize)
        return self.n_users * self.n_events * itemsize <= self._cache_bytes

    def user_event(self, user: int, event: int) -> float:
        """Distance from ``user``'s home to ``event``'s venue.

        Serves from a resident tile when one covers the pair, but a miss
        computes just this pair directly from the coordinates instead of
        materialising the whole tile: scattered scalar probes (splice
        deltas, rehome scans that walk users in utility order for one
        event) touch a different user-tile almost every call, and
        building a full tile per probe thrashes the LRU at tile-build
        cost per scalar.  (When the whole plane fits in the cache the
        miss builds the tile instead — bounded residency, and repeated
        probes become hits.)  Bit-identical either way — the 1x1
        ``cross_coords`` block evaluates the same elementwise expression
        as the full tile, through the same dtype policy.
        """
        user_tile, local_user = divmod(int(user), self._tile_users)
        event_tile, local_event = divmod(int(event), self._tile_events)
        cached = self._tiles.get((user_tile, event_tile))
        if cached is not None:
            self._tiles.move_to_end((user_tile, event_tile))
            self._hits += 1
            get_recorder().count("tiles.hits")
            return float(cached[local_user, local_event])
        if self._plane_fits_cache:
            block = self._tile(user_tile, event_tile)
            return float(block[local_user, local_event])
        self._scalar_serves += 1
        get_recorder().count("tiles.scalar_serves")
        scalar = getattr(self._metric, "scalar_coords", None)
        if scalar is not None:
            uc = self._user_coords
            ec = self._event_coords
            value = scalar(
                float(uc[user, 0]),
                float(uc[user, 1]),
                float(ec[event, 0]),
                float(ec[event, 1]),
            )
        else:  # protocol outsiders: a 1x1 block is still exact
            value = self._metric.cross_coords(
                self._user_coords[user : user + 1],
                self._event_coords[event : event + 1],
            )[0, 0]
        if np.dtype(self._dtype) != np.float64:
            # Round through the tile dtype so the served value equals
            # what the materialised tile would hold.
            value = self._dtype(value)
        return float(value)

    def event_event(self, first: int, second: int) -> float:
        """Distance between two event venues."""
        return float(self.event_event_matrix[first, second])

    def _direct_rows(self, ids: np.ndarray, e0: int, e1: int) -> np.ndarray:
        """Rows computed straight from coordinates (no tile build).

        Bit-identical to the tile path: the same elementwise metric
        expression over the same coordinates, rounded through the same
        tile dtype (fancy-indexed coordinate rows evaluate cell by cell
        exactly like a contiguous tile slab would).
        """
        block = self._metric.cross_coords(
            self._user_coords[ids], self._event_coords[e0:e1]
        )
        if np.dtype(self._dtype) != np.float64:
            block = block.astype(self._dtype)
        return block

    def user_event_row(self, user: int) -> np.ndarray:
        """All event distances for one user (fresh float64, read-only).

        Resident tiles serve their span; missing spans are computed
        directly from the coordinates.  A single scattered row must not
        materialise tiles — repairs walk users in utility order, so
        consecutive rows land in different user-tiles and a build-per-row
        policy pays ~tile_users times the arithmetic actually needed
        while thrashing the LRU.  (When the whole plane fits in the
        cache, misses build the tile instead: residency stays bounded
        and repeated rows serve as slices.)
        """
        user_tile, local_user = divmod(int(user), self._tile_users)
        row = np.empty(self.n_events, dtype=np.float64)
        obs = get_recorder()
        plane_fits = self._plane_fits_cache
        for event_tile in range(self._n_event_tiles):
            e0 = event_tile * self._tile_events
            e1 = min(e0 + self._tile_events, self.n_events)
            cached = self._tiles.get((user_tile, event_tile))
            if cached is not None:
                self._tiles.move_to_end((user_tile, event_tile))
                self._hits += 1
                obs.count("tiles.hits")
                row[e0:e1] = cached[local_user]
            elif plane_fits:
                row[e0:e1] = self._tile(user_tile, event_tile)[local_user]
            else:
                self._row_serves += 1
                obs.count("tiles.row_serves")
                row[e0:e1] = self._direct_rows(
                    np.asarray([int(user)], dtype=np.intp), e0, e1
                )[0]
        row.flags.writeable = False
        return row

    def user_event_rows(self, users: Sequence[int] | np.ndarray) -> np.ndarray:
        """Distance rows for a batch of users (fresh float64 block).

        Rows are gathered tile by tile, grouped by user-tile.  A group
        that covers at least half of its user-tile materialises the tile
        (dense sweeps — plane publishing, shard partitioning — reuse it
        from the LRU); sparser groups are computed directly from the
        coordinates, since building a tile to serve a few of its rows
        costs more than the rows themselves.  Callers that iterate very
        large user sets should chunk (the batched kernel does) — the
        output block is the only ``len(users) x m`` allocation.
        """
        ids = np.asarray(users, dtype=np.intp).reshape(-1)
        out = np.empty((ids.size, self.n_events), dtype=np.float64)
        if ids.size == 0 or self.n_events == 0:
            return out
        obs = get_recorder()
        plane_fits = self._plane_fits_cache
        user_tiles = ids // self._tile_users
        order = np.argsort(user_tiles, kind="stable")
        start = 0
        total = ids.size
        while start < total:
            user_tile = int(user_tiles[order[start]])
            stop = start
            while stop < total and user_tiles[order[stop]] == user_tile:
                stop += 1
            rows = order[start:stop]
            u0 = user_tile * self._tile_users
            u1 = min(u0 + self._tile_users, self.n_users)
            dense_group = plane_fits or 2 * rows.size >= (u1 - u0)
            local = ids[rows] - u0
            for event_tile in range(self._n_event_tiles):
                e0 = event_tile * self._tile_events
                e1 = min(e0 + self._tile_events, self.n_events)
                if dense_group:
                    out[rows, e0:e1] = self._tile(user_tile, event_tile)[
                        local
                    ]
                    continue
                cached = self._tiles.get((user_tile, event_tile))
                if cached is not None:
                    self._tiles.move_to_end((user_tile, event_tile))
                    self._hits += 1
                    obs.count("tiles.hits")
                    out[rows, e0:e1] = cached[local]
                else:
                    self._row_serves += rows.size
                    obs.count("tiles.row_serves", float(rows.size))
                    out[rows, e0:e1] = self._direct_rows(ids[rows], e0, e1)
            start = stop
        return out

    # ------------------------------------------------------------------ #
    # Copies, slices, and cache-preserving patches (dense-interface
    # compatible; the Point sequences some dense signatures carry are
    # redundant here — coordinates are already resident)
    # ------------------------------------------------------------------ #

    def copy(self) -> "TiledDistanceMatrix":
        """An independent copy; resident tiles are shared (immutable)."""
        clone = object.__new__(TiledDistanceMatrix)
        clone._metric = self._metric
        clone._user_coords = self._user_coords.copy()
        clone._event_coords = self._event_coords.copy()
        clone._tile_users = self._tile_users
        clone._tile_events = self._tile_events
        clone._cache_bytes = self._cache_bytes
        clone._dtype = self._dtype
        clone._tiles = OrderedDict(self._tiles)
        clone._resident_bytes = self._resident_bytes
        clone._peak_resident_bytes = self._peak_resident_bytes
        clone._hits = 0
        clone._misses = 0
        clone._evictions = 0
        clone._scalar_serves = 0
        clone._row_serves = 0
        clone._event_event = self._event_event
        return clone

    def submatrix(
        self,
        user_ids: Sequence[int] | np.ndarray,
        event_ids: Sequence[int] | np.ndarray,
    ) -> "TiledDistanceMatrix":
        """A fresh tiled backend over the sliced coordinates.

        Distances are elementwise in the two endpoint coordinates, so
        recomputing a sliced pair from the same coordinates is
        bit-identical to slicing a dense plane.
        """
        user_ids = np.asarray(user_ids, dtype=np.intp)
        event_ids = np.asarray(event_ids, dtype=np.intp)
        return TiledDistanceMatrix(
            self._user_coords[user_ids],
            self._event_coords[event_ids],
            self._metric,
            tile_users=self._tile_users,
            tile_events=self._tile_events,
            cache_mib=self._cache_bytes / (1 << 20),
            dtype=self._dtype,
        )

    def replace_event_location(
        self,
        event: int,
        location: Point,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
    ) -> None:
        """Move one event: patch its coordinate, drop the tiles (and the
        lazy event-event block) that covered its column."""
        self._event_coords[event] = (location.x, location.y)
        self._invalidate(event_tile=int(event) // self._tile_events)
        self._event_event = None

    def with_event_location(
        self,
        event: int,
        location: Point,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
    ) -> "TiledDistanceMatrix":
        """A patched copy for one moved event (original untouched)."""
        clone = self.copy()
        clone.replace_event_location(
            event, location, user_locations, event_locations
        )
        return clone

    def replace_user_location(
        self,
        user: int,
        location: Point,
        event_locations: Sequence[Point],
    ) -> None:
        """Move one user: patch the coordinate, drop their tile row."""
        self._user_coords[user] = (location.x, location.y)
        self._invalidate(user_tile=int(user) // self._tile_users)

    def with_appended_event(
        self,
        location: Point,
        user_locations: Sequence[Point],
        event_locations: Sequence[Point],
    ) -> "TiledDistanceMatrix":
        """An extended copy with one more event column (IEP ``NewEvent``).

        Only the trailing partial event-tile (whose width grows) is
        dropped; full tiles carry over untouched.
        """
        clone = self.copy()
        old_events = clone.n_events
        clone._event_coords = np.ascontiguousarray(
            np.vstack(
                [
                    clone._event_coords,
                    np.array(
                        [(location.x, location.y)], dtype=np.float64
                    ),
                ]
            )
        )
        if old_events % clone._tile_events != 0:
            clone._invalidate(
                event_tile=old_events // clone._tile_events
            )
        clone._event_event = None
        return clone

"""One-way latency model between hosts.

Model
-----
``one_way(i, j) = access_i + access_j + inflation * dist(i, j) / v + jitter``

* ``access_i`` — per-host last-mile/access-network delay, drawn once per
  host from a lognormal distribution. This is the dominant term for nearby
  pairs and the reason real datacenter coverage saturates well below 100 %
  (Choy et al., NetGames 2012): a sizeable tail of users has 30+ ms of
  access delay that no amount of datacenters removes.
* propagation — Euclidean distance over the speed of light in fibre
  (~200 km/ms), multiplied by a route-inflation factor (~1.6) because IP
  routes are not geodesics.
* ``jitter`` — nonnegative pairwise noise modelling queueing variation.

Network *response* latency for a served player (the quantity compared to
the paper's 30–110 ms game requirements) is an action upload plus a video
download: ``rtt = 2 × one_way``.

Calibration (see ``tests/network/test_calibration.py``): with the default
parameters, 13 datacenters placed in the largest metros reach ≤80 ms RTT
for roughly 65–75 % of clustered users, matching the Choy et al.
measurement the paper cites; 5 datacenters cover well under half the users
at strict (≤50 ms) requirements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.geometry import pairwise_distances_km

#: Propagation speed of light in fibre, km per second.
FIBRE_KM_PER_S = 200_000.0


@dataclass(frozen=True, slots=True)
class LatencyParams:
    """Constants of the latency model (all latencies in seconds).

    Access latency is bimodal, following the Choy et al. measurement the
    paper builds on: most users have decent last-mile connectivity, but a
    sizeable minority ("a sizeable portion of the population would
    experience significantly degraded QoE") has poor access that no
    datacenter placement fixes.
    """

    #: Median of the well-connected majority's access latency.
    access_median_s: float = 0.012
    #: Log-space sigma of the well-connected access latency.
    access_sigma: float = 0.6
    #: Fraction of hosts with poor last-mile connectivity.
    poor_fraction: float = 0.38
    #: Median access latency of the poorly connected minority.
    poor_median_s: float = 0.055
    #: Log-space sigma of the poor access latency.
    poor_sigma: float = 0.5
    #: Multiplier on geometric distance to account for route inflation.
    route_inflation: float = 2.0
    #: Scale of the exponential pairwise jitter.
    jitter_scale_s: float = 0.002
    #: Access-latency multiplier for *same-metro* pairs. Traffic between
    #: two hosts in one metro stays inside the regional network and skips
    #: the congested peering/transit segments that dominate measured
    #: last-mile latency — the physical reason a neighbourhood supernode
    #: can reach players that no datacenter can (paper §I, §III-A).
    local_access_factor: float = 0.3
    #: TCP window bytes bounding per-path streaming throughput: a long-RTT
    #: path delivers at most ``window × 8 / rtt`` bits per second. This is
    #: why "downstream latency is affected by the game video streaming
    #: rate" (§III-A): remote clouds stream slowly, nearby supernodes fast.
    tcp_window_bytes: float = 48 * 1024

    def __post_init__(self) -> None:
        if self.access_median_s < 0 or self.jitter_scale_s < 0:
            raise ValueError("latency scales must be nonnegative")
        if not 0.0 <= self.poor_fraction <= 1.0:
            raise ValueError("poor_fraction must be in [0, 1]")
        if self.route_inflation < 1.0:
            raise ValueError("route inflation must be >= 1")


class LatencyModel:
    """Computes one-way latencies for a fixed host population.

    Parameters
    ----------
    positions_km:
        ``(n, 2)`` host coordinates.
    rng:
        Source of randomness for access latencies and jitter.
    params:
        Model constants.

    Notes
    -----
    Access latencies are drawn once at construction; pairwise jitter is
    drawn deterministically per (i, j) pair via a counter-based hash of the
    pair, so ``one_way(i, j)`` is stable across calls and symmetric.
    """

    def __init__(
        self,
        positions_km: np.ndarray,
        rng: np.random.Generator,
        params: LatencyParams | None = None,
        metro_ids: np.ndarray | None = None,
    ):
        self.params = params or LatencyParams()
        self.positions_km = np.asarray(positions_km, dtype=float)
        if self.positions_km.ndim != 2 or self.positions_km.shape[1] != 2:
            raise ValueError("positions_km must be (n, 2)")
        if metro_ids is None:
            # No metro info: every host in its own metro (no local paths).
            self.metro_ids = -np.arange(
                1, self.positions_km.shape[0] + 1, dtype=int)
        else:
            self.metro_ids = np.asarray(metro_ids, dtype=int)
            if self.metro_ids.shape[0] != self.positions_km.shape[0]:
                raise ValueError("metro_ids must align with positions")
        n = self.positions_km.shape[0]
        p = self.params
        if p.access_median_s > 0:
            good = rng.lognormal(
                np.log(p.access_median_s), p.access_sigma, size=n)
            if p.poor_fraction > 0 and p.poor_median_s > 0:
                poor = rng.lognormal(
                    np.log(p.poor_median_s), p.poor_sigma, size=n)
                is_poor = rng.uniform(size=n) < p.poor_fraction
                self.access_s = np.where(is_poor, poor, good)
            else:
                self.access_s = good
        else:
            self.access_s = np.zeros(n)
        # Independent per-host jitter seeds; pair jitter is derived from
        # them so it is symmetric and reproducible without an O(n^2) table.
        self._jitter_seed = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)

    def override_access(
        self, host_ids: np.ndarray, access_s: np.ndarray | float
    ) -> None:
        """Replace the access latency of selected hosts.

        Datacenters sit in carrier hotels and supernodes are vetted for
        connection quality (paper §III-A-1 requires supernodes to be
        reliable and stable), so both get far better access links than the
        consumer player population.
        """
        host_ids = np.asarray(host_ids, dtype=int)
        self.access_s[host_ids] = access_s

    @property
    def n_hosts(self) -> int:
        return self.positions_km.shape[0]

    # -- scalar API ---------------------------------------------------------
    def propagation_s(self, i: int, j: int) -> float:
        """Distance-dependent propagation delay between hosts i and j."""
        d_km = float(np.hypot(*(self.positions_km[i] - self.positions_km[j])))
        return self.params.route_inflation * d_km / FIBRE_KM_PER_S

    def _pair_jitter_s(self, i: int, j: int) -> float:
        if self.params.jitter_scale_s == 0:
            return 0.0
        lo, hi = (i, j) if i <= j else (j, i)
        mask = (1 << 64) - 1
        mix = int(self._jitter_seed[lo]) ^ (
            (int(self._jitter_seed[hi]) * 0x9E3779B97F4A7C15) & mask)
        # murmur-style scramble -> uniform in (0, 1)
        x = mix & mask
        x ^= x >> 33
        x = (x * 0xFF51AFD7ED558CCD) & mask
        x ^= x >> 33
        u = (float(x) + 1.0) / (2.0**64 + 2.0)
        return -self.params.jitter_scale_s * float(np.log(u))

    def _access_pair_s(self, i: int, j: int) -> float:
        """Summed access latency of a pair, with the same-metro discount."""
        total = self.access_s[i] + self.access_s[j]
        if self.metro_ids[i] == self.metro_ids[j]:
            total *= self.params.local_access_factor
        return float(total)

    def one_way_s(self, i: int, j: int) -> float:
        """One-way latency between hosts ``i`` and ``j`` in seconds."""
        if i == j:
            return 0.0
        return (self._access_pair_s(i, j)
                + self.propagation_s(i, j) + self._pair_jitter_s(i, j))

    def rtt_s(self, i: int, j: int) -> float:
        """Round-trip (network response) latency between two hosts."""
        return 2.0 * self.one_way_s(i, j)

    # -- vectorized API -----------------------------------------------------
    def one_way_matrix_s(
        self, sources: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """One-way latency from each source host to each target host.

        Parameters
        ----------
        sources, targets:
            Integer index arrays into the host population.

        Returns
        -------
        ``(len(sources), len(targets))`` latency matrix in seconds.

        Notes
        -----
        Jitter here uses its expected value (``jitter_scale_s``) rather
        than the per-pair draw: the matrix form exists for the coverage
        scans over 10 000 x 600 pairs where the per-pair scramble would
        dominate runtime without changing any reported aggregate.
        """
        sources = np.asarray(sources, dtype=int)
        targets = np.asarray(targets, dtype=int)
        dist = pairwise_distances_km(
            self.positions_km[sources], self.positions_km[targets])
        prop = self.params.route_inflation * dist / FIBRE_KM_PER_S
        access = (self.access_s[sources][:, None]
                  + self.access_s[targets][None, :])
        if sources.size and targets.size:
            same_metro = (self.metro_ids[sources][:, None]
                          == self.metro_ids[targets][None, :])
            access = np.where(
                same_metro, access * self.params.local_access_factor, access)
        lat = access + prop + self.params.jitter_scale_s
        if sources.size and targets.size:
            same = sources[:, None] == targets[None, :]
            lat = np.where(same, 0.0, lat)
        return lat

    def rtt_matrix_s(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Round-trip latency matrix (2 x one-way)."""
        return 2.0 * self.one_way_matrix_s(sources, targets)

    # -- streaming throughput -------------------------------------------------
    def path_throughput_bps(self, i: int, j: int) -> float:
        """Best-case streaming throughput of the (i, j) path.

        Window-limited transport over a long path delivers at most
        ``window × 8 / rtt`` — the mechanism that makes remote-cloud
        video streaming slow and neighbourhood streaming fast.
        """
        rtt = self.rtt_s(i, j)
        if rtt <= 0:
            return float("inf")
        return 8.0 * self.params.tcp_window_bytes / rtt


class RegionalLatency:
    """Lazy region-granular propagation latency (DESIGN.md §11).

    The all-pairs host model above precomputes or derives O(n²)
    quantities — unusable for a million players. At scale the latency of
    a served player decomposes into a per-player access term plus a
    region-to-region propagation term, so this model keeps only region
    centroids and computes each region's propagation *row* on first use,
    caching it in an ``(regions, regions)`` table. Memory is O(regions²)
    — never O(players²).

    All row math uses ``sqrt(dx² + dy²)`` and exact ``+ * /`` only (no
    ``hypot``, no libm), so cached rows — and the digests of every run
    built on them — are bit-identical across platforms.
    """

    def __init__(self, centers_km: np.ndarray,
                 params: LatencyParams | None = None):
        self.params = params or LatencyParams()
        self.centers_km = np.asarray(centers_km, dtype=np.float64)
        if self.centers_km.ndim != 2 or self.centers_km.shape[1] != 2:
            raise ValueError("centers_km must be (n_regions, 2)")
        n = self.centers_km.shape[0]
        # Row ``r`` is filled when row ``r`` is first computed; cached
        # rows are read-only views of it.
        self._table = np.zeros((n, n), dtype=np.float64)
        self._rows: dict[int, np.ndarray] = {}

    @property
    def n_regions(self) -> int:
        return self.centers_km.shape[0]

    @property
    def cached_rows(self) -> int:
        """Propagation rows computed so far (memory-bound observability)."""
        return len(self._rows)

    def propagation_row_s(self, region: int) -> np.ndarray:
        """Propagation delay from ``region`` to every region (cached)."""
        row = self._rows.get(region)
        if row is None:
            if not 0 <= region < self.n_regions:
                raise IndexError(f"region {region} out of range")
            d = self.centers_km - self.centers_km[region]
            dist_km = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
            self._table[region] = (
                self.params.route_inflation * dist_km / FIBRE_KM_PER_S)
            row = self._table[region]
            row.flags.writeable = False
            self._rows[region] = row
        return row

    def propagation_s(self, i: int, j: int) -> float:
        """Propagation delay between two regions."""
        return float(self.propagation_row_s(int(i))[int(j)])

    def gather_s(self, src_regions: np.ndarray,
                 dst_regions: np.ndarray) -> np.ndarray:
        """Elementwise propagation ``src[i] → dst[i]`` for aligned arrays.

        Computes only the missing rows of regions present in
        ``src_regions``, then reads every pair from the row table in one
        O(len) lookup. Both arrays must hold region ids in range.
        """
        src = np.asarray(src_regions)
        dst = np.asarray(dst_regions)
        n = self.n_regions
        if len(self._rows) < n:
            for r in np.flatnonzero(np.bincount(src, minlength=n)):
                self.propagation_row_s(int(r))
        flat = src * n
        flat += dst
        return self._table.take(flat)

    def full_matrix_s(self) -> np.ndarray:
        """All-pairs region propagation (O(regions²); reporting only)."""
        return np.vstack([self.propagation_row_s(r)
                          for r in range(self.n_regions)])


def sample_access_latency_s(
    rng: np.random.Generator,
    n: int,
    params: LatencyParams | None = None,
) -> np.ndarray:
    """Per-player last-mile latency for scale populations.

    Same bimodal intent as :class:`LatencyModel`'s lognormal draw — a
    well-connected majority plus a poorly connected tail — but built
    from uniforms with a rational transform only (``+ - * /``): no libm
    transcendentals, so the drawn values, and every golden digest
    downstream, are bit-identical across platforms and BLAS builds.
    """
    p = params or LatencyParams()
    u = rng.random(n)
    v = rng.random(n)
    # Right-skewed shape: ~0.45 at u=0, ≈1.0 at the median, bounded
    # ×4.45 tail — a lognormal-ish profile out of exact field
    # operations. The bound keeps the worst last mile inside the most
    # tolerant tier's deadline, so adaptation can always stabilise a
    # player instead of leaving an undeliverable tail diverged forever.
    u2 = u * u
    shape = 0.45 + u + 3.0 * (u2 * u2 * u2)
    good = (p.access_median_s * 0.85) * shape
    poor = (p.poor_median_s * 0.85) * shape
    return np.where(v < p.poor_fraction, poor, good)

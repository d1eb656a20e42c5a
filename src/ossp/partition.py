"""Domain types for weight-ordered samples and the record -> partition reduction."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class EmptyInput(ValueError):
    """No records to reduce."""


class WeightConflict(ValueError):
    """One species label appeared with two distinct weights (corrupt input)."""


class MalformedCsv(ValueError):
    """Input CSV does not match the weight,species schema."""


@dataclass(frozen=True)
class PypParams:
    """Ordered Pitman-Yor parameters: 0 <= alpha < 1 and theta > 0.

    theta > 0 is required by the ordered posterior laws, so the whole
    artifact adopts it (the classical EPPF alone would admit theta > -alpha).
    """

    alpha: float
    theta: float

    def __post_init__(self):
        if not (isinstance(self.alpha, (int, float)) and math.isfinite(self.alpha)
                and 0.0 <= self.alpha < 1.0):
            raise ValueError(f"alpha must be a finite real in [0, 1), got {self.alpha!r}")
        if not (isinstance(self.theta, (int, float)) and math.isfinite(self.theta)
                and self.theta > 0.0):
            raise ValueError(f"theta must be a finite real > 0, got {self.theta!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class OrderedPartition:
    """Frequencies (m_1, ..., m_k) of species ranked by decreasing weight.

    Order 1 is the species with the largest weight (the oldest, under the
    age interpretation).
    """

    freqs: tuple

    def __post_init__(self):
        freqs = tuple(int(f) for f in self.freqs)
        if len(freqs) == 0:
            raise EmptyInput("a partition needs at least one species")
        if any(f < 1 for f in freqs):
            raise ValueError(f"all frequencies must be >= 1, got {freqs}")
        object.__setattr__(self, "freqs", freqs)

    @property
    def n(self) -> int:
        return sum(self.freqs)

    @property
    def k(self) -> int:
        return len(self.freqs)

    def tails(self) -> np.ndarray:
        """r_j = m_j + ... + m_k for j = 1..k, plus r_{k+1} = 0 (0-based array)."""
        r = np.zeros(self.k + 1, dtype=np.int64)
        r[:-1] = np.cumsum(np.asarray(self.freqs[::-1], dtype=np.int64))[::-1]
        return r


@dataclass(frozen=True, eq=False)
class ObservedSample:
    """Raw (weight, species) records plus their ordered-partition reduction."""

    records: tuple
    partition: OrderedPartition
    order_labels: tuple       # species label at each order rank
    arrival_order: tuple      # first-appearance record index at each order rank

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def k(self) -> int:
        return self.partition.k

    @property
    def m1(self) -> int:
        return self.partition.freqs[0]


@dataclass(frozen=True, eq=False)
class PrefixStats:
    """K and M_1 recomputed on the first n_i records, for a grid n_1 <= ... <= n_d = n."""

    grid: tuple
    k_at: tuple
    m1_at: tuple


def reduce_records(records: Iterable) -> ObservedSample:
    """Group records by species, rank species by decreasing weight.

    Ties between distinct species are broken by earlier first appearance
    (older). Magnitudes of the weights matter only through the ranking.
    """
    recs = tuple((float(w), str(s)) for w, s in records)
    if not recs:
        raise EmptyInput("no records")
    weight: dict = {}
    count: dict = {}
    first_seen: dict = {}
    for i, (w, s) in enumerate(recs):
        if not math.isfinite(w):
            raise ValueError(f"record {i}: weight must be finite, got {w}")
        if s in weight:
            if weight[s] != w:
                raise WeightConflict(
                    f"species {s!r} has weights {weight[s]} and {w}")
            count[s] += 1
        else:
            weight[s] = w
            count[s] = 1
            first_seen[s] = i
    order = sorted(weight, key=lambda s: (-weight[s], first_seen[s]))
    return ObservedSample(
        records=recs,
        partition=OrderedPartition(tuple(count[s] for s in order)),
        order_labels=tuple(order),
        arrival_order=tuple(first_seen[s] for s in order),
    )


def prefix_stats(sample: ObservedSample, d: int) -> PrefixStats:
    """Equally spaced prefix grid ending at n, deduplicated after rounding."""
    n = sample.n
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n={n}, got d={d}")
    grid = sorted({max(1, int(round(i * n / d))) for i in range(1, d + 1)})
    k_at, m1_at = [], []
    for g in grid:
        part = reduce_records(sample.records[:g]).partition
        k_at.append(part.k)
        m1_at.append(part.freqs[0])
    return PrefixStats(tuple(grid), tuple(k_at), tuple(m1_at))


def read_records_csv(source) -> list:
    """Parse `weight,species` CSV (header required) into a record list."""
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_records_csv(fh)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedCsv("empty file") from None
    if [h.strip().lower() for h in header] != ["weight", "species"]:
        raise MalformedCsv(f"expected header weight,species; got {header}")
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise MalformedCsv(f"line {lineno}: expected 2 fields, got {len(row)}")
        try:
            w = float(row[0])
        except ValueError:
            raise MalformedCsv(f"line {lineno}: bad weight {row[0]!r}") from None
        records.append((w, row[1]))
    if not records:
        raise MalformedCsv("no data rows")
    return records


def write_records_csv(records: Sequence, dest) -> None:
    """Write records as `weight,species` CSV."""
    if isinstance(dest, (str, bytes)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_records_csv(records, fh)
            return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["weight", "species"])
    for w, s in records:
        writer.writerow([repr(float(w)), s])

"""Harness pieces shared by every workload.

Timing, summary statistics, memory readings, the synthetic descriptor
sets the index workloads feed the program, and the benchmark's own
Equation-2 oracle.  The oracle is written here from the paper's
definition (mutual nearest neighbours under a Hamming ceiling, a Lowe
ratio test in both directions, Jaccard over the two sets) and never
calls the program's matching code, so a fault there shows as a
disagreement instead of agreeing with itself.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: Paper constants the oracles use (Sec. III-B, Eq. 2).  The EDR
#: threshold at full battery is T = 0.013 + 0.006 * 1.0.
EDR_THRESHOLD_FULL = 0.013 + 0.006 * 1.0
HAMMING_CEILING = 28
LOWE_RATIO = 0.7
DESCRIPTOR_BYTES = 32

#: Descriptors per synthetic image, drawn uniformly from this range.
#: The program's ORB on the 72x96 fleet scenes yields 42-120 per image
#: with a mean near 81.
DESCRIPTORS_PER_IMAGE = (42, 121)
#: A re-capture has this share of its source's row count.  Views of the
#: fleet scenes keep a median 0.9 of the canonical view's rows.
RECAPTURE_SIZE = 0.9
#: Range of the share of a re-capture's rows copied from its source, and
#: of each copied row's bit-flip rate.  Fitted so that a re-capture's
#: rows mutually match the source at the share (median 0.42, tenth to
#: ninetieth percentile 0.32-0.51) and Hamming distance (about 12 bits)
#: of the program's ORB on re-photographed fleet scenes; see ``fit_orb.py``.
RECAPTURE_KEEP = (0.32, 0.52)
RECAPTURE_FLIP = (0.01, 0.09)
MODEL_PATH = pathlib.Path(__file__).resolve().parent / "orb_model.json"


def nproc() -> int:
    """CPUs this process may run on (the container's share, not the host's)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def now() -> float:
    return time.perf_counter()


@dataclass
class Tally:
    """Operations, their latencies and the oracle verdicts of one run."""

    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0
    query_s: "list[float]" = field(default_factory=list)
    add_s: "list[float]" = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Re-captures whose source the LSH shortlist missed, as documented.
    recall_misses: int = 0

    def ops_per_s(self) -> float:
        return self.attempted / self.timed_s if self.timed_s > 0 else 0.0

    def __add__(self, other: "Tally") -> "Tally":
        """The counts of two measurements together (latencies stay apart)."""
        return Tally(
            attempted=self.attempted + other.attempted,
            failed=self.failed + other.failed,
            timed_s=self.timed_s + other.timed_s,
            recall_misses=self.recall_misses + other.recall_misses,
        )


def fresh_start() -> None:
    """Before a pass (untimed): free the last pass's index and empty the cache.

    A fresh server in a fresh process starts with an empty match-count
    cache; without the clear, a pass over the same images would be
    served from the one before.  The collection frees reference cycles
    now, so they do not inflate the next pass's memory or time.
    """
    import gc

    from repro.kernels.cache import get_match_cache

    gc.collect()
    get_match_cache().clear()


def cache_counts(tally) -> "tuple[int, int]":
    """*tally*'s cache hits and misses plus this pass's (counted since
    :func:`fresh_start` reset them)."""
    from repro.kernels.cache import get_match_cache

    stats = get_match_cache().stats()
    return tally.cache_hits + stats["hits"], tally.cache_misses + stats["misses"]


def hit_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values: "list[float]") -> float:
    return float(np.mean(values)) if len(values) else 0.0


def tenth_ratio(times: "list[float]") -> float:
    """Mean of the last tenth of *times* over the mean of the first tenth."""
    if len(times) < 10:
        return 0.0
    tenth = len(times) // 10
    first = float(np.mean(times[:tenth]))
    last = float(np.mean(times[-tenth:]))
    return last / first if first > 0 else 0.0


def _vm_hwm_kib(pid: "int | str") -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def self_peak_rss_mib() -> float:
    """This process's peak resident set, MiB."""
    kib = _vm_hwm_kib("self") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def children_peak_rss_mib() -> float:
    """Sum of the live child processes' peak resident sets, MiB.

    Read just before an index's workers are closed, so each worker's
    high-water mark covers its whole life.
    """
    import multiprocessing

    return sum(
        _vm_hwm_kib(child.pid) for child in multiprocessing.active_children()
    ) / 1024.0


def _child_pids() -> "list[int]":
    """Pids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    pids = []
    for entry in pathlib.Path("/proc").glob("[0-9]*"):
        try:
            # The command name in field 2 may hold spaces; the parent
            # pid is the second field after its closing parenthesis.
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_child_processes(timeout: float = 10.0) -> None:
    """End every process this run started and wait until each has ended.

    The index closes its own shard workers; this catches what is left.
    Worker pools started with ``spawn`` also start multiprocessing's
    resource tracker, which by design outlives its parent until it reads
    end-of-file on its pipe.  Closing that pipe here and waiting for the
    tracker keeps it from running on after the benchmark has exited.
    """
    import signal
    import sys

    if "multiprocessing" in sys.modules:
        import multiprocessing

        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout)
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        try:
            os.waitpid(tracker._pid, 0)
        except ChildProcessError:  # already reaped
            pass
        tracker._pid = None
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


# -- synthetic descriptor sets ------------------------------------------------


@functools.lru_cache(maxsize=None)
def _orb_model() -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Latent loadings, residual scales and per-bit thresholds of the model."""
    model = json.loads(MODEL_PATH.read_text())
    normal = statistics.NormalDist()
    thresholds = np.array([normal.inv_cdf(1.0 - p) for p in model["bit_probability"]])
    loadings = np.asarray(model["loadings"], dtype=np.float64)
    residual = np.sqrt(1.0 - (loadings**2).sum(axis=1))
    return loadings, residual, thresholds


class DescriptorSynth:
    """Seeded binary descriptor sets: novel images and planted re-captures.

    Rows come from a Gaussian-copula model fitted to the program's ORB
    output on the fleet scenes (``orb_model.json``, written by
    ``fit_orb.py``): each bit keeps its measured probability and the
    bits keep their leading correlations, so LSH buckets fill and
    queries vote as they do on real ORB rows.  A novel image is fresh
    rows.  A re-capture copies a share in ``RECAPTURE_KEEP`` of its size
    from the source's rows, each with its own bit-flip rate, and fills the rest
    with fresh rows.
    """

    def __init__(self, seed: int, stream: int) -> None:
        self.rng = np.random.default_rng([seed, stream])

    def _size(self) -> int:
        return int(self.rng.integers(*DESCRIPTORS_PER_IMAGE))

    def rows(self, n: int) -> np.ndarray:
        loadings, residual, thresholds = _orb_model()
        latent = self.rng.standard_normal((n, loadings.shape[1])) @ loadings.T
        latent += self.rng.standard_normal((n, len(thresholds))) * residual
        return np.packbits(latent > thresholds, axis=1)

    def novel(self) -> np.ndarray:
        return self.rows(self._size())

    def recapture(self, source: np.ndarray) -> np.ndarray:
        size = max(1, int(round(RECAPTURE_SIZE * len(source))))
        share = self.rng.uniform(*RECAPTURE_KEEP)
        n_keep = min(len(source), int(round(share * size)))
        keep = self.rng.choice(len(source), size=n_keep, replace=False)
        bits = np.unpackbits(source[np.sort(keep)], axis=1)
        rate = self.rng.uniform(*RECAPTURE_FLIP, size=(n_keep, 1))
        bits ^= (self.rng.random(bits.shape) < rate).astype(np.uint8)
        rows = np.concatenate([np.packbits(bits, axis=1), self.rows(size - n_keep)])
        return rows[self.rng.permutation(len(rows))]


def feature_set(image_id: str, descriptors: np.ndarray):
    """The program's feature type around synthetic ORB-shaped rows."""
    from repro.features.base import FeatureSet

    n = len(descriptors)
    return FeatureSet(
        kind="orb",
        descriptors=descriptors,
        xs=np.zeros(n),
        ys=np.zeros(n),
        pixels_processed=0,
        image_id=image_id,
    )


# -- the Eq. 2 oracle ---------------------------------------------------------


def _signs(descriptors: np.ndarray) -> np.ndarray:
    """Rows as +-1 float32 bit vectors: Hamming = (256 - a.b) / 2."""
    bits = np.unpackbits(descriptors, axis=1).astype(np.float32)
    return 1.0 - 2.0 * bits


def hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n_bits = 8 * DESCRIPTOR_BYTES
    return np.rint((n_bits - _signs(a) @ _signs(b).T) / 2.0).astype(np.int64)


def mutual_matches(distances: np.ndarray) -> int:
    """Mutual nearest neighbours within the ceiling that pass the ratio test."""
    n_rows, n_cols = distances.shape
    if n_rows == 0 or n_cols == 0:
        return 0
    best_col = distances.argmin(axis=1)
    best_row = distances.argmin(axis=0)
    rows = np.arange(n_rows)
    best = distances[rows, best_col]
    keep = (best_row[best_col] == rows) & (best <= HAMMING_CEILING)
    if n_cols >= 2:
        keep &= best <= LOWE_RATIO * np.sort(distances, axis=1)[:, 1]
    if n_rows >= 2:
        keep &= best <= LOWE_RATIO * np.sort(distances, axis=0)[1, :][best_col]
    return int(keep.sum())


def jaccard(n_a: int, n_b: int, matches: int) -> float:
    if n_a == 0 and n_b == 0:
        return 0.0
    union = n_a + n_b - matches
    return 1.0 if union <= 0 else matches / union


def eq2(a: np.ndarray, b: np.ndarray) -> float:
    """Equation 2 between two descriptor matrices."""
    if len(a) == 0 or len(b) == 0:
        return jaccard(len(a), len(b), 0)
    return jaccard(len(a), len(b), mutual_matches(hamming(a, b)))


class LshOracle:
    """The index's documented CBRD answer, computed apart from the program.

    Bit-sampling LSH as ``FeatureIndex`` documents it: ``n_tables``
    tables keyed by ``bits_per_key`` bit positions each, drawn in turn by
    ``numpy.random.default_rng(seed).choice(256, bits_per_key,
    replace=False)``; bit ``j`` of a table's sample weighs ``2**j``.  A
    stored image sits once in each of its rows' buckets and gets one
    vote per (query row, table) whose bucket holds it.  The shortlist is
    the ``top_k`` best-voted images by (votes desc, id asc); the answer
    is the best Eq. 2 score among them by (score desc, id asc).  The
    shortlist is approximate by design, so the answer need not be the
    best stored image.
    """

    def __init__(
        self,
        ids: "list[str]",
        stored: "list[np.ndarray]",
        n_tables: int = 8,
        bits_per_key: int = 16,
        seed: int = 7,
        top_k: int = 5,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.samples = np.stack(
            [rng.choice(256, size=bits_per_key, replace=False) for _ in range(n_tables)]
        )
        self.ids, self.stored, self.top_k = ids, stored, top_k
        self.number = {image_id: number for number, image_id in enumerate(ids)}
        self.buckets: "list[dict[int, list[int]]]" = [{} for _ in range(n_tables)]
        for number, rows in enumerate(stored):
            for table, keys in enumerate(self._keys(rows).T):
                for key in set(keys.tolist()):
                    self.buckets[table].setdefault(key, []).append(number)

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        bits = np.unpackbits(rows, axis=1)[:, self.samples].astype(np.int64)
        return bits @ (1 << np.arange(self.samples.shape[1], dtype=np.int64))

    def shortlist(self, rows: np.ndarray, n_stored: int) -> "list[int]":
        """Numbers of the shortlisted images among the first *n_stored*."""
        hits: "list[int]" = []
        for table, keys in enumerate(self._keys(rows).T):
            for key in keys.tolist():
                hits.extend(self.buckets[table].get(key, ()))
        votes = np.bincount(np.asarray(hits, dtype=np.int64), minlength=len(self.ids))
        votes = votes[:n_stored]
        ranked = sorted(
            np.nonzero(votes)[0].tolist(), key=lambda n: (-votes[n], self.ids[n])
        )
        return ranked[: self.top_k]

    def answer(
        self, rows: np.ndarray, n_stored: int
    ) -> "tuple[str | None, float, list[str]]":
        """Best id, its score, and the shortlisted ids of one query."""
        shortlist = [self.ids[number] for number in self.shortlist(rows, n_stored)]
        scored = sorted(
            ((eq2(rows, self.stored[self.number[i]]), i) for i in shortlist),
            key=lambda pair: (-pair[0], pair[1]),
        )
        if not scored:
            return None, 0.0, shortlist
        return scored[0][1], scored[0][0], shortlist


def brute_force_max(
    queries: "list[np.ndarray]", stored: "list[np.ndarray]", limits: "list[int]"
) -> "list[float]":
    """Max Eq. 2 score of each query over the first ``limits[i]`` stored sets.

    Walks the stored rows in chunks: a Hamming block per query and
    chunk, then exact mutual matching only for stored images with a row
    within the ceiling of the query (the rest score 0 exactly).
    """
    best = [0.0] * len(queries)
    q_signs = [_signs(q) for q in queries]
    chunk = 128
    for start in range(0, max(limits, default=0), chunk):
        block = stored[start : start + chunk]
        offsets = np.cumsum([0] + [len(s) for s in block])
        block_signs = _signs(np.concatenate(block)).T
        for qi, signs in enumerate(q_signs):
            if start >= limits[qi] or len(signs) == 0:
                continue
            distances = np.rint(
                (8 * DESCRIPTOR_BYTES - signs @ block_signs) / 2.0
            ).astype(np.int64)
            near = np.minimum.reduceat(distances.min(axis=0), offsets[:-1])
            for local in np.nonzero(near <= HAMMING_CEILING)[0]:
                if start + int(local) >= limits[qi]:
                    continue
                pair = distances[:, offsets[local] : offsets[local + 1]]
                score = jaccard(pair.shape[0], pair.shape[1], mutual_matches(pair))
                best[qi] = max(best[qi], score)
    return best


"""The server-side workloads: ``cbrd_query``, ``ingest``, ``ingest_durable``.

All three feed the program synthetic ORB-shaped descriptor sets
(:class:`pb_common.DescriptorSynth`), so client feature extraction is
bypassed and the timed phase is index work only.  Each operation is
one image handed to the index: a CBRD ``query`` or an ``add``.
"""

from __future__ import annotations

import os
import pathlib
import shutil
from dataclasses import dataclass

import numpy as np

import pb_common as pc
from pb_common import Tally, now

#: Stored descriptors the read-heavy index and the ingest passes reach:
#: about 500 images of ORB size.  On ORB-like rows an add costs about
#: 12 ms and a query votes for every stored image, and every run pays
#: three pre-builds or one full pass, so this sets most of a run's
#: length: at 8x10^4 a ``cbrd_query`` run took about 80 s.
TARGET_DESCRIPTORS = 40_000
TINY_TARGET_DESCRIPTORS = 5_000

#: ``cbrd_query`` round: planted re-captures, novel queries, then adds.
CBRD_RECAPTURES, CBRD_NOVEL, CBRD_ADDS = 6, 4, 1
#: Rounds of ``cbrd_query`` traffic synthesised in set-up.
CBRD_POOL_ROUNDS = 120
#: Fewest rounds a ``cbrd_query`` run measures, however short
#: ``--seconds``, so that its one add per round gives ``add_p50_ms``
#: enough samples.  About 9 s of timed work on the reference box.
CBRD_MIN_ROUNDS = 120

#: ``ingest`` round: new images (queried, then added) and re-captures.
INGEST_NEW, INGEST_RECAPTURES = 16, 4
#: Durable-ingest probe set: re-captures of stored images plus novel.
PROBE_RECAPTURES, PROBE_NOVEL = 16, 16

#: About this many queries per pass are checked against the documented
#: LSH answer even when they meet their expectation.
EXACT_SAMPLES = 24


@dataclass
class Query:
    features: object
    #: The stored image this query re-captures; ``None`` for a novel image.
    source: "str | None"


@dataclass
class Round:
    queries: "list[Query]"
    adds: list


@dataclass
class Outcome:
    """What one query returned, plus what the oracle needs to judge it."""

    query: Query
    best_id: "str | None"
    similarity: float
    #: Stored images at query time (a prefix of the insertion order).
    n_stored: int
    error: "str | None" = None
    #: Set by :func:`judge` when an oracle rejects the answer.
    failed: bool = False


class Store:
    """Descriptor sets the index holds, in insertion order (for the oracle)."""

    def __init__(self) -> None:
        self.order: "list[np.ndarray]" = []
        self.ids: "list[str]" = []
        #: Insertion number of each stored image id.
        self.number: "dict[str, int]" = {}

    def add(self, features) -> None:
        self.number[features.image_id] = len(self.ids)
        self.order.append(features.descriptors)
        self.ids.append(features.image_id)

    def __len__(self) -> int:
        return len(self.order)

    @property
    def n_descriptors(self) -> int:
        return int(sum(len(rows) for rows in self.order))


def _timed_query(index, query: Query, store: Store, tally: Tally) -> None:
    tally.attempted += 1
    t0 = now()
    try:
        result = index.query(query.features)
    except Exception as exc:  # a raising operation is a failed one
        tally.query_s.append(now() - t0)
        tally.outcomes.append(
            Outcome(query, None, 0.0, len(store), error=f"{type(exc).__name__}: {exc}")
        )
        return
    tally.query_s.append(now() - t0)
    tally.outcomes.append(
        Outcome(query, result.best_id, result.best_similarity, len(store))
    )


def _timed_add(index, features, store: Store, tally: Tally) -> None:
    tally.attempted += 1
    t0 = now()
    try:
        index.add(features)
    except Exception:  # a raising operation is a failed one
        tally.add_s.append(now() - t0)
        tally.failed += 1
        return
    tally.add_s.append(now() - t0)
    store.add(features)


def judge(tally: Tally, store: Store) -> "list[str]":
    """Apply the oracles to every recorded query; counts failures.

    Every planted re-capture must return its source above the
    full-battery EDR threshold and every novel image must score at or
    below it; an answer naming an image not stored when the query ran
    fails.  A sample of queries, and every query that misses its
    expectation, is also answered by :class:`pb_common.LshOracle`: the
    program's id and similarity must equal the documented LSH answer,
    scored by the benchmark's own Eq. 2.  A re-capture whose source is
    missing from the documented shortlist, answered as documented, is a
    recall miss of the approximate shortlist: it is counted in
    ``tally.recall_misses``, not as a failure.
    """
    problems: "list[str]" = []
    bad: "set[int]" = set()
    oracle = None
    stride = max(1, len(tally.outcomes) // EXACT_SAMPLES)
    for position, outcome in enumerate(tally.outcomes):
        query = outcome.query
        name = query.features.image_id
        if outcome.error is not None:
            bad.add(position)
            problems.append(f"{name}: raised {outcome.error}")
            continue
        if outcome.best_id is not None and not (
            store.number.get(outcome.best_id, outcome.n_stored) < outcome.n_stored
        ):
            bad.add(position)
            problems.append(f"{name}: answered unstored image {outcome.best_id}")
            continue
        if query.source is not None:
            met = (
                outcome.best_id == query.source
                and outcome.similarity > pc.EDR_THRESHOLD_FULL
            )
        else:
            met = outcome.similarity <= pc.EDR_THRESHOLD_FULL
        if met and position % stride:
            continue
        if oracle is None:
            oracle = pc.LshOracle(store.ids, store.order)
        best_id, similarity, shortlist = oracle.answer(
            query.features.descriptors, outcome.n_stored
        )
        if (outcome.best_id, outcome.similarity) != (best_id, similarity):
            bad.add(position)
            problems.append(
                f"{name}: answered {outcome.best_id}/{outcome.similarity!r}, "
                f"documented LSH answer {best_id}/{similarity!r}"
            )
        elif met:
            continue
        elif query.source is not None and query.source not in shortlist:
            tally.recall_misses += 1
        else:
            bad.add(position)
            expected = f"re-capture of {query.source}" if query.source else "novel image"
            problems.append(
                f"{name}: {expected} answered {outcome.best_id} at "
                f"{outcome.similarity:.4f}"
            )
    for position in bad:
        tally.outcomes[position].failed = True
    tally.failed += len(bad)
    return problems


# -- traffic ------------------------------------------------------------------


def _novel(synth: pc.DescriptorSynth, image_id: str):
    return pc.feature_set(image_id, synth.novel())


def _recapture(synth: pc.DescriptorSynth, image_id: str, source) -> Query:
    return Query(
        pc.feature_set(image_id, synth.recapture(source.descriptors)),
        source.image_id,
    )


class CbrdTraffic:
    """A pre-built corpus plus rounds of single CBRD queries and rare adds."""

    def __init__(self, seed: int, target: int) -> None:
        self._synth = pc.DescriptorSynth(seed, stream=11)
        self.corpus = []
        total = 0
        while total < target:
            features = _novel(self._synth, f"c{len(self.corpus):06d}")
            self.corpus.append(features)
            total += len(features)
        self._pick = np.random.default_rng([seed, 12])
        self.rounds: "list[Round]" = []
        self.extend(CBRD_POOL_ROUNDS)

    def extend(self, n_rounds: int) -> None:
        for _ in range(n_rounds):
            number = len(self.rounds)
            queries = [
                _recapture(
                    self._synth,
                    f"q{number:05d}-r{slot}",
                    self.corpus[int(self._pick.integers(len(self.corpus)))],
                )
                for slot in range(CBRD_RECAPTURES)
            ] + [
                Query(_novel(self._synth, f"q{number:05d}-n{slot}"), None)
                for slot in range(CBRD_NOVEL)
            ]
            adds = [
                _novel(self._synth, f"a{number:05d}-{slot}")
                for slot in range(CBRD_ADDS)
            ]
            self.rounds.append(Round(queries, adds))


class IngestTraffic:
    """Rounds that grow an index from empty, plus a post-run probe set."""

    def __init__(self, seed: int, target: int) -> None:
        synth = pc.DescriptorSynth(seed, stream=21)
        pick = np.random.default_rng([seed, 22])
        self.rounds: "list[Round]" = []
        added: list = []
        total = 0
        while total < target:
            number = len(self.rounds)
            new = [
                _novel(synth, f"i{number:04d}-{slot:02d}")
                for slot in range(INGEST_NEW)
            ]
            recaptures = (
                [
                    _recapture(
                        synth,
                        f"i{number:04d}-r{slot}",
                        added[int(pick.integers(len(added)))],
                    )
                    for slot in range(INGEST_RECAPTURES)
                ]
                if added
                else []
            )
            self.rounds.append(
                Round([Query(f, None) for f in new] + recaptures, new)
            )
            added.extend(new)
            total += sum(len(f) for f in new)
        self.probes = [
            _recapture(synth, f"p-r{slot:02d}", added[int(pick.integers(len(added)))])
            for slot in range(PROBE_RECAPTURES)
        ] + [
            Query(_novel(synth, f"p-n{slot:02d}"), None)
            for slot in range(PROBE_NOVEL)
        ]

    @property
    def n_images(self) -> int:
        return sum(len(r.adds) for r in self.rounds)


def _run_round(index, round_: Round, store: Store, tally: Tally) -> None:
    """Queries against the frozen index, then the adds, as the fleet's barrier."""
    for query in round_.queries:
        _timed_query(index, query, store, tally)
    for features in round_.adds:
        _timed_add(index, features, store, tally)


# -- cbrd_query ------------------------------------------------------------------


class CbrdQueryWorkload:
    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.target = TINY_TARGET_DESCRIPTORS if tiny else TARGET_DESCRIPTORS
        self.min_rounds = 2 if tiny else CBRD_MIN_ROUNDS
        #: Peak resident MiB of this process, read before the oracles run.
        self.peak_mib = 0.0

    def setup(self) -> None:
        from repro.index import FeatureIndex

        self.traffic = CbrdTraffic(self.seed, self.target)
        self.index = FeatureIndex(kind="orb")
        self.store = Store()
        self.build_add_s: "list[float]" = []
        for features in self.traffic.corpus:
            t0 = now()
            self.index.add(features)
            self.build_add_s.append(now() - t0)
            self.store.add(features)

    def _rounds(self):
        number = 0
        while True:
            if number == len(self.traffic.rounds):
                # Synthesis is outside the timed phase; the pool only
                # runs dry when the program is far faster than today.
                self.traffic.extend(CBRD_POOL_ROUNDS)
            yield self.traffic.rounds[number]
            number += 1

    def measure(self, seconds: float) -> "tuple[Tally, list[str]]":
        pc.fresh_start()
        tally = Tally()
        rounds = self._rounds()
        number = 0
        while tally.timed_s < seconds or number < self.min_rounds:
            number += 1
            round_ = next(rounds)
            t0 = now()
            _run_round(self.index, round_, self.store, tally)
            tally.timed_s += now() - t0
        self.peak_mib = pc.self_peak_rss_mib()
        return tally, judge(tally, self.store)

    def measure_traced(self, seconds: float) -> "tuple[Tally, list[str], dict]":
        """Alternate plain rounds with rounds through the composed query path.

        The composed path calls the index's public steps one by one
        (pack + hash, group, vote, rank, verify) and times each; its
        answer must equal the index's own ``query`` on the same state.
        """
        from repro.index.index import rank_votes, verify_candidates
        from repro.kernels.cache import get_match_cache
        from repro.kernels.voting import group_query_keys

        pc.fresh_start()
        index = self.index
        steps = {name: [] for name in ("hash", "group", "vote", "rank", "verify")}
        voted: "list[int]" = []
        shortlisted: "list[int]" = []
        recall_hits = recall_total = 0
        plain, traced = Tally(), Tally()
        mismatches: "list[str]" = []
        # Cache lookups are counted over the composed path only: the
        # equality check re-asks query() and would hit every pair.
        cache = get_match_cache()
        cache_hits = cache_misses = 0
        rounds = self._rounds()
        number = 0
        while (
            plain.timed_s + traced.timed_s < seconds or number < self.min_rounds
        ):
            round_ = next(rounds)
            if number % 2 == 0:
                t0 = now()
                _run_round(index, round_, self.store, plain)
                plain.timed_s += now() - t0
            else:
                for query in round_.queries:
                    features = query.features
                    traced.attempted += 1
                    before = cache.stats()
                    t0 = now()
                    keys = index.hash_keys(index.packed_descriptors(features))
                    t1 = now()
                    grouped = group_query_keys(keys)
                    t2 = now()
                    votes = index.vote_counts_from_grouped(grouped)
                    t3 = now()
                    shortlist = rank_votes(votes, index.verify_top_k)
                    t4 = now()
                    top = verify_candidates(
                        features, [index.features_of(i) for i in shortlist], 1
                    )
                    t5 = now()
                    for name, start, end in (
                        ("hash", t0, t1),
                        ("group", t1, t2),
                        ("vote", t2, t3),
                        ("rank", t3, t4),
                        ("verify", t4, t5),
                    ):
                        steps[name].append(end - start)
                    after = cache.stats()
                    cache_hits += after["hits"] - before["hits"]
                    cache_misses += after["misses"] - before["misses"]
                    traced.query_s.append(t5 - t0)
                    traced.timed_s += t5 - t0
                    voted.append(len(votes))
                    shortlisted.append(len(shortlist))
                    if query.source is not None:
                        recall_total += 1
                        recall_hits += query.source in shortlist
                    best_id, similarity = top[0] if top else (None, 0.0)
                    traced.outcomes.append(
                        Outcome(query, best_id, similarity, len(self.store))
                    )
                    expected = index.query(features)  # untimed equality check
                    if (best_id, similarity) != (
                        expected.best_id,
                        expected.best_similarity,
                    ):
                        traced.failed += 1
                        mismatches.append(
                            f"{features.image_id}: composed path answered "
                            f"{best_id}/{similarity!r}, query() answered "
                            f"{expected.best_id}/{expected.best_similarity!r}"
                        )
                for features in round_.adds:
                    t0 = now()
                    _timed_add(index, features, self.store, traced)
                    traced.timed_s += now() - t0
            number += 1
        problems = judge(plain, self.store) + judge(traced, self.store) + mismatches
        per_op_plain = plain.timed_s / max(1, plain.attempted)
        per_op_traced = traced.timed_s / max(1, traced.attempted)
        attributed = sum(sum(v) for v in steps.values()) + sum(traced.add_s)
        layers = {
            f"index.{name}_ms": 1e3 * pc.mean(values) for name, values in steps.items()
        }
        layers.update(
            {
                "index.voted_images_per_query": pc.mean(voted),
                "index.verified_pairs_per_query": pc.mean(shortlisted),
                "index.shortlist_recall": (
                    recall_hits / recall_total if recall_total else 0.0
                ),
                "index.add_ms": 1e3 * pc.mean(self.build_add_s),
                "index.add_growth_ratio": pc.tenth_ratio(self.build_add_s),
                "index.stored_descriptors": float(self.store.n_descriptors),
                "kernels.match_cache_hit_ratio": pc.hit_ratio(cache_hits, cache_misses),
                "trace.overhead_ratio": per_op_traced / per_op_plain,
                "trace.unattributed_share": 1.0 - attributed / traced.timed_s,
            }
        )
        return plain + traced, problems, layers

    def close(self) -> None:
        pass


# -- ingest (thread shards) ---------------------------------------------------


class IngestWorkload:
    """Grow thread-shard indexes from empty, one whole pass at a time."""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.target = TINY_TARGET_DESCRIPTORS if tiny else TARGET_DESCRIPTORS
        #: Peak resident MiB of this process, read before the oracles run.
        self.peak_mib = 0.0
        self.n_shards = pc.nproc()

    def setup(self) -> None:
        self.traffic = IngestTraffic(self.seed, self.target)

    def _pass(self, tally: Tally) -> "tuple[Store, list[str]]":
        from repro.index import ShardedFeatureIndex

        pc.fresh_start()
        index = ShardedFeatureIndex(kind="orb", n_shards=self.n_shards)
        store = Store()
        start = len(tally.outcomes)
        t0 = now()
        for round_ in self.traffic.rounds:
            _run_round(index, round_, store, tally)
        tally.timed_s += now() - t0
        tally.cache_hits, tally.cache_misses = pc.cache_counts(tally)
        self.peak_mib = max(self.peak_mib, pc.self_peak_rss_mib())
        part = Tally(outcomes=tally.outcomes[start:])
        problems = judge(part, store)
        tally.failed += part.failed
        tally.recall_misses += part.recall_misses
        return store, problems

    def measure(self, seconds: float) -> "tuple[Tally, list[str]]":
        tally = Tally()
        problems: "list[str]" = []
        while tally.timed_s < seconds:
            problems += self._pass(tally)[1]
        return tally, problems

    def measure_traced(self, seconds: float) -> "tuple[Tally, list[str], dict]":
        from repro import obs as obs_pkg

        plain = Tally()
        problems = self._pass(plain)[1]
        traced = Tally()
        obs_pkg.configure()
        try:
            store, more = self._pass(traced)
        finally:
            obs_pkg.disable()
        problems += more
        attributed = sum(traced.query_s) + sum(traced.add_s)
        layers = {
            "index.add_ms": 1e3 * pc.mean(traced.add_s),
            "index.add_growth_ratio": pc.tenth_ratio(traced.add_s),
            "index.stored_descriptors": float(store.n_descriptors),
            "kernels.match_cache_hit_ratio": pc.hit_ratio(
                traced.cache_hits, traced.cache_misses
            ),
            "trace.overhead_ratio": traced.timed_s / plain.timed_s,
            "trace.unattributed_share": 1.0 - attributed / traced.timed_s,
        }
        return plain + traced, problems, layers

    def close(self) -> None:
        pass


# -- ingest_durable (process shards + segments) -------------------------------


def _disk_bytes(directory: pathlib.Path) -> int:
    return sum(
        path.stat().st_size for path in directory.rglob("*") if path.is_file()
    )


class IngestDurableWorkload:
    """The ``ingest`` traffic through worker-process shards with segments.

    Each pass opens a fresh pool on an empty segment directory (outside
    the timed phase), runs the rounds, then seals, closes, reopens from
    the segments and answers the probe set, all timed.  The shard
    fingerprints after reopening must equal those before closing, and
    the probes must answer as they did before closing.
    """

    def __init__(self, seed: int, tiny: bool, scratch: pathlib.Path) -> None:
        self.seed = seed
        self.target = TINY_TARGET_DESCRIPTORS if tiny else TARGET_DESCRIPTORS
        #: Peak resident MiB of this process, read before the oracles run.
        self.peak_mib = 0.0
        self.n_shards = pc.nproc()
        self.scratch = scratch
        self.spawn_s: "list[float]" = []
        self.peak_children_mib = 0.0
        self._passes = 0
        self.index = None

    def _open(self, directory: pathlib.Path):
        from repro.index import ProcessShardedIndex

        return ProcessShardedIndex(
            kind="orb",
            n_shards=self.n_shards,
            segment_dir=str(directory),
            mp_context="spawn",
        )

    def _fresh_pool(self) -> None:
        self._passes += 1
        self.directory = self.scratch / f"pass-{self._passes:03d}"
        shutil.rmtree(self.directory, ignore_errors=True)
        t0 = now()
        self.index = self._open(self.directory)
        self.spawn_s.append(now() - t0)

    def _release(self) -> None:
        if self.index is not None:
            self.index.close()
            self.index = None

    def setup(self) -> None:
        self._release()
        self.traffic = IngestTraffic(self.seed, self.target)
        self._fresh_pool()

    def _sample_children_rss(self) -> None:
        self.peak_children_mib = max(
            self.peak_children_mib, pc.children_peak_rss_mib()
        )

    def _pass(self, tally: Tally, layers: dict) -> "tuple[Store, list[str]]":
        pc.fresh_start()
        if self.index is None:
            self._fresh_pool()
        index = self.index
        store = Store()
        problems: "list[str]" = []
        start = len(tally.outcomes)
        t0 = now()
        for round_ in self.traffic.rounds:
            _run_round(index, round_, store, tally)
        t1 = now()
        index.seal()
        seal_s = now() - t1
        rounds_and_seal = now() - t0
        # Untimed checks against the state before close.
        before = index.fingerprints()
        probes_before = [index.query(q.features) for q in self.traffic.probes]
        self._sample_children_rss()
        t2 = now()
        index.close()
        self.index = None
        t3 = now()
        reopened = self._open(self.directory)
        recover_s = now() - t3
        close_and_reopen = now() - t2
        try:
            after = reopened.fingerprints()
            t4 = now()
            for query in self.traffic.probes:
                _timed_query(reopened, query, store, tally)
            probe_s = now() - t4
            self._sample_children_rss()
        finally:
            reopened.close()
        tally.timed_s += rounds_and_seal + close_and_reopen + probe_s
        if after != before:
            tally.failed += len(self.traffic.probes)
            problems.append(
                f"shard fingerprints changed across close/reopen: {before} -> {after}"
            )
        probe_outcomes = tally.outcomes[-len(self.traffic.probes) :]
        for query, old, new in zip(self.traffic.probes, probes_before, probe_outcomes):
            if (old.best_id, old.best_similarity) != (new.best_id, new.similarity):
                new.error = (
                    f"answered {new.best_id}/{new.similarity!r} after reopening, "
                    f"{old.best_id}/{old.best_similarity!r} before closing"
                )
        self.peak_mib = max(self.peak_mib, pc.self_peak_rss_mib())
        part = Tally(outcomes=tally.outcomes[start:])
        problems += judge(part, store)
        tally.failed += part.failed
        tally.recall_misses += part.recall_misses
        layers.setdefault("seal_s", []).append(seal_s)
        layers.setdefault("recover_s", []).append(recover_s)
        layers.setdefault("bytes_per_image", []).append(
            _disk_bytes(self.directory) / max(1, self.traffic.n_images)
        )
        shutil.rmtree(self.directory, ignore_errors=True)
        return store, problems

    def measure(self, seconds: float) -> "tuple[Tally, list[str]]":
        tally = Tally()
        problems: "list[str]" = []
        while tally.timed_s < seconds:
            problems += self._pass(tally, {})[1]
        return tally, problems

    def measure_traced(self, seconds: float) -> "tuple[Tally, list[str], dict]":
        from repro import obs as obs_pkg

        plain = Tally()
        problems = self._pass(plain, {})[1]
        problems += self._compare_with_threads(plain)
        traced = Tally()
        parts: dict = {}
        obs = obs_pkg.configure()
        try:
            store, more = self._pass(traced, parts)
            ipc = obs.index_ipc_seconds
            ipc_count = ipc_sum = 0.0
            for op in ("add", "vote", "verify", "control"):
                series = ipc.value(op=op)
                ipc_count += series.count
                ipc_sum += series.sum
        finally:
            obs_pkg.disable()
        problems += more
        attributed = (
            sum(traced.query_s)
            + sum(traced.add_s)
            + sum(parts["seal_s"])
            + sum(parts["recover_s"])
        )
        layers = {
            "procpool.spawn_s": float(np.median(self.spawn_s)),
            "procpool.query_ms": 1e3 * pc.mean(traced.query_s),
            "procpool.add_ms": 1e3 * pc.mean(traced.add_s),
            "procpool.ipc_ms": 1e3 * ipc_sum / ipc_count if ipc_count else 0.0,
            "segments.seal_ms": 1e3 * pc.mean(parts["seal_s"]),
            "segments.recover_s": pc.mean(parts["recover_s"]),
            "segments.bytes_per_image": pc.mean(parts["bytes_per_image"]),
            "index.add_ms": 1e3 * pc.mean(traced.add_s),
            "index.add_growth_ratio": pc.tenth_ratio(traced.add_s),
            "index.stored_descriptors": float(store.n_descriptors),
            "trace.overhead_ratio": traced.timed_s / plain.timed_s,
            "trace.unattributed_share": 1.0 - attributed / traced.timed_s,
        }
        return plain + traced, problems, layers

    def _compare_with_threads(self, durable: Tally) -> "list[str]":
        """Every durable answer must equal thread-mode ``ingest`` on the same traffic."""
        threads = IngestWorkload(self.seed, tiny=False)
        threads.traffic = self.traffic
        reference = Tally()
        threads._pass(reference)
        expected = {
            o.query.features.image_id: (o.best_id, o.similarity)
            for o in reference.outcomes
        }
        problems = []
        for outcome in durable.outcomes:
            image_id = outcome.query.features.image_id
            if (
                not outcome.failed
                and image_id in expected
                and expected[image_id] != (outcome.best_id, outcome.similarity)
            ):
                durable.failed += 1
                problems.append(
                    f"{image_id}: process shards answered "
                    f"{outcome.best_id}/{outcome.similarity!r}, thread shards "
                    f"{expected[image_id]}"
                )
        return problems

    def close(self) -> None:
        self._release()
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass


def scratch_dir(root: pathlib.Path, workload: str) -> pathlib.Path:
    """A per-run directory for segment files, inside the checkout."""
    return root / ".perfbench_tmp" / f"{workload}-{os.getpid()}"

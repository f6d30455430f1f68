"""The ``fleet`` workload: phones running the whole BEES pipeline.

One pass is one :class:`~repro.fleet.FleetRunner` run (scheme ``bees``,
concurrent mode) of 8 devices x batch 8 x 3 rounds of the default
72x96 :class:`~repro.fleet.FleetWorkload` scenes, on a fresh server.
A cycle is one pass over each of ``PASSES_PER_CYCLE`` workloads with
their own scene seeds, so a run averages over more scenes than one
workload's four shared ones.  Batches are synthesised in set-up and
served to the runner from memory.  Each captured image is one
operation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import pb_common as pc
from pb_common import Tally, now

N_DEVICES, BATCH_SIZE, N_ROUNDS = 8, 8, 3
TINY_DEVICES, TINY_ROUNDS = 2, 2
PASSES_PER_CYCLE = 2

#: The stage spans directly under ``bees.batch``: the layers a device
#: job's time is split into.
STAGE_SPANS = (
    "bees.afe",
    "bees.feature_upload",
    "bees.cbrd",
    "bees.ssmm",
    "bees.aiu",
    "bees.image_upload",
)


@functools.lru_cache(maxsize=None)
def _classes():
    """Program classes, imported late so a missing tree fails in ``main``."""
    from repro.core.server import BeesServer
    from repro.fleet import FleetRunner, FleetWorkload

    @dataclass
    class PreparedWorkload(FleetWorkload):
        """The fleet's batches, synthesised once and served from memory."""

        batches: dict = field(default_factory=dict, repr=False)

        def synthesise(self) -> None:
            self.batches = {
                (device, round_no): super(PreparedWorkload, self).batch_for(
                    device, round_no
                )
                for round_no in range(self.n_rounds)
                for device in range(self.n_devices)
            }

        def batch_for(self, device: int, round_no: int):
            return list(self.batches[(device, round_no)])

    class TimedServer(BeesServer):
        """Times each CBRD query and each barrier add from outside."""

        def query_features(self, features):
            t0 = now()
            result = super().query_features(features)
            self.tally.query_s.append(now() - t0)
            return result

        def receive_image(self, image, features, received_bytes=None):
            t0 = now()
            super().receive_image(image, features, received_bytes)
            self.tally.add_s.append(now() - t0)
            self.tally.stored_descriptors += len(features)

    class TimedRunner(FleetRunner):
        tally: "FleetTally"

        def _build_server(self):
            server = TimedServer(index=super()._build_server().index)
            server.tally = self.tally
            return server

    return PreparedWorkload, TimedRunner


@dataclass
class FleetTally(Tally):
    """A fleet run's tally plus what the phones sent and spent."""

    stored_descriptors: int = 0
    bytes_sent: int = 0
    nominal_bytes: int = 0
    joules: float = 0.0


def expected_verdicts(workload) -> "dict[str, str]":
    """Each image's verdict, derived from the workload's documented layout.

    The first ``round(batch * shared_fraction)`` slots photograph
    fleet-shared scenes that persist across rounds; every third private
    slot (``slot % 3 == 2``) re-shoots the private slot before it.
    Round-0 shared shots and private first shots are new to the server,
    shared re-captures from round 1 on are already indexed, and exactly
    one image of each re-shoot pair survives in-batch selection.
    """
    n_shared = int(round(workload.batch_size * workload.shared_fraction))
    verdicts = {}
    for device in range(workload.n_devices):
        for round_no in range(workload.n_rounds):
            for slot in range(workload.batch_size):
                image_id = f"d{device:02d}-r{round_no:02d}-i{slot:02d}"
                reshoot = slot % 3 == 2 and slot - 1 >= n_shared
                has_reshoot = (
                    slot >= n_shared
                    and (slot + 1) % 3 == 2
                    and slot + 1 < workload.batch_size
                )
                if slot < n_shared:
                    verdicts[image_id] = "cross" if round_no >= 1 else "upload"
                elif reshoot or has_reshoot:
                    pair = slot - 1 if reshoot else slot
                    verdicts[image_id] = f"pair:d{device:02d}-r{round_no:02d}-{pair:02d}"
                else:
                    verdicts[image_id] = "upload"
    return verdicts


def judge_fleet(result, workload) -> "tuple[int, list[str]]":
    """Failed images of one pass against the scene-layout oracle."""
    expected = expected_verdicts(workload)
    actual: "dict[str, list[str]]" = {}
    for device in result.devices:
        for image_id in device.uploaded_ids:
            actual.setdefault(image_id, []).append("upload")
        for image_id in device.eliminated_cross_batch:
            actual.setdefault(image_id, []).append("cross")
        for image_id in device.eliminated_in_batch:
            actual.setdefault(image_id, []).append("in_batch")
    bad: "set[str]" = set()
    problems = []
    pairs: "dict[str, list[str]]" = {}
    for image_id, want in expected.items():
        got = actual.get(image_id, [])
        if want.startswith("pair:"):
            pairs.setdefault(want, []).append(image_id)
            if len(got) != 1 or got[0] not in ("upload", "in_batch"):
                bad.add(image_id)
        elif got != [want]:
            bad.add(image_id)
            problems.append(f"{image_id}: expected {want}, got {got or 'nothing'}")
    for pair, members in pairs.items():
        verdicts = [actual.get(m, ["?"])[0] for m in members]
        if sorted(verdicts) != ["in_batch", "upload"]:
            bad.update(members)
            problems.append(f"re-shoot pair {members}: verdicts {verdicts}")
    return len(bad), problems


class FleetBench:
    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n_devices = TINY_DEVICES if tiny else N_DEVICES
        self.n_rounds = TINY_ROUNDS if tiny else N_ROUNDS
        self.threads = pc.nproc()
        self.synth_s_per_image = 0.0

    def setup(self) -> None:
        PreparedWorkload, _ = _classes()
        self.workloads = [
            PreparedWorkload(
                n_devices=self.n_devices,
                n_rounds=self.n_rounds,
                batch_size=BATCH_SIZE,
                seed=self.seed * PASSES_PER_CYCLE + number,
            )
            for number in range(PASSES_PER_CYCLE)
        ]
        t0 = now()
        for workload in self.workloads:
            workload.synthesise()
        self.synth_s_per_image = (now() - t0) / (self.n_images * PASSES_PER_CYCLE)

    @property
    def n_images(self) -> int:
        return self.n_devices * self.n_rounds * BATCH_SIZE

    def _runner(self, workload, tally, mode="concurrent", n_shards=None):
        _, TimedRunner = _classes()
        runner = TimedRunner(
            n_devices=self.n_devices,
            n_rounds=self.n_rounds,
            batch_size=BATCH_SIZE,
            n_shards=self.threads if n_shards is None else n_shards,
            seed=workload.seed,
            scheme="bees",
            mode=mode,
            workers=self.threads if mode == "concurrent" else None,
            workload=workload,
        )
        runner.tally = tally
        return runner

    def _pass(self, workload, tally: FleetTally, problems: "list[str]"):
        pc.fresh_start()
        runner = self._runner(workload, tally)
        t0 = now()
        result = runner.run()
        tally.timed_s += now() - t0
        tally.attempted += self.n_images
        tally.cache_hits, tally.cache_misses = pc.cache_counts(tally)
        failed, found = judge_fleet(result, workload)
        nominal = sum(
            image.nominal_bytes for batch in workload.batches.values() for image in batch
        )
        if not result.total_bytes < nominal:
            failed = self.n_images
            found.append(
                f"uplink bytes {result.total_bytes} not below Direct Upload's {nominal}"
            )
        tally.failed += failed
        problems += found
        tally.bytes_sent += result.total_bytes
        tally.nominal_bytes += nominal
        tally.joules += result.total_energy_joules
        return result

    def _cycle(self, tally: FleetTally, problems: "list[str]") -> list:
        return [self._pass(w, tally, problems) for w in self.workloads]

    def measure(self, seconds: float) -> "tuple[FleetTally, list[str]]":
        tally = FleetTally()
        problems: "list[str]" = []
        while tally.timed_s < seconds:
            self._cycle(tally, problems)
        return tally, problems

    def measure_traced(self, seconds: float) -> "tuple[FleetTally, list[str], dict]":
        from repro import obs as obs_pkg

        problems: "list[str]" = []
        plain = FleetTally()
        candidate = self._cycle(plain, problems)[0]
        mismatch = self._check_equivalence(candidate)
        if mismatch:
            plain.failed = plain.attempted
            problems += mismatch

        traced = FleetTally()
        obs = obs_pkg.configure()
        try:
            self._cycle(traced, problems)
            spans = obs.tracer.snapshot_finished()
        finally:
            obs_pkg.disable()
        by_name: "dict[str, list[float]]" = {}
        n_features: "list[int]" = []
        for span in spans:
            by_name.setdefault(span.name, []).append(span.duration)
            if span.name == "features.extract":
                n_features.append(span.attributes.get("n_features", 0))

        def total(name: str) -> float:
            return sum(by_name.get(name, []))

        def mean_ms(name: str) -> float:
            return 1e3 * pc.mean(by_name.get(name, []))

        split = self._afe_split()
        device_s = total("fleet.device")
        commit_s = sum(traced.add_s)
        stage_s = sum(total(name) for name in STAGE_SPANS)
        layers = {
            "synth.ms_per_image": 1e3 * self.synth_s_per_image,
            "afe.extract_ms": mean_ms("bees.afe"),
            "afe.fast_ms": split["fast"],
            "afe.harris_ms": split["harris"],
            "afe.describe_ms": split["describe"],
            "afe.descriptors_per_image": pc.mean(n_features),
            "cbrd.query_ms": mean_ms("bees.cbrd"),
            "kernels.match_cache_hit_ratio": pc.hit_ratio(
                traced.cache_hits, traced.cache_misses
            ),
            "index.add_ms": 1e3 * pc.mean(traced.add_s),
            "index.add_growth_ratio": pc.tenth_ratio(traced.add_s),
            "index.stored_descriptors": traced.stored_descriptors
            / (traced.attempted / self.n_images),
            "ssmm.select_ms": mean_ms("bees.ssmm"),
            "aiu.prepare_ms": mean_ms("bees.aiu"),
            "uplink.upload_ms": 1e3
            * (total("bees.feature_upload") + total("bees.image_upload"))
            / traced.attempted,
            "fleet.device_batch_ms": mean_ms("fleet.device"),
            "fleet.commit_ms": 1e3 * commit_s / (self.n_rounds * PASSES_PER_CYCLE),
            "fleet.parallel_efficiency": device_s / (traced.timed_s * self.threads),
            "trace.overhead_ratio": traced.timed_s / plain.timed_s,
            # Busy time is device-job thread time plus the barrier
            # commits; what no stage span covers is unattributed.
            "trace.unattributed_share": 1.0
            - (stage_s + commit_s) / (device_s + commit_s),
        }
        return plain + traced, problems, layers

    def _check_equivalence(self, candidate) -> "list[str]":
        """The concurrent sharded pass must match a sequential single-index run."""
        from repro.errors import SimulationError
        from repro.fleet import assert_equivalent

        pc.fresh_start()
        reference = self._runner(
            self.workloads[0], FleetTally(), mode="sequential", n_shards=1
        ).run()
        try:
            assert_equivalent(reference, candidate)
        except SimulationError as exc:
            return [f"fleet equivalence: {exc}"]
        return []

    def _afe_split(self) -> "dict[str, float]":
        """Per-image FAST, Harris and description time of ORB, in ms.

        Extracts the fleet's round-0 images with the program's
        ``OrbExtractor`` while timing the public keypoint functions it
        calls.  Description is the rest of ``extract`` outside
        ``detect_fast`` (pyramid, orientation-steered BRIEF, ranking).
        """
        import repro.features.keypoints as keypoints
        import repro.features.orb as orb

        spent = {"fast": 0.0, "harris": 0.0, "detect": 0.0, "extract": 0.0}

        def timed(function, key):
            def wrapper(*args, **kwargs):
                t0 = now()
                try:
                    return function(*args, **kwargs)
                finally:
                    spent[key] += now() - t0

            return wrapper

        originals = (
            keypoints.fast_corner_mask,
            keypoints.harris_response,
            orb.detect_fast,
        )
        keypoints.fast_corner_mask = timed(originals[0], "fast")
        keypoints.harris_response = timed(originals[1], "harris")
        orb.detect_fast = timed(originals[2], "detect")
        images = [
            image
            for device in range(self.n_devices)
            for image in self.workloads[0].batches[(device, 0)]
        ]
        try:
            extractor = orb.OrbExtractor()
            for image in images:
                t0 = now()
                extractor.extract(image)
                spent["extract"] += now() - t0
        finally:
            (
                keypoints.fast_corner_mask,
                keypoints.harris_response,
                orb.detect_fast,
            ) = originals
        per_image = 1e3 / len(images)
        return {
            "fast": spent["fast"] * per_image,
            "harris": spent["harris"] * per_image,
            "describe": (spent["extract"] - spent["detect"]) * per_image,
        }

    def close(self) -> None:
        pass

"""The replay load generator and the loopback-fleet end-to-end runs.

The e2e tests spawn real ``jpg serve`` worker processes (the same code a
distributed deployment runs), replay a zipf-skewed stream with every
client routing through its own ``FleetClient`` (:mod:`tests.cluster.
replay`), and assert the acceptance properties directly: zero lost
requests (including with any node SIGKILLed mid-replay), warm-pass cache
hits, and byte identity against direct generation.
"""

import collections
import threading

import numpy as np
import pytest

from repro.cluster import HashRing, LocalFleet
from tests.cluster.replay import replay, salted_keys, verify_keys, zipf_sequence

pytestmark = [pytest.mark.cluster, pytest.mark.serve]


class TestZipf:
    def test_deterministic_and_in_range(self):
        a = zipf_sequence(16, 1000, skew=1.1, seed=4)
        b = zipf_sequence(16, 1000, skew=1.1, seed=4)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 16

    def test_skew_concentrates_popularity(self):
        seq = zipf_sequence(64, 5000, skew=1.3, seed=0)
        counts = collections.Counter(seq.tolist())
        top = sum(n for _, n in counts.most_common(6))
        assert top > 0.4 * len(seq)               # head keys dominate

    def test_zero_skew_is_roughly_uniform(self):
        seq = zipf_sequence(8, 8000, skew=0.0, seed=0)
        counts = collections.Counter(seq.tolist())
        assert all(700 < n < 1300 for n in counts.values())


@pytest.fixture(scope="module")
def live_fleet(demo_project, tmp_path_factory):
    """A running 3-node loopback fleet over the demo base."""
    tmp = tmp_path_factory.mktemp("fleet")
    base_path = str(tmp / "base.bit")
    demo_project.base_bitfile.save(base_path)
    fleet = LocalFleet("XCV50", base_path, nodes=3, workdir=str(tmp / "work"))
    fleet.start()
    yield fleet
    fleet.stop()


class TestFleetEndToEnd:
    def test_replay_cold_then_warm(self, demo_project, live_fleet):
        """The fleet smoke: 1000 zipf requests over 32 keys from 4
        clients, cold then warm, losing nothing and serving every key
        the bytes direct generation gives."""
        keys = salted_keys(demo_project, 32)
        seq = zipf_sequence(len(keys), 1000, skew=1.1, seed=1)
        cold = replay(live_fleet.addresses, keys, seq,
                      target="cold", concurrency=4)
        assert cold.requests == 1000
        assert cold.errors == 0, cold.error_samples
        assert cold.mismatches == 0
        assert cold.sources.get("generated", 0) >= 1
        warm = replay(live_fleet.addresses, keys, seq,
                      target="warm", concurrency=4)
        assert warm.requests == 1000
        assert warm.errors == 0, warm.error_samples
        assert warm.mismatches == 0
        # every key generated at most once fleet-wide: the warm pass is
        # served entirely from the tiered cache
        assert warm.sources.get("generated", 0) == 0
        assert warm.sources.get("disk", 0) + warm.sources.get("peer", 0) == 1000
        assert warm.rps > 0 and warm.histogram.count == 1000
        # the warm pass served the cold pass's bytes, key for key
        assert warm.key_sha == {k: cold.key_sha[k] for k in warm.key_sha}
        verdict = verify_keys(demo_project, keys, warm, sample=8)
        assert verdict["ok"], verdict
        assert verdict["identical"] == verdict["sampled"] == 8

    def test_byte_identity_against_direct_generation(self, demo_project,
                                                     live_fleet):
        keys = salted_keys(demo_project, 4)
        seq = zipf_sequence(len(keys), 12, skew=1.0, seed=2)
        stats = replay(live_fleet.addresses, keys, seq, concurrency=2)
        assert stats.errors == 0
        verdict = verify_keys(demo_project, keys, stats, sample=3)
        assert verdict["ok"], verdict
        assert verdict["identical"] == verdict["sampled"] == 3

    @pytest.mark.parametrize("victim", ["n0", "n1", "n2"])
    def test_kill_any_node_mid_replay_loses_zero_requests(
            self, demo_project, tmp_path, victim):
        """The acceptance chaos case: SIGKILL any node while the stream
        is in flight; each client moves the dead node's keys on to the
        next owner and sees every response."""
        base_path = str(tmp_path / "base.bit")
        demo_project.base_bitfile.save(base_path)
        with LocalFleet("XCV50", base_path, nodes=3,
                        workdir=str(tmp_path / "work")) as fleet:
            # 10 keys: every node owns some of the stream's later keys
            keys = salted_keys(demo_project, 10)
            seq = zipf_sequence(len(keys), 60, skew=1.1, seed=3)
            ring = HashRing(fleet.addresses)
            owned = [i for i in seq[30:]
                     if ring.owner(keys[i].request().digest()) == victim]
            assert owned, "the victim must own keys requested after the kill"
            # one cheap pass so every node holds its shard's bytes
            warmup = replay(fleet.addresses, keys,
                            zipf_sequence(len(keys), 12, seed=3),
                            concurrency=2)
            assert warmup.errors == 0
            killed = threading.Event()

            def chaos(done):
                if done >= 20 and not killed.is_set():
                    killed.set()
                    fleet.kill(victim)             # SIGKILL, no drain

            stats = replay(fleet.addresses, keys, seq,
                           concurrency=3, on_progress=chaos)
            assert killed.is_set()
            assert stats.requests == 60
            assert stats.errors == 0, stats.error_samples
            assert stats.ok == 60
            assert stats.mismatches == 0           # failover bytes identical

"""Consistent-hash ring: determinism, balance, minimal key movement."""

import pytest

from repro.cluster import HashRing
from repro.errors import ServeError

pytestmark = pytest.mark.cluster

UNIQUE_KEYS = [f"key-{i}" for i in range(2000)]


class TestPlacement:
    def test_owner_is_deterministic_across_instances(self):
        a = HashRing(["n0", "n1", "n2"])
        b = HashRing(["n2", "n0", "n1"])          # insertion order irrelevant
        for key in UNIQUE_KEYS[:200]:
            assert a.owner(key) == b.owner(key)

    def test_every_key_has_exactly_one_owner(self):
        ring = HashRing(["n0", "n1", "n2"])
        for key in UNIQUE_KEYS[:200]:
            assert ring.owner(key) in ring.nodes

    def test_empty_ring_raises(self):
        with pytest.raises(ServeError, match="empty"):
            HashRing().owner("k")
        assert HashRing().owners("k") == []

    def test_vnodes_must_be_positive(self):
        with pytest.raises(ServeError):
            HashRing(vnodes=0)


class TestBalance:
    def test_no_node_starves_or_hogs(self):
        ring = HashRing(["n0", "n1", "n2", "n3"])
        counts = {n: 0 for n in ring.nodes}
        for key in UNIQUE_KEYS:
            counts[ring.owner(key)] += 1
        for n, c in counts.items():
            # perfect balance is 500 each; vnode smoothing keeps every
            # node within a loose 2x band
            assert 200 < c < 900, f"{n} owns {c} of 2000 keys"


class TestMembershipChange:
    def test_removal_moves_only_the_lost_shard(self):
        ring = HashRing(["n0", "n1", "n2", "n3"])
        before = {key: ring.owner(key) for key in UNIQUE_KEYS}
        ring.remove("n3")
        moved = sum(1 for key in UNIQUE_KEYS if ring.owner(key) != before[key])
        lost = sum(1 for owner in before.values() if owner == "n3")
        assert moved == lost                      # only n3's keys move
        assert "n3" not in ring and len(ring) == 3

    def test_addition_steals_about_one_nth(self):
        ring = HashRing(["n0", "n1", "n2"])
        before = {key: ring.owner(key) for key in UNIQUE_KEYS}
        ring.add("n3")
        moved = sum(1 for key in UNIQUE_KEYS if ring.owner(key) != before[key])
        # ~1/4 of the key space should move to the new node, nothing else
        assert 0.10 < moved / len(UNIQUE_KEYS) < 0.45
        for key in UNIQUE_KEYS:
            if ring.owner(key) != before[key]:
                assert ring.owner(key) == "n3"

    def test_add_remove_are_idempotent(self):
        ring = HashRing(["n0"])
        ring.add("n0")
        assert len(ring) == 1
        ring.remove("absent")
        assert len(ring) == 1

    def test_replace_reconciles_and_reports_change(self):
        ring = HashRing(["n0", "n1"])
        assert ring.replace(["n1", "n2"]) is True
        assert ring.nodes == frozenset({"n1", "n2"})
        assert ring.replace(["n1", "n2"]) is False


class TestPreferenceList:
    def test_owners_are_distinct_and_owner_first(self):
        ring = HashRing(["n0", "n1", "n2", "n3"])
        for key in UNIQUE_KEYS[:100]:
            prefs = ring.owners(key, 3)
            assert len(prefs) == len(set(prefs)) == 3
            assert prefs[0] == ring.owner(key)

    def test_owners_caps_at_membership(self):
        ring = HashRing(["n0", "n1"])
        assert len(ring.owners("k", 5)) == 2
        assert len(ring.owners("k")) == 2

    def test_previous_owner_is_an_early_successor(self):
        """After a node joins, a moved key's old owner appears in the new
        preference list — the property peer fill relies on to find the
        bytes after a re-shard."""
        ring = HashRing(["n0", "n1", "n2"])
        before = {key: ring.owner(key) for key in UNIQUE_KEYS}
        ring.add("n3")
        for key in UNIQUE_KEYS:
            if ring.owner(key) == "n3" and before[key] != "n3":
                assert before[key] in ring.owners(key, 4)

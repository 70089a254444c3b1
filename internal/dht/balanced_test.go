package dht

import (
	"errors"
	"fmt"
	"testing"
)

func balancedOf(t *testing.T, vnodes, n int) *BalancedRing {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node-%03d", i)
	}
	b, err := NewBalancedRing(vnodes, names...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBalancedRingValidation(t *testing.T) {
	if _, err := NewBalancedRing(8, "a", "a"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewBalancedRing(8, ""); err == nil {
		t.Fatal("empty name accepted")
	}
	b, err := NewBalancedRing(0, "a")
	if err != nil {
		t.Fatal(err)
	}
	if b.vnodes != DefaultVNodes {
		t.Fatalf("vnodes = %d, want DefaultVNodes", b.vnodes)
	}
}

func TestBalancedRingEmptyErrors(t *testing.T) {
	b, _ := NewBalancedRing(8)
	if _, err := b.Successor(5); !errors.Is(err, ErrEmptyRing) {
		t.Fatalf("err = %v", err)
	}
	if _, err := b.OwnershipHistogram(5); !errors.Is(err, ErrEmptyRing) {
		t.Fatalf("err = %v", err)
	}
}

func TestBalancedRingSuccessorDeterministic(t *testing.T) {
	b := balancedOf(t, DefaultVNodes, 4)
	key := FileKey("alice", "report.pdf")
	o1, err := b.Successor(key)
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := b.Successor(key)
	if o1 != o2 {
		t.Fatal("successor not deterministic")
	}
	// Membership order must not change the partition: shard identity is
	// the name, not the join sequence.
	rev, err := NewBalancedRing(DefaultVNodes, "node-003", "node-002", "node-001", "node-000")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := FileKey("alice", fmt.Sprintf("f-%d", i))
		a, _ := b.Successor(k)
		c, _ := rev.Successor(k)
		if a != c {
			t.Fatalf("join order changed ownership of key %d: %s vs %s", i, a, c)
		}
	}
}

func TestBalancedRingOwnershipNearUniform(t *testing.T) {
	// The reason BalancedRing exists: a 4-member single-point ring
	// routinely gives its luckiest member 2-3x fair share. With
	// DefaultVNodes the largest share must stay within 25% of fair —
	// across several disjoint member-name sets, not one lucky draw.
	const keys = 20000
	for trial := 0; trial < 4; trial++ {
		names := make([]string, 4)
		for i := range names {
			names[i] = fmt.Sprintf("http://127.0.0.1:%d", 10000+trial*100+i)
		}
		b, err := NewBalancedRing(DefaultVNodes, names...)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := b.OwnershipHistogram(keys)
		if err != nil {
			t.Fatal(err)
		}
		fair := float64(keys) / float64(len(names))
		for name, got := range hist {
			if ratio := float64(got) / fair; ratio > 1.25 || ratio < 0.75 {
				t.Errorf("trial %d: %s owns %.2fx fair share (%d/%d keys)", trial, name, ratio, got, keys)
			}
		}
	}
}

func TestBalancedRingJoinLeaveMovesOnlyOwnKeys(t *testing.T) {
	b := balancedOf(t, 64, 6)
	keys := make([]uint64, 2000)
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = HashID(fmt.Sprintf("key-%d", i))
		before[i], _ = b.Successor(keys[i])
	}

	victim := "node-002"
	if err := b.Leave(victim); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range keys {
		after, _ := b.Successor(keys[i])
		if before[i] == victim {
			if after == victim {
				t.Fatalf("key %d still on departed node", i)
			}
			moved++
			continue
		}
		if after != before[i] {
			t.Fatalf("key %d moved from %s to %s though %s left", i, before[i], after, victim)
		}
	}
	if moved == 0 {
		t.Fatal("victim owned no keys — test is vacuous")
	}
	if err := b.Leave(victim); err == nil {
		t.Fatal("double leave accepted")
	}

	// Rejoining restores the exact pre-leave partition.
	if err := b.Join(victim); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		after, _ := b.Successor(keys[i])
		if after != before[i] {
			t.Fatalf("key %d not restored after rejoin: %s vs %s", i, after, before[i])
		}
	}
}

func TestBalancedRingJoinMovesBoundedShare(t *testing.T) {
	// Growing n -> n+1 members must move roughly 1/(n+1) of the keys and
	// only onto the new member.
	b := balancedOf(t, DefaultVNodes, 4)
	const keys = 10000
	before := make([]string, keys)
	for i := range before {
		before[i], _ = b.Successor(HashID(fmt.Sprintf("key-%d", i)))
	}
	if err := b.Join("node-new"); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range before {
		after, _ := b.Successor(HashID(fmt.Sprintf("key-%d", i)))
		if after == before[i] {
			continue
		}
		if after != "node-new" {
			t.Fatalf("key %d moved to %s, not the joining member", i, after)
		}
		moved++
	}
	frac := float64(moved) / keys
	if frac < 0.10 || frac > 0.30 {
		t.Fatalf("join moved %.1f%% of keys, want ~20%%", 100*frac)
	}
}

func TestBalancedRingMembers(t *testing.T) {
	b := balancedOf(t, 8, 3)
	got := b.Members()
	want := []string{"node-000", "node-001", "node-002"}
	if len(got) != len(want) {
		t.Fatalf("members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want join order %v", got, want)
		}
	}
	if b.Size() != 3 {
		t.Fatalf("Size = %d", b.Size())
	}
	if err := b.Leave("node-001"); err != nil {
		t.Fatal(err)
	}
	got = b.Members()
	if len(got) != 2 || got[0] != "node-000" || got[1] != "node-002" {
		t.Fatalf("members after leave = %v", got)
	}
}

// TestFileKeySeparation pins the routing key's injectivity property:
// the client/filename boundary is part of the hash input, so moving a
// byte across it produces a different key.
func TestFileKeySeparation(t *testing.T) {
	if FileKey("ab", "c") == FileKey("a", "bc") {
		t.Fatal("client/filename boundary not separated")
	}
	if FileKey("alice", "f") == FileKey("bob", "f") {
		t.Fatal("same filename for different clients must not collide")
	}
	if FileKey("alice", "f") != FileKey("alice", "f") {
		t.Fatal("FileKey must be deterministic")
	}
}

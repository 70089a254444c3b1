// The §IV-C Chord ring and the client-side distributor (package
// clientside) over dht's identifier circle.
package dht_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/clientside"
	"repro/internal/dht"
	"repro/internal/privacy"
	"repro/internal/provider"
)

func ringOf(t *testing.T, n int) *clientside.Ring {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node-%03d", i)
	}
	r, err := clientside.NewRing(names...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRingValidation(t *testing.T) {
	if _, err := clientside.NewRing("a", "a"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := clientside.NewRing(""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestSuccessorConsistency(t *testing.T) {
	r := ringOf(t, 10)
	key := dht.HashID("some-key")
	owner1, err := r.Successor(key)
	if err != nil {
		t.Fatal(err)
	}
	owner2, _ := r.Successor(key)
	if owner1 != owner2 {
		t.Fatal("successor not deterministic")
	}
}

func TestEmptyRingErrors(t *testing.T) {
	r, _ := clientside.NewRing()
	if _, err := r.Successor(5); !errors.Is(err, dht.ErrEmptyRing) {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.Lookup("x", 5); !errors.Is(err, dht.ErrEmptyRing) {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.OwnershipHistogram(5); !errors.Is(err, dht.ErrEmptyRing) {
		t.Fatalf("err = %v", err)
	}
}

func TestJoinLeaveMovesOnlyOwnKeys(t *testing.T) {
	// Consistent hashing: removing one node only remaps the keys it
	// owned; all other assignments are untouched.
	r := ringOf(t, 12)
	keys := make([]uint64, 500)
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = dht.HashID(fmt.Sprintf("key-%d", i))
		before[i], _ = r.Successor(keys[i])
	}
	victim := "node-004"
	if err := r.Leave(victim); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		after, _ := r.Successor(keys[i])
		if before[i] != victim && after != before[i] {
			t.Fatalf("key %d moved from %s to %s though %s left", i, before[i], after, victim)
		}
		if before[i] == victim && after == victim {
			t.Fatalf("key %d still on departed node", i)
		}
	}
	if err := r.Leave(victim); err == nil {
		t.Fatal("double leave accepted")
	}
}

func TestMembersOrderedByRingPosition(t *testing.T) {
	r := ringOf(t, 8)
	members := r.Members()
	if len(members) != 8 {
		t.Fatalf("members = %d", len(members))
	}
	for i := 1; i < len(members); i++ {
		if dht.HashID(members[i-1]) >= dht.HashID(members[i]) {
			t.Fatal("members not ordered by id")
		}
	}
	if r.Size() != 8 {
		t.Fatalf("Size = %d", r.Size())
	}
}

func TestLookupFindsOwner(t *testing.T) {
	r := ringOf(t, 20)
	members := r.Members()
	for i := 0; i < 100; i++ {
		key := dht.HashID(fmt.Sprintf("lookup-key-%d", i))
		owner, _ := r.Successor(key)
		res, err := r.Lookup(members[i%len(members)], key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Owner != owner {
			t.Fatalf("lookup owner %s != successor %s", res.Owner, owner)
		}
		if res.Path[len(res.Path)-1] != owner && res.Hops > 0 {
			t.Fatalf("path does not end at owner: %v", res.Path)
		}
	}
}

func TestLookupFromUnknownNode(t *testing.T) {
	r := ringOf(t, 3)
	if _, err := r.Lookup("ghost", 42); err == nil {
		t.Fatal("unknown start accepted")
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	// Chord's O(log n): mean hops for 256 nodes should stay well under
	// the linear bound and within a small multiple of log2(n).
	r := ringOf(t, 256)
	members := r.Members()
	totalHops := 0
	trials := 400
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < trials; i++ {
		key := dht.HashID(fmt.Sprintf("hop-key-%d", i))
		start := members[rng.Intn(len(members))]
		res, err := r.Lookup(start, key)
		if err != nil {
			t.Fatal(err)
		}
		totalHops += res.Hops
	}
	mean := float64(totalHops) / float64(trials)
	logN := math.Log2(256)
	if mean > 3*logN {
		t.Fatalf("mean hops %.2f > 3·log2(n) = %.2f", mean, 3*logN)
	}
}

func TestOwnershipHistogramBalanced(t *testing.T) {
	r := ringOf(t, 32)
	hist, err := r.OwnershipHistogram(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 32 {
		t.Fatalf("hist has %d entries", len(hist))
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != 20_000 {
		t.Fatalf("total = %d", total)
	}
}

func TestChunkKeyDistinct(t *testing.T) {
	k1 := clientside.ChunkKey("file1", 0)
	k2 := clientside.ChunkKey("file1", 1)
	k3 := clientside.ChunkKey("file2", 0)
	if k1 == k2 || k1 == k3 || k2 == k3 {
		t.Fatal("chunk keys collide on trivial inputs")
	}
	if k1 != clientside.ChunkKey("file1", 0) {
		t.Fatal("chunk key not deterministic")
	}
}

// Property: lookups from every start node agree on the owner.
func TestLookupAgreementProperty(t *testing.T) {
	r := ringOf(t, 17)
	members := r.Members()
	f := func(seed int64) bool {
		key := uint64(seed)
		want, err := r.Successor(key)
		if err != nil {
			return false
		}
		for _, start := range members {
			res, err := r.Lookup(start, key)
			if err != nil || res.Owner != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func dhtFleet(t *testing.T, n int) *provider.Fleet {
	t.Helper()
	fleet, err := provider.NewFleet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := provider.MustNew(provider.Info{
			Name: fmt.Sprintf("prov-%02d", i), PL: privacy.High, CL: 0,
		}, provider.Options{})
		if err := fleet.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return fleet
}

func TestClientDistributorRoundTrip(t *testing.T) {
	fleet := dhtFleet(t, 6)
	cd, err := clientside.NewClientDistributor(fleet, privacy.ChunkSizePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 150_000)
	rng.Read(data)
	n, err := cd.Upload("big.bin", data, privacy.Moderate)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("chunks = %d", n)
	}
	got, err := cd.GetFile("big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Chunks actually scattered across more than one provider.
	used := 0
	for _, p := range fleet.All() {
		if p.Len() > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("chunks on %d providers, want spread", used)
	}
	if cd.TableBytes() == 0 {
		t.Fatal("client table reports zero memory")
	}
	if err := cd.Remove("big.bin"); err != nil {
		t.Fatal(err)
	}
	for _, p := range fleet.All() {
		if p.Len() != 0 {
			t.Fatalf("provider %s still holds chunks", p.Info().Name)
		}
	}
	if _, err := cd.GetFile("big.bin"); err == nil {
		t.Fatal("get after remove succeeded")
	}
}

func TestClientDistributorValidation(t *testing.T) {
	if _, err := clientside.NewClientDistributor(nil, privacy.ChunkSizePolicy{}); err == nil {
		t.Fatal("nil fleet accepted")
	}
	fleet := dhtFleet(t, 3)
	cd, _ := clientside.NewClientDistributor(fleet, privacy.ChunkSizePolicy{})
	if _, err := cd.Upload("f", []byte("x"), privacy.Low); err != nil {
		t.Fatal(err)
	}
	if _, err := cd.Upload("f", []byte("y"), privacy.Low); err == nil {
		t.Fatal("duplicate upload accepted")
	}
	if err := cd.Remove("ghost"); err == nil {
		t.Fatal("removing unknown file accepted")
	}
}

func TestClientDistributorDetectsCorruption(t *testing.T) {
	fleet := dhtFleet(t, 4)
	cd, _ := clientside.NewClientDistributor(fleet, privacy.ChunkSizePolicy{})
	if _, err := cd.Upload("f", bytes.Repeat([]byte{7}, 50_000), privacy.Low); err != nil {
		t.Fatal(err)
	}
	// Corrupt one stored chunk.
	for _, p := range fleet.All() {
		keys := p.Keys()
		if len(keys) == 0 {
			continue
		}
		_ = p.Put(keys[0], []byte("tampered"))
		break
	}
	if _, err := cd.GetFile("f"); err == nil {
		t.Fatal("corruption not detected")
	}
}

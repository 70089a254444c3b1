package dht

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// DefaultVNodes is the virtual-node count BalancedRing members use when
// callers have no reason to pick another: enough points that the largest
// member arc stays within a few percent of fair share even on tiny
// rings, cheap enough that an 8-member ring is ~1k sorted points.
const DefaultVNodes = 128

// BalancedRing is the consistent-hash partition the sharded data plane
// routes on. The §IV-C Chord ring (clientside.Ring) places each member
// at a single point of the identifier circle, so a small ring carries brutal arc-size variance —
// with 4 members the largest arc is routinely 2-3x fair share, and which
// member draws the long straw depends on nothing but its name's hash. A
// BalancedRing places every member at vnodes points instead and routes a
// key to the member owning its successor point, flattening ownership to
// near-uniform while keeping the property that matters for scaling:
// membership change moves only the arcs adjacent to the changed member's
// points, ≈1/n of the keyspace.
//
// It deliberately has no finger tables — routing is a local binary
// search, not a multi-hop Chord lookup — because the shard router always
// knows the full membership.
type BalancedRing struct {
	mu     sync.RWMutex
	vnodes int
	names  []string // join order
	points []vpoint // sorted by id
}

// vpoint is one virtual position; member indexes into names.
type vpoint struct {
	id     uint64
	member int
}

// vnodeID places virtual replica v of a member. The NUL separator keeps
// a member literally named "a\x00#1" from colliding with a's replicas.
func vnodeID(name string, v int) uint64 {
	return HashID(fmt.Sprintf("%s\x00#%d", name, v))
}

// NewBalancedRing builds a ring with vnodes virtual points per member
// (DefaultVNodes if vnodes <= 0). Duplicate names are rejected.
func NewBalancedRing(vnodes int, names ...string) (*BalancedRing, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	b := &BalancedRing{vnodes: vnodes}
	for _, n := range names {
		if err := b.Join(n); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Join adds a member at vnodes points of the circle.
func (b *BalancedRing) Join(name string) error {
	if name == "" {
		return errors.New("dht: empty node name")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, n := range b.names {
		if n == name {
			return fmt.Errorf("dht: node %q already joined", name)
		}
	}
	member := len(b.names)
	b.names = append(b.names, name)
	for v := 0; v < b.vnodes; v++ {
		b.points = append(b.points, vpoint{id: vnodeID(name, v), member: member})
	}
	sort.Slice(b.points, func(i, j int) bool { return b.points[i].id < b.points[j].id })
	return nil
}

// Leave removes a member; its arcs shift to the next point's owner.
func (b *BalancedRing) Leave(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	member := -1
	for i, n := range b.names {
		if n == name {
			member = i
			break
		}
	}
	if member == -1 {
		return fmt.Errorf("dht: node %q not in ring", name)
	}
	b.names = append(b.names[:member], b.names[member+1:]...)
	kept := b.points[:0]
	for _, p := range b.points {
		if p.member == member {
			continue
		}
		if p.member > member {
			p.member--
		}
		kept = append(kept, p)
	}
	b.points = kept
	return nil
}

// Size returns the member count.
func (b *BalancedRing) Size() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.names)
}

// Members returns member names in join order.
func (b *BalancedRing) Members() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]string(nil), b.names...)
}

// Successor returns the member owning key.
func (b *BalancedRing) Successor(key uint64) (string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.points) == 0 {
		return "", ErrEmptyRing
	}
	i := sort.Search(len(b.points), func(i int) bool { return b.points[i].id >= key })
	if i == len(b.points) {
		i = 0
	}
	return b.names[b.points[i].member], nil
}

// OwnershipHistogram counts how many of n sampled keys land on each
// member — the balance metric the vnode count exists to flatten.
func (b *BalancedRing) OwnershipHistogram(nKeys int) (map[string]int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.points) == 0 {
		return nil, ErrEmptyRing
	}
	hist := make(map[string]int, len(b.names))
	for _, n := range b.names {
		hist[n] = 0
	}
	for i := 0; i < nKeys; i++ {
		key := HashID(fmt.Sprintf("sample-key-%d", i))
		j := sort.Search(len(b.points), func(j int) bool { return b.points[j].id >= key })
		if j == len(b.points) {
			j = 0
		}
		hist[b.names[b.points[j].member]]++
	}
	return hist, nil
}

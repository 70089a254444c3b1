// Package clientside is the paper's §IV-C alternative architecture: the
// Cloud Data Distributor pushed into the client, "implemented at client
// side by using CAN or CHORD like hash tables that will map each
// ⟨filename, chunk Sl⟩ pair to a Cloud Provider."
//
// Nodes (providers) own arcs of a 64-bit identifier circle (dht.HashID);
// keys map to their clockwise successor. Each node keeps a finger table
// for O(log n) lookups; Lookup reports hop counts so the benchmarks can
// reproduce the classic Chord scaling curve. ClientDistributor places
// chunks on such a ring and keeps the client-resident chunk table.
package clientside

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dht"
)

// ringBits is the identifier-space width.
const ringBits = 64

// ChunkKey derives the ring key of the paper's ⟨filename, serial⟩ pair.
func ChunkKey(filename string, serial int) uint64 {
	return dht.HashID(fmt.Sprintf("%s#%d", filename, serial))
}

// node is one ring participant.
type node struct {
	id   uint64
	name string
	// fingers[i] is the first node ≥ id + 2^i on the circle.
	fingers [ringBits]int // index into Ring.nodes, rebuilt on change
}

// Ring is a Chord-style ring. It is safe for concurrent use.
type Ring struct {
	mu    sync.RWMutex
	nodes []*node // sorted by id
}

// NewRing builds a ring with the given member names (e.g. provider
// names). Duplicate names are rejected.
func NewRing(names ...string) (*Ring, error) {
	r := &Ring{}
	for _, n := range names {
		if err := r.Join(n); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Join adds a member.
func (r *Ring) Join(name string) error {
	if name == "" {
		return errors.New("clientside: empty node name")
	}
	id := dht.HashID(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nodes {
		if n.name == name {
			return fmt.Errorf("clientside: node %q already joined", name)
		}
		if n.id == id {
			return fmt.Errorf("clientside: id collision between %q and %q", n.name, name)
		}
	}
	r.nodes = append(r.nodes, &node{id: id, name: name})
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].id < r.nodes[j].id })
	r.rebuildFingers()
	return nil
}

// Leave removes a member (e.g. a provider going out of business); keys it
// owned shift to its successor, exactly the consistent-hashing property
// the paper wants for provider churn.
func (r *Ring) Leave(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, n := range r.nodes {
		if n.name == name {
			r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
			r.rebuildFingers()
			return nil
		}
	}
	return fmt.Errorf("clientside: node %q not in ring", name)
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Members returns node names ordered by ring position.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.name
	}
	return out
}

// rebuildFingers recomputes every node's finger table. Callers hold r.mu.
func (r *Ring) rebuildFingers() {
	for _, nd := range r.nodes {
		for b := 0; b < ringBits; b++ {
			target := nd.id + (uint64(1) << b) // wraps mod 2^64 naturally
			nd.fingers[b] = r.successorIndex(target)
		}
	}
}

// successorIndex returns the index of the first node with id >= target
// (wrapping). Callers hold r.mu (read or write).
func (r *Ring) successorIndex(target uint64) int {
	i := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].id >= target })
	if i == len(r.nodes) {
		return 0
	}
	return i
}

// Successor returns the member owning key.
func (r *Ring) Successor(key uint64) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.nodes) == 0 {
		return "", dht.ErrEmptyRing
	}
	return r.nodes[r.successorIndex(key)].name, nil
}

// LookupResult reports a routed lookup.
type LookupResult struct {
	Owner string
	Hops  int
	Path  []string
}

// Lookup routes from a start node to the key's owner using finger tables
// (closest-preceding-finger routing), returning the hop count — the
// O(log n) metric the Chord paper reports and our DHT bench reproduces.
func (r *Ring) Lookup(start string, key uint64) (LookupResult, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.nodes) == 0 {
		return LookupResult{}, dht.ErrEmptyRing
	}
	cur := -1
	for i, n := range r.nodes {
		if n.name == start {
			cur = i
			break
		}
	}
	if cur == -1 {
		return LookupResult{}, fmt.Errorf("clientside: start node %q not in ring", start)
	}
	ownerIdx := r.successorIndex(key)
	res := LookupResult{Path: []string{r.nodes[cur].name}}
	for cur != ownerIdx {
		// If the owner is our immediate successor, one hop finishes.
		succ := (cur + 1) % len(r.nodes)
		if succ == ownerIdx {
			cur = succ
		} else {
			next := r.closestPrecedingFinger(cur, key)
			if next == cur { // no progress possible: step to successor
				next = succ
			}
			cur = next
		}
		res.Hops++
		res.Path = append(res.Path, r.nodes[cur].name)
		if res.Hops > len(r.nodes)+ringBits {
			return res, fmt.Errorf("clientside: routing loop for key %d", key)
		}
	}
	res.Owner = r.nodes[ownerIdx].name
	return res, nil
}

// closestPrecedingFinger finds cur's finger that most closely precedes
// key. Callers hold r.mu.
func (r *Ring) closestPrecedingFinger(cur int, key uint64) int {
	nd := r.nodes[cur]
	for b := ringBits - 1; b >= 0; b-- {
		f := nd.fingers[b]
		if f == cur {
			continue
		}
		if inOpenInterval(nd.id, r.nodes[f].id, key) {
			return f
		}
	}
	return cur
}

// inOpenInterval reports whether x ∈ (a, b) on the circle.
func inOpenInterval(a, x, b uint64) bool {
	if a < b {
		return a < x && x < b
	}
	if a > b {
		return x > a || x < b
	}
	return false // a == b: empty interval
}

// OwnershipHistogram counts how many of n sampled keys land on each
// member — the load-balance metric for the client-side variant.
func (r *Ring) OwnershipHistogram(nKeys int) (map[string]int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.nodes) == 0 {
		return nil, dht.ErrEmptyRing
	}
	hist := make(map[string]int, len(r.nodes))
	for _, nd := range r.nodes {
		hist[nd.name] = 0
	}
	for i := 0; i < nKeys; i++ {
		key := dht.HashID(fmt.Sprintf("sample-key-%d", i))
		hist[r.nodes[r.successorIndex(key)].name]++
	}
	return hist, nil
}

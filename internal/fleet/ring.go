// Package fleet shards the wideleakd study service across N replicas
// behind one HTTP front end. The router consistent-hashes each request's
// world identity (wideleak.RunSpec.WorldKey — seed, devices, dialect and
// fault schedule) onto a virtual-node hash ring, so every request for one
// world lands on the same replica and turns N replicas into N independent
// warm cache sets: identical requests are tier-1 hits, probe-subset
// variants of a warmed world reuse its memoized cells and its seed's key
// pool, and no cache entry is duplicated across the fleet.
//
// Routing is bounded-load consistent hashing with spill-on-failure: when
// the ring owner is unhealthy, over its load bound, or sheds with 429,
// the request walks to the next distinct replica on the ring instead of
// failing. Replica health is tracked actively (periodic /healthz probes)
// and passively (transport errors while proxying), and a replica lost
// mid-run is transparently failed over: the router remembers the
// canonical body of every job part (a study is one part, a batch one
// part per ring owner) and resubmits it to the ring successor —
// determinism guarantees the rerun's bytes are identical.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over replica IDs with virtual nodes.
// Membership is fixed at construction; health is the router's concern
// (the ring answers "who owns this key and in what order do we spill",
// not "who is alive").
type ring struct {
	ids    []string    // replica IDs, construction order
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	replica int // index into ids
}

// newRing hashes vnodes virtual points per replica onto the ring.
func newRing(ids []string, vnodes int) *ring {
	r := &ring{ids: ids}
	for i, id := range ids {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", id, v)), replica: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// ringHash positions a string on the ring: the first 8 bytes of its
// SHA-256. Cheap non-cryptographic hashes (FNV) cluster badly on the
// short, near-identical vnode labels, skewing ownership by multiples;
// SHA-256 keeps every replica's share within a few percent of fair.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// sequence returns every replica ID in ring-walk order starting at the
// key's owner: element 0 owns the key, element 1 is the spill successor,
// and so on. Every replica appears exactly once.
func (r *ring) sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seq := make([]string, 0, len(r.ids))
	seen := make([]bool, len(r.ids))
	for i := 0; i < len(r.points) && len(seq) < len(r.ids); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			seq = append(seq, r.ids[p.replica])
		}
	}
	return seq
}

// owner returns the replica that owns a key.
func (r *ring) owner(key string) string {
	seq := r.sequence(key)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// shares reports each replica's fraction of the keyspace — the arc mass
// it owns. Exported through the wideleakfleet_ring_share gauge so
// imbalance is visible before it becomes a hot replica.
func (r *ring) shares() map[string]float64 {
	shares := make(map[string]float64, len(r.ids))
	if len(r.points) == 0 {
		return shares
	}
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		// Arc (prev, p.hash] belongs to p; the wrap-around arc spans the
		// 2^64 boundary.
		arc := p.hash - prev // uint64 arithmetic wraps correctly
		shares[r.ids[p.replica]] += float64(arc) / (1 << 64)
	}
	return shares
}

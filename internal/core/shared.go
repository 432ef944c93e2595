package core

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"

	"gpssn/internal/geo"
	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/socialnet"
)

// The shared-work layer memoizes the two expensive building blocks that
// concurrent queries recompute over and over under load: anchor balls
// (ballAround + the ball's prepared target labels) and per-user sweep
// state (one-to-all arrays under plain oracles, attachment hub labels
// under a label oracle). PR 6's singleflight only coalesces bit-identical
// requests; this layer shares work between *different* queries that touch
// the same anchor or user.
//
// Ownership and correctness rules (docs/CONCURRENCY.md §6):
//
//   - The memo lives on the Engine, so Compact (which builds a fresh
//     Engine) starts from an empty memo for the rebuilt dataset.
//   - Entries are built under a fresh metering Checkpoint that never
//     trips, so a memo entry is always canonical — a budget- or
//     cancel-tripped query can never poison the memo with a degenerate
//     ball or an all-+Inf array. The build cost is recorded and charged
//     to every query that consumes the entry (Checkpoint.Spend), so
//     budget exhaustion still reflects logical work consumed.
//   - Ball slices are handed out copy-on-read: refinement sorts result R
//     sets in place, so sharing the backing array across queries would
//     race. Target-label sets and one-to-all arrays are read-only by
//     contract and are shared directly.
//   - Builds are singleflighted: the first query to miss becomes the
//     leader and builds outside the memo lock; waiters block on the
//     entry's done channel. A leader that panics unpublishes the entry
//     and closes the channel, so waiters fall back to a solo compute and
//     the panic surfaces through the leader's own query panic boundary.
//   - Invalidation is per update kind, mirroring the answer cache's
//     discipline but more selective: AddPOI evicts exactly the balls the
//     new POI could join (Euclidean prefilter — sound because road
//     distance never undercuts Euclidean distance, the same argument
//     EuclidBall and deltaBallMembers rely on) and bumps the road
//     version. AddUser/AddFriendship don't touch the memo at all: balls
//     are POI-only, and a user's sweep state depends only on the road
//     topology and their home attachment, neither of which those updates
//     can change. AddRoadEdge is the other extreme — a full reset
//     (noteRoadChange), because every memoized array and ball bakes the
//     old topology in. AddRoadVertex sits in the middle: an isolated
//     vertex changes no distance, so it touches nothing.

// Capacity bounds. Balls and user entries are both LRU-evicted, so a
// full memo costs a rebuild, never a fallback path, and occupancy never
// affects answers. The query-scope caps size the private user store a
// query gets when the memo is off, and the pinned set of every query (see
// userArray). Array bytes are known once the sweep ran, label bytes once
// the label is built, so user entries are byte-accounted on completion.
const (
	sharedBallMaxEntries = 4096
	sharedUserMaxEntries = 16384
	sharedUserMaxBytes   = 256 << 20
	queryUserMaxEntries  = 512
	queryUserMaxBytes    = 32 << 20
)

type ballKey struct {
	anchor model.POIID
	r      float64
}

// ballEntry is one memoized anchor ball. done is closed when the build
// finishes (ok true) or is abandoned (ok false); every other field is
// written once by the leader before the close and read-only afterwards.
type ballEntry struct {
	done chan struct{}
	elem *list.Element // LRU position; guarded by sharedWork.mu

	ball []model.POIID
	tl   *roadnet.TargetLabels // nil under non-label oracles
	loc  geo.Point             // anchor location, for selective eviction
	work int64                 // metered build cost, charged on every hit
	ok   bool
}

type sharedWork struct {
	mu      sync.Mutex
	version uint64 // road-data version; bumped by every AddPOI

	balls   map[ballKey]*ballEntry
	ballLRU *list.List // front = most recently used; values are ballKey

	users *userStore

	ballHits, ballMisses, ballEvict atomic.Int64
}

func newSharedWork() *sharedWork {
	return &sharedWork{
		balls:   map[ballKey]*ballEntry{},
		ballLRU: list.New(),
		users:   newUserStore(sharedUserMaxEntries, sharedUserMaxBytes),
	}
}

// SharedWorkStats is a point-in-time snapshot of the memo counters,
// surfaced through the facade and /statsz.
type SharedWorkStats struct {
	Enabled     bool
	RoadVersion uint64

	BallHits      int64
	BallMisses    int64
	BallEvictions int64
	BallEntries   int

	SweepHits   int64
	SweepMisses int64
	// SweepRejected counts user entries evicted from the memo (LRU, under
	// the entry and byte caps). The name predates eviction, when a full
	// memo turned new entries away instead.
	SweepRejected int64
	SweepEntries  int
	SweepBytes    int64
}

// SharedWorkStats snapshots the shared-work memo counters. Zero-valued
// (Enabled false) when the layer is disabled.
func (e *Engine) SharedWorkStats() SharedWorkStats {
	sw := e.shared
	if sw == nil {
		return SharedWorkStats{}
	}
	st := SharedWorkStats{
		Enabled:       true,
		BallHits:      sw.ballHits.Load(),
		BallMisses:    sw.ballMisses.Load(),
		BallEvictions: sw.ballEvict.Load(),
		SweepHits:     sw.users.hits.Load(),
		SweepMisses:   sw.users.misses.Load(),
		SweepRejected: sw.users.evictions.Load(),
	}
	sw.mu.Lock()
	st.RoadVersion = sw.version
	st.BallEntries = len(sw.balls)
	sw.mu.Unlock()
	st.SweepEntries, st.SweepBytes = sw.users.occupancy()
	return st
}

// anchorBall returns the ball around anchor (copy-on-read: the caller owns
// the returned slice) plus the ball's prepared target labels when a label
// oracle is attached (shared, read-only). With the memo disabled it is a
// plain ballAround and the labels are nil — callers prepare their own,
// preserving the pre-memo behavior exactly.
//
// Checkpoint discipline matches solo execution: a stopped checkpoint
// yields the degenerate {anchor} ball (solo ballAround degenerates the
// same way when every checked distance comes back +Inf), and a memo hit
// charges the entry's metered build cost, tripping the budget at the same
// logical work a solo build would have consumed.
func (e *Engine) anchorBall(anchor model.POIID, radius float64, ck *roadnet.Checkpoint) ([]model.POIID, *roadnet.TargetLabels) {
	sw := e.shared
	if sw == nil {
		return e.ballAround(anchor, radius, ck), nil
	}
	if ck.Stopped() {
		return []model.POIID{anchor}, nil
	}
	key := ballKey{anchor: anchor, r: radius}

	sw.mu.Lock()
	ent, ok := sw.balls[key]
	if ok {
		sw.ballLRU.MoveToFront(ent.elem)
		sw.mu.Unlock()
		<-ent.done
		if ent.ok {
			sw.ballHits.Add(1)
			if ck.Spend(int(ent.work)) {
				return []model.POIID{anchor}, nil
			}
			return append([]model.POIID(nil), ent.ball...), ent.tl
		}
		// The leader abandoned the build (panic unwound through it);
		// compute solo rather than racing to rebuild.
		return e.ballAround(anchor, radius, ck), nil
	}
	ent = &ballEntry{done: make(chan struct{}), loc: e.DS.POIs[anchor].Loc}
	ent.elem = sw.ballLRU.PushFront(key)
	sw.balls[key] = ent
	for len(sw.balls) > sharedBallMaxEntries {
		oldest := sw.ballLRU.Back()
		sw.removeBallLocked(oldest.Value.(ballKey))
		sw.ballEvict.Add(1)
	}
	sw.mu.Unlock()
	sw.ballMisses.Add(1)

	completed := false
	defer func() {
		if !completed {
			sw.mu.Lock()
			if sw.balls[key] == ent {
				sw.removeBallLocked(key)
			}
			sw.mu.Unlock()
			close(ent.done)
		}
	}()
	mck := roadnet.NewCheckpoint(nil, nil, 0) // metering only: never trips
	ball := e.ballAround(anchor, radius, mck)
	ent.ball = ball
	ent.tl = e.prepareBallLabels(ball)
	ent.work = mck.Spent()
	ent.ok = true
	completed = true
	close(ent.done)

	if ck.Spend(int(ent.work)) {
		return []model.POIID{anchor}, nil
	}
	return append([]model.POIID(nil), ball...), ent.tl
}

// prepareBallLabels flattens the ball's target labels once; nil under
// non-label oracles (same seam makeMOf uses to pick its strategy).
func (e *Engine) prepareBallLabels(ball []model.POIID) *roadnet.TargetLabels {
	atts := make([]roadnet.Attach, len(ball))
	for i, o := range ball {
		atts[i] = e.DS.POIs[o].At
	}
	return e.DS.Road.PrepareTargetLabels(atts)
}

// removeBallLocked unlinks a ball entry; callers hold sw.mu. In-flight
// entries may be evicted too — the leader's completion check compares
// pointers, and waiters already holding the entry still see its result.
func (sw *sharedWork) removeBallLocked(key ballKey) {
	if ent, ok := sw.balls[key]; ok {
		sw.ballLRU.Remove(ent.elem)
		delete(sw.balls, key)
	}
}

// noteAddPOI is the AddPOI invalidation hook, called with the engine lock
// held exclusively (no query is in flight). It evicts exactly the balls
// the new POI could have joined: road distance never undercuts Euclidean
// distance, so a POI Euclidean-farther than r from an anchor can never be
// inside that anchor's radius-r ball. Every AddPOI bumps the road-data
// version so tests (and operators) can observe that the memo noticed.
func (sw *sharedWork) noteAddPOI(loc geo.Point) {
	if sw == nil {
		return
	}
	sw.mu.Lock()
	sw.version++
	for key, ent := range sw.balls {
		if ent.loc.Dist(loc) <= key.r {
			sw.removeBallLocked(key)
			sw.ballEvict.Add(1)
		}
	}
	sw.mu.Unlock()
}

// noteRoadChange is the road-topology invalidation hook (AddRoadEdge),
// called with the engine lock held exclusively. Unlike noteAddPOI's
// selective eviction this is a full reset: memoized one-to-all arrays
// are sized to the vertex count at build time and memoized balls bake in
// old reachability, so after a topology change stale entries would be
// *wrong* — a new-edge attachment indexing past the end of a stale
// array, a ball missing a now-reachable POI — not merely conservative.
// In-flight leaders are unharmed: eviction only unlinks map entries, and
// waiters already holding an entry pointer still see a result computed
// for the pre-change topology their query no longer uses (they were
// serialized before this update by the facade's write lock).
func (sw *sharedWork) noteRoadChange() {
	if sw == nil {
		return
	}
	sw.mu.Lock()
	sw.version++
	for key := range sw.balls {
		sw.removeBallLocked(key)
		sw.ballEvict.Add(1)
	}
	sw.mu.Unlock()
	sw.users.reset()
}

// userStore is the one store of per-user distance state: the exact
// one-to-all array of a user's home (plain oracles) or its attachment hub
// label (label oracles). The engine owns one when the shared-work memo is
// on; otherwise every query owns a private one under the query-scope caps.
// Entries are singleflighted — the first caller to miss builds outside the
// lock, later callers wait on ready — and LRU-evicted under the entry and
// byte caps, in-flight entries included (the leader's completion check
// compares pointers, and waiters already holding the entry still see its
// result). Arrays are built under a metering checkpoint that never trips,
// so an entry is always exact; its metered cost is billed to the queries
// that read it under userArray's charge-once rule.
type userStore struct {
	mu         sync.Mutex
	entries    map[socialnet.UserID]*userEntry
	lru        userEntry // list sentinel: lru.next is the most recently used
	bytes      int64
	maxEntries int
	maxBytes   int64

	hits, misses, evictions atomic.Int64
}

// userEntry is one stored user: an array entry when array is non-nil, a
// label entry otherwise. ready is released when the build finishes (ok
// true) or is abandoned by a panic (ok false); array, label and work are
// written once by the leader before the release and read-only afterwards.
type userEntry struct {
	ready      sync.WaitGroup
	u          socialnet.UserID
	prev, next *userEntry // LRU links; guarded by userStore.mu
	bytes      int64      // accounted size; guarded by userStore.mu

	array []float64
	label roadnet.HubLabel // meaningful only when array is nil
	work  int64            // metered build cost of array
	ok    bool
}

func newUserStore(maxEntries int, maxBytes int64) *userStore {
	s := &userStore{
		entries:    map[socialnet.UserID]*userEntry{},
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	return s
}

// pushFront links ent as the most recently used entry; callers hold s.mu.
func (s *userStore) pushFront(ent *userEntry) {
	ent.prev, ent.next = &s.lru, s.lru.next
	s.lru.next.prev = ent
	s.lru.next = ent
}

// unlink removes ent from the LRU list; callers hold s.mu.
func (s *userStore) unlink(ent *userEntry) {
	ent.prev.next = ent.next
	ent.next.prev = ent.prev
}

// get returns u's entry, building it with build on a miss. build runs
// outside the lock and fills array or label. nil means the build was
// abandoned (a panic unwound through its leader); the caller computes
// solo and the panic surfaces through the leader's own query.
func (s *userStore) get(u socialnet.UserID, build func(*userEntry)) *userEntry {
	s.mu.Lock()
	if ent, ok := s.entries[u]; ok {
		s.unlink(ent)
		s.pushFront(ent)
		s.mu.Unlock()
		ent.ready.Wait()
		if !ent.ok {
			return nil
		}
		s.hits.Add(1)
		return ent
	}
	ent := &userEntry{u: u}
	ent.ready.Add(1)
	s.pushFront(ent)
	s.entries[u] = ent
	s.evictLocked()
	s.mu.Unlock()
	s.misses.Add(1)

	completed := false
	defer func() {
		if !completed {
			s.mu.Lock()
			if s.entries[u] == ent {
				s.removeLocked(u)
			}
			s.mu.Unlock()
			ent.ready.Done()
		}
	}()
	build(ent)
	ent.ok = true
	completed = true
	ent.ready.Done()

	s.mu.Lock()
	if s.entries[u] == ent {
		ent.bytes = int64(8*len(ent.array) + 12*ent.label.Len())
		s.bytes += ent.bytes
		s.evictLocked()
	}
	s.mu.Unlock()
	return ent
}

// evictLocked drops least-recently-used entries until both caps hold;
// callers hold s.mu.
func (s *userStore) evictLocked() {
	for len(s.entries) > s.maxEntries || s.bytes > s.maxBytes {
		s.removeLocked(s.lru.prev.u)
		s.evictions.Add(1)
	}
}

// removeLocked unlinks u's entry; callers hold s.mu.
func (s *userStore) removeLocked(u socialnet.UserID) {
	if ent, ok := s.entries[u]; ok {
		s.unlink(ent)
		s.bytes -= ent.bytes
		delete(s.entries, u)
	}
}

// reset drops every entry (the road-topology invalidation).
func (s *userStore) reset() {
	s.mu.Lock()
	s.entries = map[socialnet.UserID]*userEntry{}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	s.bytes = 0
	s.mu.Unlock()
}

// occupancy reports the entry count and accounted bytes.
func (s *userStore) occupancy() (int, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries), s.bytes
}

// userView is one query's handle on a userStore, plus its pinned set: the
// users whose one-to-all array this query has read and been charged for.
// The set holds no distance data. It decides what a read costs (userArray)
// and which users makeMOf keeps evaluating by array once an incumbent
// exists, so neither depends on what other queries left in the store.
type userView struct {
	store *userStore

	mu          sync.Mutex
	pinned      map[socialnet.UserID]struct{}
	pinnedBytes int64
}

// newUserView gives a query its view: the engine's store when the memo is
// on, a private query-scope store otherwise.
func (e *Engine) newUserView() *userView {
	if e.shared != nil {
		return &userView{store: e.shared.users}
	}
	return &userView{store: newUserStore(queryUserMaxEntries, queryUserMaxBytes)}
}

// isPinned reports whether the query already read and paid for u's array.
func (v *userView) isPinned(u socialnet.UserID) bool {
	v.mu.Lock()
	_, ok := v.pinned[u]
	v.mu.Unlock()
	return ok
}

// pin adds u (nb array bytes) to the pinned set while the set is under the
// query-scope caps; past them u stays unpinned.
func (v *userView) pin(u socialnet.UserID, nb int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.pinned[u]; ok || len(v.pinned) >= queryUserMaxEntries || v.pinnedBytes+nb > queryUserMaxBytes {
		return
	}
	if v.pinned == nil {
		v.pinned = map[socialnet.UserID]struct{}{}
	}
	v.pinned[u] = struct{}{}
	v.pinnedBytes += nb
}

// userArray returns u's exact one-to-all array through the query's view.
// The first read in a query charges the entry's metered sweep cost to ck
// and pins u; later reads of a pinned user are free, unpinned ones pay
// again. A budget therefore trips at the same logical work whichever
// store served the array and whether or not it was evicted in between. A
// charge that trips ck hands back an all-+Inf array — the all-or-nothing
// abort of a solo sweep.
func (e *Engine) userArray(v *userView, u socialnet.UserID, ck *roadnet.Checkpoint) []float64 {
	ent := v.store.get(u, func(ent *userEntry) {
		mck := roadnet.NewCheckpoint(nil, nil, 0) // metering only: never trips
		ent.array = e.userVertexDist(u, mck)
		ent.work = mck.Spent()
	})
	if ent == nil || ent.array == nil {
		return e.userVertexDist(u, ck)
	}
	if v.isPinned(u) {
		return ent.array
	}
	nv := len(ent.array)
	if ck.Spend(int(ent.work)) {
		return allInf(nv)
	}
	v.pin(u, int64(8*nv))
	return ent.array
}

// userLabel returns u's attachment hub label through the query's view. The
// label is owned by the store and read-only. Building copies it out of the
// arena's label scratch, so the store's labels are exactly sized. Only call
// under a label oracle.
func (e *Engine) userLabel(v *userView, u socialnet.UserID, ar *refineArena) *roadnet.HubLabel {
	at := e.DS.Users[u].At
	ent := v.store.get(u, func(ent *userEntry) { ar.attachLabel(e.DS.Road, at, &ent.label) })
	if ent == nil || ent.array != nil {
		l := new(roadnet.HubLabel)
		ar.attachLabel(e.DS.Road, at, l)
		return l
	}
	return &ent.label
}

func allInf(n int) []float64 {
	dv := make([]float64, n)
	for i := range dv {
		dv[i] = math.Inf(1)
	}
	return dv
}

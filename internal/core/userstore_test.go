package core

import (
	"math"
	"testing"

	"gpssn/internal/model"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/hl"
	"gpssn/internal/socialnet"
)

// arrayOf and labelOf are store builders producing entries of a known size.
func arrayOf(n int) func(*userEntry) {
	return func(ent *userEntry) { ent.array = make([]float64, n) }
}

func labelOf(hubs int) func(*userEntry) {
	return func(ent *userEntry) {
		ent.label = roadnet.HubLabel{Hubs: make([]int32, hubs), Dist: make([]float64, hubs)}
	}
}

// storeHas reports whether u currently has an entry in s.
func storeHas(s *userStore, u socialnet.UserID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[u]
	return ok
}

// TestUserStoreCaps pins the store's bounds: the entry cap and the byte
// accounting hold under any sequence of gets, eviction takes the least
// recently used entry, a hit never rebuilds, and an entry evicted while
// its build is in flight still reaches its caller without being accounted.
func TestUserStoreCaps(t *testing.T) {
	// Entry cap with LRU order: touching 1 makes 2 the eviction victim.
	s := newUserStore(3, 1<<20)
	s.get(1, arrayOf(10))
	s.get(2, arrayOf(10))
	s.get(3, labelOf(2))
	if ent := s.get(1, func(*userEntry) { t.Fatal("hit rebuilt the entry") }); len(ent.array) != 10 {
		t.Fatalf("hit returned %d-element array, want 10", len(ent.array))
	}
	s.get(4, arrayOf(10))
	if n, b := s.occupancy(); n != 3 || b != 8*10+12*2+8*10 {
		t.Fatalf("occupancy = %d entries / %d bytes, want 3 / %d", n, b, 8*10+12*2+8*10)
	}
	if storeHas(s, 2) || !storeHas(s, 1) || !storeHas(s, 3) || !storeHas(s, 4) {
		t.Fatal("entry cap evicted the wrong entry (want the LRU one, user 2)")
	}
	if s.evictions.Load() != 1 || s.hits.Load() != 1 || s.misses.Load() != 4 {
		t.Fatalf("evictions/hits/misses = %d/%d/%d, want 1/1/4",
			s.evictions.Load(), s.hits.Load(), s.misses.Load())
	}

	// Byte cap: a second 80-byte array overflows 100 bytes and evicts the
	// first; a 12-byte label then fits beside it.
	s = newUserStore(100, 100)
	s.get(1, arrayOf(10))
	s.get(2, arrayOf(10))
	s.get(3, labelOf(1))
	if n, b := s.occupancy(); n != 2 || b != 80+12 || storeHas(s, 1) {
		t.Fatalf("byte cap: %d entries / %d bytes (user 1 kept: %v), want 2 / 92 without user 1", n, b, storeHas(s, 1))
	}
	// An entry larger than the whole cap is served but not retained.
	if ent := s.get(4, arrayOf(20)); len(ent.array) != 20 {
		t.Fatal("oversized entry not returned to its caller")
	}
	if _, b := s.occupancy(); b > 100 {
		t.Fatalf("bytes = %d exceed the 100-byte cap", b)
	}

	// In-flight eviction: user 1's build is still running when user 2's
	// insert pushes it out of a one-entry store.
	s = newUserStore(1, 1<<20)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan *userEntry)
	go func() {
		done <- s.get(1, func(ent *userEntry) {
			close(started)
			<-release
			ent.array = make([]float64, 10)
		})
	}()
	<-started
	s.get(2, arrayOf(10))
	close(release)
	if ent := <-done; ent == nil || len(ent.array) != 10 {
		t.Fatal("leader of an evicted in-flight entry lost its result")
	}
	if n, b := s.occupancy(); n != 1 || b != 80 || storeHas(s, 1) {
		t.Fatalf("after in-flight eviction: %d entries / %d bytes, want only user 2 (80 bytes)", n, b)
	}
	s.get(1, arrayOf(10)) // evicted entries rebuild on the next read
	if s.misses.Load() != 3 {
		t.Fatalf("misses = %d, want 3 (the evicted user rebuilt)", s.misses.Load())
	}
}

// TestPinnedChargeOnce pins the budget rule of userView: the first read of
// a user's array in a query charges its metered sweep cost, later reads in
// the same query are free — even after the store evicted the entry — and
// every query pays once, whichever store scope serves it. Past the
// query-scope pinned caps each read pays again.
func TestPinnedChargeOnce(t *testing.T) {
	ds := smallDataset(t, 4)
	u := socialnet.UserID(3)
	for _, memo := range []bool{false, true} {
		e := buildEngine(t, ds, Options{SharedWork: memo})
		v := e.newUserView()
		ck := roadnet.NewCheckpoint(nil, nil, 1<<40)
		e.userArray(v, u, ck)
		work := ck.Spent()
		if work <= 0 {
			t.Fatalf("memo=%v: first read charged %d", memo, work)
		}
		e.userArray(v, u, ck)
		v.store.reset()
		e.userArray(v, u, ck) // rebuilt after eviction, still pinned
		if got := ck.Spent(); got != work {
			t.Fatalf("memo=%v: pinned re-reads charged %d, want %d total", memo, got, work)
		}

		// A second query pays for its own first read.
		ck2 := roadnet.NewCheckpoint(nil, nil, 1<<40)
		e.userArray(e.newUserView(), u, ck2)
		if ck2.Spent() != work {
			t.Fatalf("memo=%v: second query charged %d, want %d", memo, ck2.Spent(), work)
		}

		// A full pinned set leaves new users unpinned: every read pays.
		full := e.newUserView()
		full.pinnedBytes = queryUserMaxBytes
		ck3 := roadnet.NewCheckpoint(nil, nil, 1<<40)
		e.userArray(full, u, ck3)
		e.userArray(full, u, ck3)
		if ck3.Spent() != 2*work {
			t.Fatalf("memo=%v: unpinned reads charged %d, want %d", memo, ck3.Spent(), 2*work)
		}

		// A budget one short of the sweep trips on the first read with an
		// all-+Inf array, and the user stays unpinned.
		tiny := roadnet.NewCheckpoint(nil, nil, work-1)
		tv := e.newUserView()
		for _, d := range e.userArray(tv, u, tiny) {
			if !math.IsInf(d, 1) {
				t.Fatalf("memo=%v: budget-tripped read leaked finite distances", memo)
			}
		}
		if !tiny.Exhausted() || tv.isPinned(u) {
			t.Fatalf("memo=%v: tripped read exhausted=%v pinned=%v, want true/false", memo, tiny.Exhausted(), tv.isPinned(u))
		}
	}
}

// TestMOfHonorsCacheCaps hammers the refinement evaluator with every user
// against a store far smaller than the user count: the cap must hold
// throughout, evicted entries must rebuild with identical values, and the
// same holds on the hub-label path.
func TestMOfHonorsCacheCaps(t *testing.T) {
	ds := smallDataset(t, 4)
	e := buildEngine(t, ds, Options{})
	ar := e.acquireArena()
	defer e.releaseArena(ar)
	ball := make([]model.POIID, 0, 10)
	for o := 0; o < 10; o++ {
		ball = append(ball, model.POIID(o))
	}

	// Ground truth from uncached full searches (no oracle attached yet).
	want := make([]float64, len(ds.Users))
	for u := range ds.Users {
		want[u] = mFromVertexDist(e, socialnet.UserID(u), ball, e.userVertexDist(socialnet.UserID(u), nil))
	}

	const cap = 8
	store := newUserStore(cap, 1<<26)
	mOf := e.makeMOf(&userView{store: store}, ball, nil, nil, nil, ar)
	for pass := 0; pass < 2; pass++ {
		for u := range ds.Users {
			if got := mOf(socialnet.UserID(u)); got != want[u] {
				t.Fatalf("array mode: mOf(%d) = %v, want %v", u, got, want[u])
			}
			if n, _ := store.occupancy(); n > cap {
				t.Fatalf("array mode: store grew to %d entries (cap %d)", n, cap)
			}
		}
	}
	if store.evictions.Load() == 0 {
		t.Fatalf("array mode: expected evictions with %d users and cap %d", len(ds.Users), cap)
	}

	// Label mode: same values (up to float association order), same caps,
	// and byte usage reflecting label-sized entries rather than O(V) arrays.
	ds.Road.SetDistanceOracle(hl.Build(ds.Road))
	defer ds.Road.SetDistanceOracle(nil)
	lstore := newUserStore(cap, 1<<26)
	mOfL := e.makeMOf(&userView{store: lstore}, ball, nil, nil, nil, ar)
	for u := range ds.Users {
		got := mOfL(socialnet.UserID(u))
		if math.Abs(got-want[u]) > 1e-9*math.Max(1, want[u]) {
			t.Fatalf("label mode: mOf(%d) = %v, want %v", u, got, want[u])
		}
		if n, _ := lstore.occupancy(); n > cap {
			t.Fatalf("label mode: store grew to %d entries (cap %d)", n, cap)
		}
	}
	if lstore.evictions.Load() == 0 {
		t.Fatal("label mode: expected evictions")
	}
	n, b := lstore.occupancy()
	if arrayBytes := int64(8 * ds.Road.NumVertices()); b/int64(n) >= arrayBytes {
		t.Fatalf("label entries average %d bytes, not smaller than an O(V) array (%d)", b/int64(n), arrayBytes)
	}
}

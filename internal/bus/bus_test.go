package bus

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// testHorizon covers every booking the fixed-cycle tests make.
const testHorizon = 20

// mustTracker builds a tracker with the paper's default bus count.
func mustTracker(t *testing.T, k Kind, stations, horizon int) *Tracker {
	t.Helper()
	tr, err := NewTracker(k, stations, 0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBus1SingleResultPerCycle(t *testing.T) {
	tr := mustTracker(t, Bus1, 4, testHorizon)
	if !tr.Free(0, 10) {
		t.Fatal("fresh tracker not free")
	}
	tr.Reserve(0, 10)
	if tr.Free(3, 10) {
		t.Error("1-Bus allowed two results in one cycle")
	}
	if !tr.Free(1, 11) {
		t.Error("adjacent cycle should be free")
	}
}

func TestXBarCapacityIsN(t *testing.T) {
	tr := mustTracker(t, XBar, 3, testHorizon)
	for i := 0; i < 3; i++ {
		if !tr.Free(i, 5) {
			t.Fatalf("X-Bar rejected result %d of 3", i+1)
		}
		tr.Reserve(i, 5)
	}
	if tr.Free(0, 5) {
		t.Error("X-Bar accepted a 4th result with 3 busses")
	}
}

func TestBusNPerStation(t *testing.T) {
	tr := mustTracker(t, BusN, 2, testHorizon)
	tr.Reserve(0, 7)
	if tr.Free(0, 7) {
		t.Error("station 0's bus double-booked")
	}
	if !tr.Free(1, 7) {
		t.Error("station 1's bus should be independent")
	}
}

func TestEarliestIssueSlides(t *testing.T) {
	tr := mustTracker(t, Bus1, 1, testHorizon)
	tr.Reserve(0, 10) // cycle 10 taken
	// An op issued at 3 with latency 7 would land on 10; it must slide
	// to issue at 4.
	if got := tr.EarliestIssue(0, 3, 7); got != 4 {
		t.Errorf("EarliestIssue = %d, want 4", got)
	}
	// With the slot free, the issue time passes through.
	if got := tr.EarliestIssue(0, 20, 7); got != 20 {
		t.Errorf("EarliestIssue = %d, want 20", got)
	}
}

func TestWindowWraparound(t *testing.T) {
	tr := mustTracker(t, Bus1, 1, testHorizon)
	tr.Reserve(0, 5)
	// Cycle 5+RingSize maps to the same slot but is a different cycle;
	// the stale reservation must not block it.
	if !tr.Free(0, 5+int64(RingSize(testHorizon))) {
		t.Error("stale reservation blocked a wrapped cycle")
	}
}

func TestReset(t *testing.T) {
	tr := mustTracker(t, BusN, 2, testHorizon)
	tr.Reserve(1, 3)
	tr.Reset()
	if !tr.Free(1, 3) {
		t.Error("Reset did not clear reservations")
	}
}

func TestKindString(t *testing.T) {
	if XBar.String() != "X-Bar" || BusN.String() != "N-Bus" || Bus1.String() != "1-Bus" {
		t.Error("Kind names do not match the paper's")
	}
}

func TestNewTrackerPanicsOnZeroStations(t *testing.T) {
	if _, err := NewTracker(Bus1, 0, 0, testHorizon); err == nil {
		t.Error("NewTracker accepted zero stations")
	}
}

// Property: against a naive map-based model, the ring-buffer tracker
// gives identical Free answers under random monotonically-advancing
// reservation sequences (the usage pattern of the simulators), with
// bookings up to a random horizon of as much as 300 cycles ahead, so
// a ring that evicted a pending booking would answer wrongly.
func TestTrackerMatchesNaiveModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kind := []Kind{XBar, BusN, Bus1}[rng.Intn(3)]
		n := 1 + rng.Intn(4)
		horizon := 1 + rng.Intn(300)
		tr := mustTracker(t, kind, n, horizon)

		type key struct {
			station int
			cycle   int64
		}
		naiveShared := map[int64]int{}
		naivePer := map[key]int{}
		capacity := map[Kind]int{XBar: n, Bus1: 1, BusN: 1}[kind]

		now := int64(0)
		for i := 0; i < 200; i++ {
			now += int64(rng.Intn(3)) // time advances slowly
			st := rng.Intn(n)
			c := now + int64(rng.Intn(horizon+1)) // reserve within the horizon
			var naiveFree bool
			if kind == BusN {
				naiveFree = naivePer[key{st, c}] < capacity
			} else {
				naiveFree = naiveShared[c] < capacity
			}
			if got := tr.Free(st, c); got != naiveFree {
				t.Logf("kind=%s n=%d horizon=%d station=%d cycle=%d: Free=%v naive=%v", kind, n, horizon, st, c, got, naiveFree)
				return false
			}
			if naiveFree && rng.Intn(2) == 0 {
				tr.Reserve(st, c)
				if kind == BusN {
					naivePer[key{st, c}]++
				} else {
					naiveShared[c]++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestXBarExplicitBusCount(t *testing.T) {
	// A 4-station crossbar with only 2 shared buses: two results may
	// share a cycle, a third must not.
	tr, err := NewTracker(XBar, 4, 2, testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Buses() != 2 {
		t.Fatalf("Buses() = %d, want 2", tr.Buses())
	}
	tr.Reserve(0, 9)
	tr.Reserve(1, 9)
	if tr.Free(2, 9) {
		t.Error("third result admitted on a 2-bus crossbar cycle")
	}
	if !tr.Free(2, 10) {
		t.Error("next cycle not free")
	}
}

func TestBusCountDefaults(t *testing.T) {
	for _, tc := range []struct {
		kind  Kind
		buses int
	}{{XBar, 4}, {BusN, 4}, {Bus1, 1}} {
		tr, err := NewTracker(tc.kind, 4, 0, testHorizon)
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if tr.Buses() != tc.buses {
			t.Errorf("%s: Buses() = %d, want %d", tc.kind, tr.Buses(), tc.buses)
		}
	}
}

func TestBusCountContradictionsRejected(t *testing.T) {
	if _, err := NewTracker(BusN, 4, 2, testHorizon); err == nil {
		t.Error("BusN with 2 buses for 4 stations accepted")
	}
	if _, err := NewTracker(Bus1, 4, 3, testHorizon); err == nil {
		t.Error("Bus1 with 3 buses accepted")
	}
	if _, err := NewTracker(XBar, 4, -1, testHorizon); err == nil {
		t.Error("negative bus count accepted")
	}
}

func TestRingSize(t *testing.T) {
	for _, tc := range []struct{ horizon, want int }{
		{0, 1}, {1, 2}, {14, 16}, {15, 16}, {16, 32}, {63, 64}, {64, 128}, {200, 256},
		{MaxHorizon, MaxHorizon + 1}, {MaxHorizon + 1, MaxHorizon + 1}, {1 << 26, MaxHorizon + 1},
	} {
		if got := RingSize(tc.horizon); got != tc.want {
			t.Errorf("RingSize(%d) = %d, want %d", tc.horizon, got, tc.want)
		}
	}
}

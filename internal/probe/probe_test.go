package probe

import (
	"strings"
	"testing"

	"mfup/internal/isa"
)

func TestReasonStrings(t *testing.T) {
	want := []string{
		"raw", "waw", "structural-fu", "result-bus", "memory-bank",
		"branch", "buffer-full", "issue-width", "drain",
	}
	rs := Reasons()
	if len(rs) != len(want) || len(rs) != NumReasons {
		t.Fatalf("Reasons() has %d entries, want %d", len(rs), len(want))
	}
	for i, r := range rs {
		if r.String() != want[i] {
			t.Errorf("Reason(%d).String() = %q, want %q", i, r, want[i])
		}
	}
	if s := Reason(250).String(); !strings.Contains(s, "250") {
		t.Errorf("out-of-range reason renders %q", s)
	}
}

func TestCountersSingleRun(t *testing.T) {
	var c Counters
	c.Begin("M", "t", 1, 0)
	// Issue at 0, RAW-stall cycles 1-5, issue at 6; run ends at 12.
	c.Issue(0, 1)
	c.Stall(1, ReasonRAW, 5)
	c.Issue(6, 1)
	c.Writeback(6, isa.FloatAdd, 6)
	c.Writeback(12, isa.FloatAdd, 6)
	c.End(12)

	if c.Issued != 2 || c.Cycles != 12 || c.Slots != 12 {
		t.Fatalf("totals: issued %d cycles %d slots %d, want 2/12/12", c.Issued, c.Cycles, c.Slots)
	}
	if c.Stalls[ReasonRAW] != 5 {
		t.Errorf("RAW stalls = %d, want 5", c.Stalls[ReasonRAW])
	}
	if c.Stalls[ReasonDrain] != 5 {
		t.Errorf("drain = %d, want 5 (12 slots - 2 issued - 5 RAW)", c.Stalls[ReasonDrain])
	}
	if c.FU[isa.FloatAdd].Ops != 2 || c.FU[isa.FloatAdd].Busy != 12 {
		t.Errorf("FU stat = %+v, want 2 ops / 12 busy", c.FU[isa.FloatAdd])
	}
	if err := c.Check(); err != nil {
		t.Errorf("Check() = %v", err)
	}
	if s := c.String(); !strings.Contains(s, "raw 5") || !strings.Contains(s, "drain 5") {
		t.Errorf("String() = %q, missing breakdown", s)
	}
}

func TestCountersAccumulatesAcrossRuns(t *testing.T) {
	var c Counters
	for run := 0; run < 3; run++ {
		c.Begin("M", "t", 2, 8)
		c.Issue(0, 2)
		c.Stall(1, ReasonBranch, 4)
		c.Occupancy(3, 2)
		c.End(4) // 8 slots/run: 2 issued + 4 branch + 2 drain
	}
	if c.Runs != 3 || c.Slots != 24 || c.Issued != 6 {
		t.Fatalf("runs %d slots %d issued %d, want 3/24/6", c.Runs, c.Slots, c.Issued)
	}
	if c.Stalls[ReasonBranch] != 12 || c.Stalls[ReasonDrain] != 6 {
		t.Errorf("branch %d drain %d, want 12/6", c.Stalls[ReasonBranch], c.Stalls[ReasonDrain])
	}
	if len(c.OccupancyHist) != 4 || c.OccupancyHist[3] != 6 {
		t.Errorf("occupancy histogram = %v, want level 3 -> 6", c.OccupancyHist)
	}
	if c.Capacity != 8 {
		t.Errorf("capacity = %d, want 8", c.Capacity)
	}
	if err := c.Check(); err != nil {
		t.Errorf("Check() = %v", err)
	}
}

func TestCheckCatchesOverAttribution(t *testing.T) {
	var c Counters
	c.Begin("M", "t", 1, 0)
	c.Issue(0, 1)
	c.Stall(1, ReasonWAW, 10) // more slots than the run has
	c.End(5)                  // derived drain goes negative
	if err := c.Check(); err == nil {
		t.Fatal("Check() accepted an over-attributed run")
	}
}

func TestBranchResolveCounts(t *testing.T) {
	var c Counters
	c.Begin("M", "t", 1, 0)
	c.BranchResolve(5)
	c.BranchResolve(9)
	c.End(10)
	if c.Branches != 2 {
		t.Errorf("branches = %d, want 2", c.Branches)
	}
}

// TestAccountWidthOne mirrors a single-issue machine: the gap before
// each issue carries the issuing instruction's binding reason.
func TestAccountWidthOne(t *testing.T) {
	var c Counters
	c.Begin("M", "t", 1, 0)
	a := NewAccount(&c, 1)
	a.Issue(0, ReasonRAW)       // no gap
	a.Issue(6, ReasonRAW)       // cycles 1-5 blamed RAW
	a.Advance(11, ReasonBranch) // cycles 7-10 blamed Branch (4 slots)
	a.Issue(13, ReasonStructFU) // cycles 11-12 blamed StructFU
	c.End(14)

	if c.Issued != 3 {
		t.Fatalf("issued %d, want 3", c.Issued)
	}
	wantStalls := map[Reason]int64{ReasonRAW: 5, ReasonBranch: 4, ReasonStructFU: 2, ReasonDrain: 0}
	for r, want := range wantStalls {
		if c.Stalls[r] != want {
			t.Errorf("%s stalls = %d, want %d", r, c.Stalls[r], want)
		}
	}
	if err := c.Check(); err != nil {
		t.Errorf("Check() = %v", err)
	}
}

// TestAccountMultiIssue mirrors a width-2 buffer machine: same-cycle
// issues share the cycle's slots; partial cycles blame the remainder.
func TestAccountMultiIssue(t *testing.T) {
	var c Counters
	c.Begin("M", "t", 2, 0)
	a := NewAccount(&c, 2)
	a.Issue(0, ReasonRAW)          // slot 1 of cycle 0
	a.Issue(0, ReasonRAW)          // slot 2 of cycle 0: full
	a.Issue(3, ReasonResultBus)    // cycles 1-2 idle (4 slots) + nothing extra
	a.Advance(4, ReasonIssueWidth) // rest of cycle 3 (1 slot) refill-blamed
	c.End(4)

	if c.Issued != 3 || c.Slots != 8 {
		t.Fatalf("issued %d slots %d, want 3/8", c.Issued, c.Slots)
	}
	if c.Stalls[ReasonResultBus] != 4 {
		t.Errorf("result-bus stalls = %d, want 4", c.Stalls[ReasonResultBus])
	}
	if c.Stalls[ReasonIssueWidth] != 1 {
		t.Errorf("issue-width stalls = %d, want 1", c.Stalls[ReasonIssueWidth])
	}
	if c.Stalls[ReasonDrain] != 0 {
		t.Errorf("drain = %d, want 0", c.Stalls[ReasonDrain])
	}
	if err := c.Check(); err != nil {
		t.Errorf("Check() = %v", err)
	}
}

func TestAccountAdvanceBackwardsIsNoop(t *testing.T) {
	var c Counters
	c.Begin("M", "t", 1, 0)
	a := NewAccount(&c, 1)
	a.Issue(5, ReasonRAW)
	a.Advance(5, ReasonBranch)
	a.Advance(2, ReasonBranch)
	c.End(6)
	if c.Stalls[ReasonBranch] != 0 {
		t.Errorf("backward advance attributed %d branch slots", c.Stalls[ReasonBranch])
	}
	if err := c.Check(); err != nil {
		t.Errorf("Check() = %v", err)
	}
}

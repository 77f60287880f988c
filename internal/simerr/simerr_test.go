package simerr

import (
	"strings"
	"testing"
	"time"
)

func TestErrorIsOneLine(t *testing.T) {
	e := &SimError{
		Kind: KindStall, Machine: "RUU(2)", Trace: "lfk05",
		Cycle: 1234, Instr: 56, Msg: "nothing issued",
		InFlight: []string{"seq 1 load", "seq 2 fadd"},
	}
	if strings.Contains(e.Error(), "\n") {
		t.Errorf("Error() must be one line, got %q", e.Error())
	}
	for _, want := range []string{"RUU(2)", "lfk05", "1234", "no forward progress", "2 in flight"} {
		if !strings.Contains(e.Error(), want) {
			t.Errorf("Error() = %q, missing %q", e.Error(), want)
		}
	}
	if !strings.Contains(e.Detail(), "seq 2 fadd") {
		t.Errorf("Detail() = %q, missing snapshot", e.Detail())
	}
}

func TestGuardBudget(t *testing.T) {
	g := NewGuard("M", "t", 100, 0, time.Time{})
	if err := g.Over(100, 0); err != nil {
		t.Errorf("at budget: unexpected %v", err)
	}
	err := g.Over(101, 7)
	if err == nil || err.Kind != KindCycleBudget || err.Cycle != 101 || err.Instr != 7 {
		t.Errorf("past budget: got %+v", err)
	}
}

func TestGuardStall(t *testing.T) {
	g := NewGuard("M", "t", 0, 10, time.Time{})
	g.Progress(5)
	if err := g.Stalled(15, 0, nil); err != nil {
		t.Errorf("within window: unexpected %v", err)
	}
	called := false
	err := g.Stalled(16, 3, func(max int) []string {
		called = true
		return []string{"a", "b"}
	})
	if err == nil || err.Kind != KindStall || !called || len(err.InFlight) != 2 {
		t.Errorf("stall: got %+v (snapshot called: %v)", err, called)
	}
}

func TestGuardDisabledChecksNothing(t *testing.T) {
	var g Guard // zero value: all checks off
	if g.Over(1<<40, 0) != nil || g.Stalled(1<<40, 0, nil) != nil || g.Tick(0, 0) != nil {
		t.Error("zero guard must not fire")
	}
}

func TestGuardDeadline(t *testing.T) {
	g := NewGuard("M", "t", 0, 0, time.Now().Add(-time.Second))
	var err *SimError
	for i := 0; i < pollStride+1 && err == nil; i++ {
		err = g.Tick(int64(i), int64(i))
	}
	if err == nil || err.Kind != KindDeadline {
		t.Errorf("expired deadline never fired: %+v", err)
	}
}

// TestGuardJump pins the clamp the next-event scan takes its jumps
// through: a jump stops at the first cycle at which the budget or the
// watchdog would fire, never goes backwards, and is refused while a
// fault schedule is armed.
func TestGuardJump(t *testing.T) {
	g := NewGuard("m", "t", 100, 10, time.Time{})
	g.Progress(40)
	for _, tc := range []struct{ c, next, want int64 }{
		{41, 45, 45},  // inside both limits
		{41, 42, 42},  // the next cycle
		{41, 41, 42},  // never backwards
		{41, 80, 51},  // the watchdog fires at lastProgress+StallCycles+1
		{60, 200, 61}, // already past the watchdog cycle: step
	} {
		if got := g.Jump(tc.c, tc.next); got != tc.want {
			t.Errorf("Jump(%d, %d) = %d, want %d", tc.c, tc.next, got, tc.want)
		}
	}
	budget := NewGuard("m", "t", 100, 0, time.Time{})
	if got := budget.Jump(50, 500); got != 101 {
		t.Errorf("budget Jump(50, 500) = %d, want 101", got)
	}
	armed := NewGuard("m", "t", 0, 0, time.Time{})
	armed.Inject(InjectedFault{ErrAt: 1000})
	if got := armed.Jump(50, 500); got != 51 {
		t.Errorf("armed Jump(50, 500) = %d, want 51", got)
	}
	free := NewGuard("m", "t", 0, 0, time.Time{})
	if got := free.Jump(50, 500); got != 500 {
		t.Errorf("unbounded Jump(50, 500) = %d, want 500", got)
	}
}

package probe

// Account converts an issue-time stream into slot accounting for
// machines that compute issue cycles directly instead of stepping
// cycle by cycle (the single-issue models, the in-order multi-issue
// model, the vector machine).
//
// The arithmetic: with width W, the cycles between two consecutive
// issue events e_prev and e hold (e - e_prev) * W slots minus the
// issues already recorded at e_prev. An in-order issue stage blames
// all of them on the oldest unissued instruction — the one issuing at
// e — so the whole gap carries that instruction's binding stall
// reason. Advance does the same for gaps the machine creates without
// an issue (a branch shadow, a buffer refill), and anything after the
// final event is left for Counters to derive as drain.
type Account struct {
	p     Probe
	width int64
	cur   int64 // cycle currently receiving issues
	n     int64 // issues recorded at cur
}

// NewAccount builds an accountant reporting to p (which must be
// non-nil; machines skip accounting entirely when unprobed) for a
// machine with the given issue width.
func NewAccount(p Probe, width int) *Account {
	return &Account{p: p, width: int64(width)}
}

// Issue records one instruction issuing at cycle e >= the previous
// event, blaming the idle slots since then on r — the binding reason
// the machine computed for this instruction's wait. Instructions
// issuing in the same cycle (multi-issue stations) pass the same e.
func (a *Account) Issue(e int64, r Reason) {
	if e > a.cur {
		if slots := (e-a.cur)*a.width - a.n; slots > 0 {
			a.p.Stall(a.cur, r, slots)
		}
		a.cur, a.n = e, 0
	}
	a.p.Issue(e, 1)
	a.n++
}

// Advance moves the issue stage to cycle `to` without an issue,
// blaming the skipped slots on r: the remaining slots of the current
// cycle plus every slot of the cycles strictly before `to`. Machines
// call it for branch shadows and end-of-buffer refills. A `to` at or
// before the current cycle is a no-op.
func (a *Account) Advance(to int64, r Reason) {
	if to <= a.cur {
		return
	}
	if slots := (to-a.cur)*a.width - a.n; slots > 0 {
		a.p.Stall(a.cur, r, slots)
	}
	a.cur, a.n = to, 0
}

// Retarget points the accountant at p, keeping its place: a copied run
// goes on filing its slots with its own probe.
func (a *Account) Retarget(p Probe) { a.p = p }

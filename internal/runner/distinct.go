package runner

import (
	"context"
	"slices"
	"sort"

	"mfup/internal/core"
	"mfup/internal/faultinject"
	"mfup/internal/isa"
	"mfup/internal/simerr"
)

// RunDistinct is RunCheckedStats that simulates each distinct machine
// once, and no machine whose answer a smaller one already gave.
//
// key(i) names the machine tasks[i] builds: id is everything that
// decides the task's results other than its traces and its
// functional-unit copy counts, copies[u] is its copies of unit u, and
// ok is false when the machine has no name. key is called once per
// task, so a caller pays for names only of the tasks it passes. A task
// that takes another's run (a duplicate) gets that run's results and
// its own copy of each of its errors, under its own task index and its
// own machine's name. A duplicate's machine is built, never run: only
// its Name is read. Two rules make duplicates, both among tasks with
// equal ids that run the same traces, in the same order:
//
//   - Twins, with equal copies, share one run: the first of them
//     simulates.
//   - A family member with more copies of some units takes the run of
//     its representative: the member with no more copies of any unit,
//     and the fewest copies among those (the first, on a tie). It does
//     so when that run had no error and never found busy a unit the
//     member has more copies of (TaskStat.Refused, which spans all the
//     task's traces: a pool's Reset keeps it). Copy counts act
//     only through the machine's functional-unit pool, and a pool with
//     more copies of a unit that was never busy answers every call of
//     the run the same (fu.Pool.Refused), so the member's own run
//     would give the same results.
//
// The tasks without a representative run first; the members whose
// representative's run does not answer for them run second. With
// opts.FailFast, a failure in the first phase skips the second
// (ErrSkipped).
//
// Tasks with a probe or recorder attached never share: each observes
// its own run. Nothing shares while fault injection is active, because
// injected faults are chosen by machine name and counted per run.
// A duplicate's TaskStat records the shared run's simulated cycles and
// refused units and sets Shared; its wall time is zero.
func RunDistinct[K comparable](ctx context.Context, opts Options, tasks []Task, key func(i int) (id K, copies [isa.NumUnits]int, ok bool)) ([][]core.Result, []TaskStat, []*CellError) {
	if faultinject.Active() != nil || opts.Validate() != nil {
		return RunCheckedStats(ctx, opts, tasks)
	}
	// src[i] is the task whose run task i takes; i itself when it runs.
	src := make([]int, len(tasks))
	// rep[i] is the representative of a distinct task i, or -1.
	rep := make([]int, len(tasks))
	ids := make([]K, len(tasks))
	copies := make([][isa.NumUnits]int, len(tasks))
	families := make(map[K][]int) // distinct tasks by id, in task order
	var distinct []int            // distinct named tasks, in task order
	for i, t := range tasks {
		src[i], rep[i] = i, -1
		if t.Probe != nil || t.Recorder != nil {
			continue
		}
		var ok bool
		if ids[i], copies[i], ok = key(i); !ok {
			continue
		}
		for _, r := range families[ids[i]] {
			if copies[r] == copies[i] && slices.Equal(tasks[r].Traces, t.Traces) {
				src[i] = r
				break
			}
		}
		if src[i] == i {
			families[ids[i]] = append(families[ids[i]], i)
			distinct = append(distinct, i)
		}
	}
	for _, i := range distinct {
		for _, r := range families[ids[i]] {
			if r != i && slices.Equal(tasks[r].Traces, tasks[i].Traces) && noMore(copies[r], copies[i]) &&
				(rep[i] < 0 || total(copies[r]) < total(copies[rep[i]])) {
				rep[i] = r
			}
		}
	}

	var phase1 []int
	for i := range tasks {
		if src[i] == i && rep[i] < 0 {
			phase1 = append(phase1, i)
		}
	}
	if len(phase1) == len(tasks) {
		return RunCheckedStats(ctx, opts, tasks)
	}

	out := make([][]core.Result, len(tasks))
	stats := make([]TaskStat, len(tasks))
	errsOf := make([][]*CellError, len(tasks))
	failed := false
	run := func(ctx context.Context, idx []int) {
		sub := make([]Task, len(idx))
		for j, i := range idx {
			sub[j] = tasks[i]
		}
		results, subStats, errs := RunCheckedStats(ctx, opts, sub)
		for j, i := range idx {
			out[i], stats[i] = results[j], subStats[j]
		}
		for _, e := range errs {
			e.Task = idx[e.Task]
			errsOf[e.Task] = append(errsOf[e.Task], e)
			failed = true
		}
	}
	run(ctx, phase1)

	var phase2 []int
	for _, i := range distinct {
		r := rep[i]
		if r < 0 {
			continue
		}
		if len(errsOf[r]) == 0 && !refusedMore(stats[r], copies[r], copies[i]) {
			src[i] = r
		} else {
			phase2 = append(phase2, i)
		}
	}
	ctx2 := ctx
	if opts.FailFast && failed {
		var cancel context.CancelFunc
		ctx2, cancel = context.WithCancel(ctx)
		cancel()
	}
	run(ctx2, phase2)

	var errs []*CellError
	for _, es := range errsOf {
		errs = append(errs, es...)
	}
	for i, r := range src {
		if r == i {
			continue
		}
		r = src[r] // a twin of a member that took its representative's run
		var m core.Machine
		if err := safeCall(func() { m = tasks[i].New() }); err != nil {
			out[i] = make([]core.Result, len(tasks[i].Traces))
			errs = append(errs, &CellError{Task: i, Trace: -1, Err: err, Stack: stackOf(err)})
			continue
		}
		name := m.Name()
		out[i] = make([]core.Result, len(out[r]))
		for j, res := range out[r] {
			if res.Machine != "" {
				res.Machine = name
			}
			out[i][j] = res
		}
		stats[i] = TaskStat{Cycles: stats[r].Cycles, Shared: true, Refused: stats[r].Refused}
		for _, e := range errsOf[r] {
			c := *e
			c.Task = i
			if c.Machine != "" {
				c.Machine = name
			}
			if se, ok := c.Err.(*simerr.SimError); ok {
				own := *se
				own.Machine = name
				c.Err = &own
			}
			errs = append(errs, &c)
		}
	}
	sort.Slice(errs, func(a, b int) bool {
		if errs[a].Task != errs[b].Task {
			return errs[a].Task < errs[b].Task
		}
		return errs[a].Trace < errs[b].Trace
	})
	return out, stats, errs
}

// noMore reports whether a has no more copies than b of any unit.
func noMore(a, b [isa.NumUnits]int) bool {
	for u := range a {
		if a[u] > b[u] {
			return false
		}
	}
	return true
}

// total is the number of unit copies in c.
func total(c [isa.NumUnits]int) int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// refusedMore reports whether the run behind st found busy some unit
// of which a machine with copies more has more copies than less.
func refusedMore(st TaskStat, less, more [isa.NumUnits]int) bool {
	for u := range less {
		if more[u] > less[u] && st.Refused.Has(isa.Unit(u)) {
			return true
		}
	}
	return false
}

package runner

import (
	"context"
	"slices"
	"sort"

	"mfup/internal/core"
	"mfup/internal/faultinject"
	"mfup/internal/simerr"
)

// RunDistinct is RunCheckedStats that simulates each distinct machine
// once. key(i) names the machine tasks[i] builds, ok false when it has
// no name. Tasks whose keys are equal and that run the same traces, in
// the same order, share one run: the first of them simulates, and each
// later one (a duplicate) gets that run's results and its own copy of
// each of its errors, under its own task index and its own machine's
// name. A duplicate's machine is built, never run: only its Name is
// read. key must name everything that decides a task's results other
// than its traces, and it is called once per task, so a caller pays
// for identities only of the tasks it passes.
//
// Tasks with a probe or recorder attached never share: each observes
// its own run. Nothing shares while fault injection is active, because
// injected faults are chosen by machine name and counted per run.
// A duplicate's TaskStat records the shared run's simulated cycles and
// sets Shared; its wall time is zero.
func RunDistinct[K comparable](ctx context.Context, opts Options, tasks []Task, key func(i int) (K, bool)) ([][]core.Result, []TaskStat, []*CellError) {
	if faultinject.Active() != nil || opts.Validate() != nil {
		return RunCheckedStats(ctx, opts, tasks)
	}
	// twin[i] is the task whose run task i takes, or -1 when it runs.
	twin := make([]int, len(tasks))
	first := make(map[K][]int)
	var run []Task
	var runIdx []int // run index -> task index
	for i, t := range tasks {
		twin[i] = -1
		if t.Probe == nil && t.Recorder == nil {
			if k, ok := key(i); ok {
				for _, r := range first[k] {
					if slices.Equal(tasks[r].Traces, t.Traces) {
						twin[i] = r
						break
					}
				}
				if twin[i] < 0 {
					first[k] = append(first[k], i)
				}
			}
		}
		if twin[i] < 0 {
			run = append(run, t)
			runIdx = append(runIdx, i)
		}
	}
	if len(run) == len(tasks) {
		return RunCheckedStats(ctx, opts, tasks)
	}

	results, runStats, runErrs := RunCheckedStats(ctx, opts, run)
	out := make([][]core.Result, len(tasks))
	stats := make([]TaskStat, len(tasks))
	errsOf := make(map[int][]*CellError)
	var errs []*CellError
	for ri, i := range runIdx {
		out[i], stats[i] = results[ri], runStats[ri]
	}
	for _, e := range runErrs {
		e.Task = runIdx[e.Task]
		errsOf[e.Task] = append(errsOf[e.Task], e)
		errs = append(errs, e)
	}
	for i, r := range twin {
		if r < 0 {
			continue
		}
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
		stats[i] = TaskStat{Cycles: stats[r].Cycles, Shared: true}
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

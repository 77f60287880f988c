// Command mfuload is the deterministic load generator for mfud: it
// drives a seeded mix of job specs at a target rate, measures
// latency, classifies every response (completed, cached, shed,
// failed), and — the point of the exercise — verifies that the
// daemon never serves two different results for the same job: every
// response observed for a content key must be byte-identical to
// every other, across cache hits, concurrent duplicates, injected
// faults, and daemon restarts.
//
// -addr takes a comma-separated target list: requests round-robin
// across the fleet, and because results are content-addressed the
// byte-identity verdict spans processes — a cluster in which two
// workers (or a worker and a router) disagree about a key is
// corruption, exactly like one daemon disagreeing with itself.
// -sweeps N folds a design-space sweep submission into every Nth
// request, so the verdict also covers whole sweep reports.
//
// Usage examples:
//
//	mfuload -addr http://127.0.0.1:8080 -duration 30s -rate 40
//	mfuload -addr http://127.0.0.1:8080 -duration 60s -clients 16 -seed 7 -report soak.json
//	mfuload -addr http://127.0.0.1:8080,http://127.0.0.1:8081 -sweeps 10 -duration 30s
//
// The exit status is the verdict: 0 for a clean run, 1 for any
// corruption (byte-diverging results) or transport-level failure.
// Shed responses (429/503) are not failures — explicit load shedding
// is the daemon doing its job — but they are counted and reported.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mfup/internal/cli"
	"mfup/internal/faultinject"
	"mfup/internal/serve"
	"mfup/internal/stats"
)

// log is the shared tool logger; main wires it up before first use.
var log = cli.NewLogger("mfuload", false)

// jobMix is the seeded spec pool: small, fast jobs across machine
// kinds and loop selections, with deliberate respellings ("5,1" vs
// "1,5", defaults spelled vs omitted) so the run exercises the
// daemon's canonicalization and dedup as well as its scheduler.
var jobMix = []string{
	`{"machine":{"kind":"cray"},"workload":{"loops":"1"}}`,
	`{"machine":{"kind":"cray","mem":11,"br":5},"workload":{"loops":"1"}}`, // same job, spelled out
	`{"machine":{"kind":"simple"},"workload":{"loops":"2"}}`,
	`{"machine":{"kind":"serialmem"},"workload":{"loops":"3"}}`,
	`{"machine":{"kind":"scoreboard"},"workload":{"loops":"1,5"}}`,
	`{"machine":{"kind":"scoreboard"},"workload":{"loops":"5,1"}}`, // same job, reordered
	`{"machine":{"kind":"tomasulo"},"workload":{"loops":"4"}}`,
	`{"machine":{"kind":"multi","units":2},"workload":{"loops":"6"}}`,
	`{"machine":{"kind":"ooo","units":2},"workload":{"loops":"8"}}`,
	`{"machine":{"kind":"ruu","units":2,"ruu":20},"workload":{"loops":"9"}}`,
	`{"machine":{"kind":"vector"},"workload":{"loops":"vector"}}`,
	`{"machine":{"kind":"cray","mem":5,"br":2},"workload":{"loops":"10,11"}}`,
}

// sweepMix is the seeded sweep-spec pool for -sweeps: small sweeps,
// again with a deliberate respelling so repeated submissions hit the
// same content key from different spellings.
var sweepMix = []string{
	`{"base":{"kind":"ooo","mem":11,"br":5},"axes":{"width":[1,2]}}`,
	`{"base":{"kind":"ooo","br":5,"mem":11},"axes":{"width":[2,1]}}`, // same sweep, respelled
	`{"base":{"kind":"multi","mem":11,"br":5},"axes":{"width":[1,2]}}`,
	`{"base":{"kind":"cray"},"axes":{"mem":[5,11]}}`,
}

// verdict accumulates the run's observations under one lock.
type verdict struct {
	mu        sync.Mutex
	results   map[string][]byte // key -> first observed result bytes
	corrupt   []string          // keys with byte-diverging results
	latencies []time.Duration
	requests  int
	done      int
	cached    int
	accepted  int // 202: async accept (only when -wait=false)
	shed      int // 429/503: explicit load shedding
	faulted   int // 500s tolerated under -chaos
	failed    int // jobs the daemon reported as failed
	errors    int // transport errors, unexpected statuses, bad JSON
	sweeps    int // of the requests, sweep submissions
}

// Report is the -report JSON document.
type Report struct {
	Requests  int      `json:"requests"`
	Done      int      `json:"done"`
	Cached    int      `json:"cached"`
	Accepted  int      `json:"accepted"`
	Shed      int      `json:"shed"`
	Faulted   int      `json:"faulted"`
	Failed    int      `json:"failed"`
	Errors    int      `json:"errors"`
	Sweeps    int      `json:"sweeps"`
	Corrupt   []string `json:"corrupt_keys"`
	UniqueIDs int      `json:"unique_ids"`
	P50MS     float64  `json:"p50_ms"`
	P99MS     float64  `json:"p99_ms"`
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "base URL(s) of the target daemon(s), comma-separated; requests round-robin")
		sweeps   = flag.Int("sweeps", 0, "submit a design-space sweep every N requests; 0 = never")
		duration = flag.Duration("duration", 10*time.Second, "how long to generate load")
		rate     = flag.Float64("rate", 20, "target requests/second; 0 = as fast as the clients go")
		clients  = flag.Int("clients", 4, "concurrent client goroutines")
		seed     = flag.Int64("seed", 1, "seed for the deterministic job mix")
		wait     = flag.Bool("wait", true, "submit with ?wait=1 (block for results) instead of fire-and-poll")
		chaos    = flag.Bool("chaos", false, "target daemon has fault injection armed: tolerate 500s (count them as faulted, not errors)")
		report   = flag.String("report", "", "write the run's JSON report to this file")
		verbose  = flag.Bool("v", false, "verbose logging (debug level) on standard error")
	)
	flag.Parse()
	log = cli.NewLogger("mfuload", *verbose)
	switch {
	case *duration <= 0:
		fail(fmt.Errorf("-duration %v: the run needs positive length", *duration))
	case *rate < 0:
		fail(fmt.Errorf("-rate %g is negative (0 = unpaced)", *rate))
	case *clients < 1:
		fail(fmt.Errorf("-clients %d: need at least one client", *clients))
	case *sweeps < 0:
		fail(fmt.Errorf("-sweeps %d is negative (0 = never)", *sweeps))
	}

	v := &verdict{results: make(map[string][]byte)}
	var targets []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimRight(strings.TrimSpace(a), "/"); a != "" {
			targets = append(targets, a)
		}
	}
	if len(targets) == 0 {
		fail(fmt.Errorf("-addr %q names no targets", *addr))
	}
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	intr := cli.NotifyInterrupt(ctx, log,
		"interrupted; reporting on what has been observed so far (signal again to kill)")
	defer intr.Stop()

	// Pacing: one shared ticker; a slow daemon drops ticks rather than
	// banking a burst. rate 0 closes the throttle entirely (unpaced).
	var tick <-chan time.Time
	if *rate > 0 {
		tk := time.NewTicker(time.Duration(float64(time.Second) / *rate))
		defer tk.Stop()
		tick = tk.C
	}

	var wg sync.WaitGroup
	var n int
	var nmu sync.Mutex
	next := func() int { nmu.Lock(); defer nmu.Unlock(); n++; return n - 1 }
	wg.Add(*clients)
	for c := 0; c < *clients; c++ {
		go func() {
			defer wg.Done()
			hc := &http.Client{Timeout: 2 * time.Minute}
			for {
				if tick != nil {
					select {
					case <-tick:
					case <-intr.Context().Done():
						return
					}
				} else if intr.Context().Err() != nil {
					return
				}
				i := next()
				base := targets[i%len(targets)] // round-robin: the same mix lands on every target
				if *sweeps > 0 && i%*sweeps == *sweeps-1 {
					doc := sweepMix[faultinject.Rand(uint64(*seed)^0x5eed, uint64(i))%uint64(len(sweepMix))]
					o := oneRequest(hc, base, "/v1/sweeps", doc, *wait, *chaos)
					o.sweep = true
					v.observe(o)
					continue
				}
				doc := jobMix[faultinject.Rand(uint64(*seed), uint64(i))%uint64(len(jobMix))]
				v.observe(oneRequest(hc, base, "/v1/jobs", doc, *wait, *chaos))
			}
		}()
	}
	wg.Wait()

	rep := v.report()
	b, _ := json.MarshalIndent(rep, "", "  ")
	if *report != "" {
		if err := os.WriteFile(*report, append(b, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Printf("%s\n", b)
	if len(rep.Corrupt) > 0 {
		fail(fmt.Errorf("CORRUPTION: %d keys served byte-diverging results: %v", len(rep.Corrupt), rep.Corrupt))
	}
	if rep.Errors > 0 {
		fail(fmt.Errorf("%d transport/protocol errors (see -v)", rep.Errors))
	}
	log.Info("clean run", "requests", rep.Requests, "done", rep.Done, "shed", rep.Shed)
}

// outcome is one request's classified result.
type outcome struct {
	latency time.Duration
	class   string // done | cached | accepted | shed | failed | error
	id      string
	result  []byte
	note    string
	sweep   bool
}

// oneRequest submits one document to path and classifies the
// response. The same verdict covers jobs and sweeps: both answer in
// the daemon's standard envelope, both are content-addressed, so
// byte-divergence means the same thing for either.
func oneRequest(hc *http.Client, base, path, doc string, wait, chaos bool) outcome {
	url := base + path
	if wait {
		url += "?wait=1"
	}
	start := time.Now()
	resp, err := hc.Post(url, "application/json", strings.NewReader(doc))
	if err != nil {
		return outcome{latency: time.Since(start), class: "error", note: err.Error()}
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if rerr != nil {
		return outcome{latency: lat, class: "error", note: rerr.Error()}
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// Explicit shedding. The contract is a Retry-After to back off
		// by; shedding without one is a protocol error.
		if resp.Header.Get("Retry-After") == "" {
			return outcome{latency: lat, class: "error", note: fmt.Sprintf("%d without Retry-After", resp.StatusCode)}
		}
		return outcome{latency: lat, class: "shed"}
	case http.StatusInternalServerError:
		if chaos {
			// A fault-armed daemon returns deliberate 500s (e.g.
			// serve.accept:err); under -chaos they are data, not defects.
			return outcome{latency: lat, class: "faulted"}
		}
		return outcome{latency: lat, class: "error",
			note: fmt.Sprintf("status 500: %.120s", body)}
	case http.StatusOK, http.StatusAccepted:
	default:
		return outcome{latency: lat, class: "error",
			note: fmt.Sprintf("status %d: %.120s", resp.StatusCode, body)}
	}
	var jr serve.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		return outcome{latency: lat, class: "error", note: fmt.Sprintf("bad response body: %v", err)}
	}
	switch jr.Status {
	case "done":
		class := "done"
		if jr.Cached {
			class = "cached"
		}
		return outcome{latency: lat, class: class, id: jr.ID, result: jr.Result}
	case "failed":
		return outcome{latency: lat, class: "failed", id: jr.ID, note: jr.Error}
	default: // queued / running on an async accept
		return outcome{latency: lat, class: "accepted", id: jr.ID}
	}
}

// observe folds one outcome into the verdict, checking every result
// against the first bytes seen for its key.
func (v *verdict) observe(o outcome) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.requests++
	if o.sweep {
		v.sweeps++
	}
	v.latencies = append(v.latencies, o.latency)
	switch o.class {
	case "done", "cached":
		if o.class == "cached" {
			v.cached++
		} else {
			v.done++
		}
		if prev, seen := v.results[o.id]; seen {
			if !bytes.Equal(prev, o.result) {
				v.corrupt = append(v.corrupt, o.id)
				log.Error("corruption: result bytes diverged", "id", o.id)
			}
		} else {
			v.results[o.id] = o.result
		}
	case "accepted":
		v.accepted++
	case "shed":
		v.shed++
	case "faulted":
		v.faulted++
	case "failed":
		v.failed++
		log.Debug("job failed", "id", o.id, "err", o.note)
	default:
		v.errors++
		log.Warn("request error", "note", o.note)
	}
}

func (v *verdict) report() Report {
	v.mu.Lock()
	defer v.mu.Unlock()
	sort.Slice(v.latencies, func(i, j int) bool { return v.latencies[i] < v.latencies[j] })
	// Nearest-rank percentiles (stats.Percentile): exact at the small
	// sample counts a short run produces — with two samples the p99 is
	// the larger latency, not the smaller, and n == 1 cannot index out
	// of range.
	ms := make([]float64, len(v.latencies))
	for i, d := range v.latencies {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	pct := func(p float64) float64 { return stats.Percentile(ms, p) }
	// Deduplicate corrupt keys for the report.
	seen := map[string]bool{}
	var corrupt []string
	for _, k := range v.corrupt {
		if !seen[k] {
			seen[k] = true
			corrupt = append(corrupt, k)
		}
	}
	sort.Strings(corrupt)
	return Report{
		Requests:  v.requests,
		Done:      v.done,
		Cached:    v.cached,
		Accepted:  v.accepted,
		Shed:      v.shed,
		Faulted:   v.faulted,
		Failed:    v.failed,
		Errors:    v.errors,
		Sweeps:    v.sweeps,
		Corrupt:   corrupt,
		UniqueIDs: len(v.results),
		P50MS:     pct(0.50),
		P99MS:     pct(0.99),
	}
}

// fail reports err through the shared logger and exits nonzero.
func fail(err error) {
	log.Error(err.Error())
	os.Exit(1)
}

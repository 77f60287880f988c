package main

import (
	"bytes"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// rssEvery is how often rssPeak samples the resident set.
const rssEvery = 10 * time.Millisecond

// rssPeak samples the process's resident set while timed operations
// run and keeps the peak of the current window. VmHWM alone would keep
// the one largest spike of the whole run, which garbage-collection
// timing decides; the median of per-operation peaks does not hang on
// a single spike.
type rssPeak struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssPeak {
	r := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			r.sample()
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// sample reads the resident page count from /proc/self/statm.
func (r *rssPeak) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	for old := r.peak.Load(); rss > old && !r.peak.CompareAndSwap(old, rss); old = r.peak.Load() {
	}
}

// window returns the peak in MB since the last call and starts a new
// window.
func (r *rssPeak) window() float64 {
	r.sample()
	return float64(r.peak.Swap(0)) / (1 << 20)
}

// every closes a window each d until the returned stop is called, and
// stop returns the peaks of those windows, the last one cut short.
func (r *rssPeak) every(d time.Duration) (stop func() []float64) {
	var peaks []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-quit:
				peaks = append(peaks, r.window())
				return
			case <-t.C:
				peaks = append(peaks, r.window())
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return peaks
	}
}

func (r *rssPeak) close() {
	close(r.stop)
	<-r.done
}

package dse

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Each poison document is a few hundred bytes that once made the
// process parsing it allocate without bound: a range whose step wraps
// past the largest int, so building it never ended; a range of two
// billion values, built before any cap was checked; and a request that
// raises the point cap a hundredfold, to 200,000 machines.
const (
	poisonWrap = `{"base":{"kind":"ooo"},"axes":{"width":{"from":9223372036854775800,"to":9223372036854775807,"step":5}}}`
	poisonWide = `{"base":{"kind":"ooo"},"axes":{"width":{"from":1,"to":2000000000}}}`
	poisonCap  = `{"base":{"kind":"ooo"},"axes":{"width":{"from":1,"to":100},"mem":{"from":1,"to":40},"br":{"from":1,"to":50}},"maxpoints":1000000}`
)

// parseAndExpand runs a document through parsing and expansion, as a
// service admits it (request) or as mfutables -sweep reads it, and
// returns the first error.
func parseAndExpand(doc string, request bool) error {
	parse := Parse
	if request {
		parse = ParseRequest
	}
	s, err := parse([]byte(doc))
	if err != nil {
		return err
	}
	_, _, _, err = s.Expand()
	return err
}

// TestPoisonSweepsRefused holds the bounds on sweep documents: each
// poison document is refused with an error naming its defect, and
// refusing it allocates under a megabyte.
func TestPoisonSweepsRefused(t *testing.T) {
	for _, tc := range []struct {
		name, doc string
		request   bool // parsed as a service request (ParseRequest)
		want      string
	}{
		{"wrapping range", poisonWrap, true, "no valid machine definitions"},
		{"wrapping range, operator", poisonWrap, false, "no valid machine definitions"},
		{"wide range", poisonWide, true, `axis "width": range from 1 to 2000000000 step 1 holds more values than the 10000-point cap`},
		{"wide range, operator", poisonWide, false, `axis "width"`},
		{"raised cap", poisonCap, true, "maxpoints 1000000 exceeds the service limit of 10000"},
		{"whole int range", `{"base":{"kind":"ooo"},"axes":{"mem":{"from":-9223372036854775808,"to":9223372036854775807}}}`, true, `axis "mem"`},
		{"range on a string axis", `{"base":{"kind":"ooo"},"axes":{"kind":{"from":1,"to":2000000000}}}`, false, `axis "kind" takes strings`},
		{"over the cap it raises", `{"base":{"kind":"ooo"},"axes":{"ruu":{"from":1,"to":300}},"maxpoints":200}`, false, `axis "ruu"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := parseAndExpand(tc.doc, tc.request)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: accepted, want an error containing %q", tc.doc, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q does not contain %q", tc.doc, err, tc.want)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Errorf("%s: refusing it allocated %d bytes", tc.doc, n)
			}
		})
	}
}

// An operator may still raise the cap: mfutables -sweep parses with
// Parse, which builds a range up to the document's own maxpoints.
func TestOperatorMayRaiseCap(t *testing.T) {
	s, err := Parse([]byte(poisonCap))
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxPoints != 1000000 || len(s.Axes["width"].Ints) != 100 || len(s.Axes["br"].Ints) != 50 {
		t.Fatalf("maxpoints %d, %d widths, %d branch times", s.MaxPoints, len(s.Axes["width"].Ints), len(s.Axes["br"].Ints))
	}
	if _, err := ParseRequest([]byte(strings.Replace(poisonCap, "1000000", "10000", 1))); err != nil {
		t.Errorf("maxpoints at the service limit refused: %v", err)
	}
}

// A range is built by count, so one that ends at the largest int stops
// there, and its values and key match the same set written as a list.
func TestRangeEndingAtMaxInt(t *testing.T) {
	r := axisRange{From: math.MaxInt - 10, To: math.MaxInt, Step: 5}
	if got, want := r.values(), []int{math.MaxInt - 10, math.MaxInt - 5, math.MaxInt}; !slices.Equal(got, want) {
		t.Fatalf("values %v, want %v", got, want)
	}
	if r.over(3) || !r.over(2) {
		t.Errorf("a 3-value range: over(3) %v, over(2) %v", r.over(3), r.over(2))
	}
	ranged := mustParse(t, `{"base":{"kind":"ooo"},"axes":{"width":{"from":2,"to":8,"step":3}}}`)
	listed := mustParse(t, `{"base":{"kind":"ooo"},"axes":{"width":[8,2,5]}}`)
	if ranged.Key() != listed.Key() {
		t.Errorf("range key %s, list key %s", ranged.Key(), listed.Key())
	}
}

// FuzzSweep feeds arbitrary bytes through the sweep parser, the
// canonical form, the key and the expansion. A document a service
// accepts must be a fixed point of canonicalization, parse the same as
// an operator's copy, keep its key when its canonical JSON is parsed
// again, and expand within its cap.
func FuzzSweep(f *testing.F) {
	for _, doc := range []string{poisonWrap, poisonWide, poisonCap, experimentsSweep} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseRequest(data)
		if err != nil {
			return
		}
		specs, expanded, invalid, err := s.Expand()
		if err != nil {
			return
		}
		if len(specs) == 0 || expanded > s.MaxPoints || len(specs)+invalid > expanded {
			t.Fatalf("%q expanded to %d distinct of %d (%d invalid), cap %d", data, len(specs), expanded, invalid, s.MaxPoints)
		}
		again, err := s.Canonicalize()
		if err != nil {
			t.Fatalf("canonical sweep %q refused: %v", data, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("Canonicalize is not idempotent for %q:\n once  %+v\n twice %+v", data, s, again)
		}
		operator, err := Parse(data)
		if err != nil || operator.Key() != s.Key() {
			t.Fatalf("operator parse of %q: key %s (%v), request key %s", data, operator.Key(), err, s.Key())
		}
		canonical, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		reparsed, err := ParseRequest(canonical)
		if err != nil || reparsed.Key() != s.Key() {
			t.Fatalf("canonical JSON %s of %q: key %s (%v), want %s", canonical, data, reparsed.Key(), err, s.Key())
		}
	})
}

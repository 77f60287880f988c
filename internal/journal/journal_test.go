package journal_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mfup/internal/atomicio"
	"mfup/internal/dse"
	"mfup/internal/faultinject"
	"mfup/internal/journal"
	"mfup/internal/serve"
	"mfup/internal/tables"
)

// The shared suite runs every case against the three journal users
// through their public APIs, so it pins each codec, error prefix and
// fault site as well as the Store underneath.

// store is what the cases need of a journal user, with keys and values
// carried as the user's own types (string keys, [2]int table cells,
// string result bytes, float64 rates).
type store interface {
	put(k, v any)
	get(k any) (any, bool)
	Loaded() int
	Saved() int
	Flush() error
	Close() error
}

type cacheStore struct{ *serve.Cache }

func (c cacheStore) put(k, v any) { c.Put(k.(string), json.RawMessage(v.(string))) }
func (c cacheStore) get(k any) (any, bool) {
	r, ok := c.Get(k.(string))
	return string(r), ok
}

type pointStore struct{ *dse.Journal }

func (j pointStore) put(k, v any)          { j.Record(k.(string), v.(float64)) }
func (j pointStore) get(k any) (any, bool) { return j.Lookup(k.(string)) }

type cellStore struct{ *tables.Checkpoint }

func (c cellStore) put(k, v any)          { c.Record(k.([2]int)[0], k.([2]int)[1], v.(float64)) }
func (c cellStore) get(k any) (any, bool) { return c.Lookup(k.([2]int)[0], k.([2]int)[1]) }

// rec is one record in a user's own key and value types.
type rec struct{ k, v any }

type user struct {
	name   string
	site   string // fault-injection site of its appends
	header string // first line of a fresh journal, "" for none
	open   func(path string) (store, error)
	key    func(i int) any // the i-th test key
	val    func(i int) any // the i-th test value
	line   func(r rec) string
	bad    []string // complete lines the loader must refuse
	skip   []any    // values the writer never journals
	// keyOf reads the key a complete line journals, for the fuzz oracle.
	keyOf func(line []byte) any

	fixture       string // parent-written journal under testdata/
	fixtureRecs   []rec  // the Puts that wrote it, in order
	fixtureLoaded int
}

// sig is the checkpoint signature of every test journal, the fixture's
// included.
const sig = "fixture-signature"

// rates are awkward floats that only an exact encoding round-trips.
var rates = []float64{1.0 / 3, 0.7224082934609726, math.Nextafter(1, 2), 2.5e-300, 1e300, 5e-324}

var degenerate = []any{math.NaN(), 0.0, -0.5, math.Inf(1), math.Inf(-1)}

const point = "dse-point/v1:loops=scalar:scale=0:machdef="

var users = []user{
	{
		name: "cache", site: "write.cache",
		open: func(path string) (store, error) {
			c, err := serve.OpenCache(path)
			return cacheStore{c}, err
		},
		key: func(i int) any { return fmt.Sprintf("k%d", i) },
		// Formatting-sensitive bytes: a loader that reserialized results
		// (reordering keys, reformatting floats) would not round-trip them.
		val: func(i int) any {
			return fmt.Sprintf(`{"machine":"CRAY-like","harmonic_mean":0.3333333333333333,"i":%d}`, i)
		},
		line: func(r rec) string { return fmt.Sprintf(`{"key":%q,"result":%s}`, r.k, r.v) },
		bad:  []string{`not json`, `[]`, `{"key":"k"}`, `{"result":{}}`, `{"key":"","result":{}}`},
		keyOf: func(line []byte) any {
			var l struct{ Key string }
			json.Unmarshal(line, &l)
			return l.Key
		},
		fixture: "cache.jsonl", fixtureLoaded: 3,
		fixtureRecs: []rec{
			{"k1", `{"machine":"CRAY-like","harmonic_mean":0.3333333333333333}`},
			{"k2", `{"machine":"Simple","rates":[0.5,1e-300],"note":"tab\tand é"}`},
			{"k3", `{ "spaced": [1, 2] , "html": "<b>&</b>" }`},
			{"k1", `{"machine":"duplicate"}`},
		},
	},
	{
		name: "dsejournal", site: "write.dsejournal",
		open: func(path string) (store, error) {
			j, err := dse.OpenJournal(path)
			return pointStore{j}, err
		},
		key:  func(i int) any { return fmt.Sprintf("%s%04d", point, i) },
		val:  func(i int) any { return rates[i%len(rates)] },
		line: func(r rec) string { return fmt.Sprintf(`{"key":%q,"rate":%q}`, r.k, journal.FormatRate(r.v.(float64))) },
		bad: []string{
			`not json`, `{"key":"k"}`, `{"key":"","rate":"0x1p-01"}`, `{"key":"k","rate":"half"}`,
			`{"key":"k","rate":"NaN"}`, `{"key":"k","rate":"0"}`, `{"key":"k","rate":"-0x1p-01"}`,
			`{"key":"k","rate":"+Inf"}`, `{"key":"k","rate":"-Inf"}`, `{"key":"k","rate":"1e400"}`,
		},
		skip: degenerate,
		keyOf: func(line []byte) any {
			var l struct{ Key string }
			json.Unmarshal(line, &l)
			return l.Key
		},
		fixture: "dsejournal.jsonl", fixtureLoaded: 4,
		fixtureRecs: []rec{
			{point + "aaaa", 1.0 / 3},
			{point + "bbbb", 0.7224082934609726},
			{point + "cccc", math.NaN()},
			{point + "aaaa", 0.9},
			{point + "dddd", math.Nextafter(1, 2)},
			{point + "eeee", 0.0},
			{point + "ffff", 2.5e-300},
		},
	},
	{
		name: "checkpoint", site: "write.checkpoint", header: `{"signature":"` + sig + `"}`,
		open: func(path string) (store, error) {
			c, err := tables.OpenCheckpoint(path, sig)
			return cellStore{c}, err
		},
		key: func(i int) any { return [2]int{1 + i%8, i} },
		val: func(i int) any { return rates[i%len(rates)] },
		line: func(r rec) string {
			k := r.k.([2]int)
			return fmt.Sprintf(`{"table":%d,"cell":%d,"rate":%q}`, k[0], k[1], journal.FormatRate(r.v.(float64)))
		},
		bad: []string{
			`not json`, `{"table":1,"cell":0}`, `{"table":"1","cell":0,"rate":"0x1p-01"}`,
			`{"table":1,"cell":0,"rate":"NaN"}`, `{"table":1,"cell":0,"rate":"0"}`,
			`{"table":1,"cell":0,"rate":"-0x1p-01"}`, `{"table":1,"cell":0,"rate":"+Inf"}`,
		},
		skip: degenerate,
		keyOf: func(line []byte) any {
			var l struct{ Table, Cell int }
			json.Unmarshal(line, &l)
			return [2]int{l.Table, l.Cell}
		},
		fixture: "checkpoint.jsonl", fixtureLoaded: 4,
		fixtureRecs: []rec{
			{[2]int{1, 0}, 1.0 / 3},
			{[2]int{1, 1}, math.NaN()},
			{[2]int{1, 0}, 0.9},
			{[2]int{3, 17}, math.Nextafter(1, 2)},
			{[2]int{1, 1}, 0.0},
			{[2]int{0, 2}, 2.5e-300},
			{[2]int{8, 39}, 1.25},
		},
	},
}

// r is the i-th test record of u.
func (u user) r(i int) rec { return rec{u.key(i), u.val(i)} }

// file renders a journal: u's header (if any), then each part — a rec
// becomes its line, a string is copied raw.
func (u user) file(parts ...any) string {
	var b strings.Builder
	if u.header != "" {
		b.WriteString(u.header + "\n")
	}
	for _, p := range parts {
		switch p := p.(type) {
		case rec:
			b.WriteString(u.line(p) + "\n")
		case string:
			b.WriteString(p)
		}
	}
	return b.String()
}

// headerLines is how many lines u's header shifts record line numbers.
func (u user) headerLines() int {
	if u.header == "" {
		return 0
	}
	return 1
}

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t *testing.T, u user, path string) store {
	t.Helper()
	s, err := u.open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return s
}

func mustClose(t *testing.T, s store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// wantGet fails unless s holds exactly r.
func wantGet(t *testing.T, s store, r rec) {
	t.Helper()
	if got, ok := s.get(r.k); !ok || got != r.v {
		t.Errorf("get(%v) = %v, %v; want exactly %v", r.k, got, ok, r.v)
	}
}

// TestOpen loads journal files: each case gives the file, then either
// what the open leaves (records, file bytes) or the line its error
// must name. A refused file must be left byte-identical.
func TestOpen(t *testing.T) {
	cases := []struct {
		name    string
		parts   func(u user, bad string) []any // the file after u's header; nil: no file
		perBad  bool                           // run once for each of u.bad
		want    []int                          // test records the open must hold
		kept    func(u user) []any             // the file after the open; nil: unchanged
		errLine int                            // the open fails naming this record line
	}{
		{
			name:  "fresh",
			parts: func(u user, _ string) []any { return nil },
			kept:  func(u user) []any { return nil },
		},
		{
			name:  "complete lines",
			parts: func(u user, _ string) []any { return []any{u.r(0), u.r(1), u.r(2)} },
			want:  []int{0, 1, 2},
		},
		{
			name:  "blank lines skipped",
			parts: func(u user, _ string) []any { return []any{"\n", u.r(0), "  \n", u.r(1), "\t\r\n"} },
			want:  []int{0, 1},
		},
		{
			name:  "torn tail dropped",
			parts: func(u user, _ string) []any { return []any{u.r(0), u.r(1), u.line(u.r(2))[:12]} },
			want:  []int{0, 1},
			kept:  func(u user) []any { return []any{u.r(0), u.r(1)} },
		},
		{
			name:  "torn whitespace dropped",
			parts: func(u user, _ string) []any { return []any{u.r(0), "  "} },
			want:  []int{0},
			kept:  func(u user) []any { return []any{u.r(0)} },
		},
		{
			name:  "duplicate key first wins",
			parts: func(u user, _ string) []any { return []any{u.r(0), rec{u.key(0), u.val(1)}} },
			want:  []int{0},
		},
		{
			name:    "corrupt middle",
			parts:   func(u user, _ string) []any { return []any{u.r(0), "not json at all\n", u.r(1)} },
			errLine: 2,
		},
		{
			name:    "bad record",
			parts:   func(u user, bad string) []any { return []any{u.r(0), u.r(1), bad + "\n", u.r(2)} },
			perBad:  true,
			errLine: 3,
		},
	}
	for _, tc := range cases {
		for _, u := range users {
			t.Run(tc.name+"/"+u.name, func(t *testing.T) {
				variants := []string{""}
				if tc.perBad {
					variants = u.bad
				}
				for _, bad := range variants {
					parts := tc.parts(u, bad)
					path := filepath.Join(t.TempDir(), "journal.jsonl")
					in := ""
					if parts != nil {
						in = u.file(parts...)
						write(t, path, in)
					}
					s, err := u.open(path)
					if tc.errLine > 0 {
						want := fmt.Sprintf("line %d", tc.errLine+u.headerLines())
						if err == nil {
							s.Close()
							t.Fatalf("%q: open succeeded, want an error naming %s", bad, want)
						}
						if !strings.Contains(err.Error(), want) {
							t.Errorf("%q: error %q does not name %s", bad, err, want)
						}
						if got := read(t, path); got != in {
							t.Errorf("refused journal modified:\nbefore %q\nafter  %q", in, got)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					if s.Loaded() != len(tc.want) {
						t.Errorf("loaded %d, want %d", s.Loaded(), len(tc.want))
					}
					for _, i := range tc.want {
						wantGet(t, s, u.r(i))
					}
					mustClose(t, s)
					want := in
					if tc.kept != nil {
						want = u.file(tc.kept(u)...)
					}
					if got := read(t, path); got != want {
						t.Errorf("file after open:\n got %q\nwant %q", got, want)
					}
				}
			})
		}
	}
}

// TestStore drives each user's journal through its lifecycle: appends,
// reopens, lockout, injected write failures and memory-only mode.
func TestStore(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, u user, path string)
	}{
		{"round trip", func(t *testing.T, u user, path string) {
			s := mustOpen(t, u, path)
			var parts []any
			for i := 0; i < len(rates); i++ {
				s.put(u.key(i), u.val(i))
				parts = append(parts, u.r(i))
			}
			if s.Saved() != len(rates) {
				t.Errorf("saved %d, want %d", s.Saved(), len(rates))
			}
			mustClose(t, s)
			if got, want := read(t, path), u.file(parts...); got != want {
				t.Errorf("journal bytes:\n got %q\nwant %q", got, want)
			}
			s = mustOpen(t, u, path)
			defer s.Close()
			if s.Loaded() != len(rates) {
				t.Errorf("loaded %d, want %d", s.Loaded(), len(rates))
			}
			for i := 0; i < len(rates); i++ {
				wantGet(t, s, u.r(i))
			}
			if _, ok := s.get(u.key(99)); ok {
				t.Error("phantom key found")
			}
		}},
		{"locked out", func(t *testing.T, u user, path string) {
			s := mustOpen(t, u, path)
			s.put(u.key(0), u.val(0))
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			// The holder is mid-append: the exact state a second
			// opener's torn-tail repair would truncate.
			appendRaw(t, path, u.line(u.r(1))[:12])
			before := read(t, path)
			_, err := u.open(path)
			var le *atomicio.LockError
			if !errors.As(err, &le) {
				t.Fatalf("second open error = %v (%T), want *atomicio.LockError", err, err)
			}
			if le.Path != path {
				t.Errorf("lock error names %q, want %q", le.Path, path)
			}
			if after := read(t, path); after != before {
				t.Errorf("locked-out opener modified the journal:\nbefore %q\nafter  %q", before, after)
			}
			mustClose(t, s)
			s = mustOpen(t, u, path)
			defer s.Close()
			if s.Loaded() != 1 {
				t.Errorf("reopen after close loaded %d, want 1", s.Loaded())
			}
		}},
		{"append after torn tail", func(t *testing.T, u user, path string) {
			s := mustOpen(t, u, path)
			s.put(u.key(0), u.val(0))
			s.put(u.key(1), u.val(1))
			mustClose(t, s)
			appendRaw(t, path, u.line(u.r(2))[:12]) // a kill -9 mid-append
			s = mustOpen(t, u, path)
			if s.Loaded() != 2 {
				t.Errorf("loaded %d, want 2 (torn line dropped)", s.Loaded())
			}
			s.put(u.key(3), u.val(3))
			mustClose(t, s)
			s = mustOpen(t, u, path)
			defer s.Close()
			if s.Loaded() != 3 {
				t.Errorf("loaded %d after append over the torn tail, want 3", s.Loaded())
			}
			wantGet(t, s, u.r(3))
		}},
		{"injected write failure", func(t *testing.T, u user, path string) {
			// Open before arming: the checkpoint stamps its header at
			// open through the same site, and the target is Put.
			s := mustOpen(t, u, path)
			plan, err := faultinject.ParsePlan(u.site+":werr", 1)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Activate(faultinject.New(plan))
			defer faultinject.Deactivate()
			s.put(u.key(0), u.val(0))
			wantGet(t, s, u.r(0)) // availability survives the durability failure
			var fe *faultinject.Error
			if err := s.Close(); !errors.As(err, &fe) {
				t.Fatalf("Close error = %v, want the injected fault", err)
			}
			faultinject.Deactivate()
			s = mustOpen(t, u, path)
			defer s.Close()
			if s.Loaded() != 0 {
				t.Errorf("loaded %d, want 0 (the failed append must not half-land)", s.Loaded())
			}
		}},
		{"concurrent puts", func(t *testing.T, u user, path string) {
			// Workers Put and handlers Get from many goroutines at once.
			const n = 16
			s := mustOpen(t, u, path)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						s.put(u.key(i), u.val(i))
						s.get(u.key(i))
					}
				}()
			}
			wg.Wait()
			if s.Saved() != n {
				t.Errorf("saved %d, want %d", s.Saved(), n)
			}
			mustClose(t, s)
			s = mustOpen(t, u, path)
			defer s.Close()
			if s.Loaded() != n {
				t.Errorf("loaded %d, want %d", s.Loaded(), n)
			}
			for i := 0; i < n; i++ {
				wantGet(t, s, u.r(i))
			}
		}},
		{"memory only", func(t *testing.T, u user, _ string) {
			s := mustOpen(t, u, "")
			s.put(u.key(0), u.val(0))
			wantGet(t, s, u.r(0))
			if s.Saved() != 0 || s.Loaded() != 0 {
				t.Errorf("memory-only store claims saved %d, loaded %d", s.Saved(), s.Loaded())
			}
			mustClose(t, s)
		}},
		{"duplicate and degenerate puts", func(t *testing.T, u user, path string) {
			s := mustOpen(t, u, path)
			s.put(u.key(0), u.val(0))
			s.put(u.key(0), u.val(1)) // first write wins
			for _, v := range u.skip {
				s.put(u.key(1), v) // failed or degenerate: never kept
			}
			wantGet(t, s, u.r(0))
			if v, ok := s.get(u.key(1)); ok {
				t.Errorf("degenerate value %v kept", v)
			}
			if s.Saved() != 1 {
				t.Errorf("saved %d, want 1", s.Saved())
			}
			mustClose(t, s)
			s = mustOpen(t, u, path)
			defer s.Close()
			if s.Loaded() != 1 {
				t.Errorf("loaded %d, want 1", s.Loaded())
			}
			wantGet(t, s, u.r(0))
		}},
	}
	for _, tc := range cases {
		for _, u := range users {
			t.Run(tc.name+"/"+u.name, func(t *testing.T) {
				tc.run(t, u, filepath.Join(t.TempDir(), "journal.jsonl"))
			})
		}
	}
}

// TestFixtures pins the on-disk format against journals written by the
// loaders this package replaced: each loads with the same count and is
// left byte-unchanged, and replaying the Puts that wrote it (duplicates
// and skipped rates included) reproduces it byte for byte.
func TestFixtures(t *testing.T) {
	for _, u := range users {
		t.Run(u.name, func(t *testing.T) {
			want := read(t, filepath.Join("testdata", u.fixture))
			path := filepath.Join(t.TempDir(), u.fixture)
			write(t, path, want)
			s := mustOpen(t, u, path)
			if s.Loaded() != u.fixtureLoaded {
				t.Errorf("loaded %d, want %d", s.Loaded(), u.fixtureLoaded)
			}
			mustClose(t, s)
			if got := read(t, path); got != want {
				t.Errorf("open and close changed the fixture:\n got %q\nwant %q", got, want)
			}

			path = filepath.Join(t.TempDir(), "replay.jsonl")
			s = mustOpen(t, u, path)
			for _, r := range u.fixtureRecs {
				s.put(r.k, r.v)
			}
			mustClose(t, s)
			if got := read(t, path); got != want {
				t.Errorf("replay differs from the fixture:\n got %q\nwant %q", got, want)
			}
		})
	}
}

func TestParseRate(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		err  string // error contains this; "" = parses to want
	}{
		{"0x1.8p+01", 3, ""},
		{"0.5", 0.5, ""},
		{"0x0.0000000000001p-1022", 5e-324, ""},
		{"NaN", 0, "not a finite positive rate"},
		{"0", 0, "not a finite positive rate"},
		{"-0", 0, "not a finite positive rate"},
		{"-0x1p-01", 0, "not a finite positive rate"},
		{"+Inf", 0, "not a finite positive rate"},
		{"-Inf", 0, "not a finite positive rate"},
		{"1e400", 0, "out of range"},
		{"", 0, "invalid syntax"},
		{"half", 0, "invalid syntax"},
	}
	for _, tc := range cases {
		got, err := journal.ParseRate(tc.in)
		switch {
		case tc.err == "" && (err != nil || got != tc.want):
			t.Errorf("ParseRate(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("ParseRate(%q) error = %v, want one containing %q", tc.in, err, tc.err)
		}
	}
	for _, r := range rates {
		if got, err := journal.ParseRate(journal.FormatRate(r)); err != nil || got != r {
			t.Errorf("FormatRate(%v) = %q parses back as %v, %v", r, journal.FormatRate(r), got, err)
		}
	}
}

// FuzzOpen feeds arbitrary file bytes to every user's loader. An open
// either fails and leaves the file untouched, or loads exactly the
// complete lines — every byte up to the last newline — truncates the
// file to them, and reopens to the same entries.
func FuzzOpen(f *testing.F) {
	for _, u := range users {
		f.Add(u.file(u.r(0), u.r(1)))
		f.Add(u.file(u.r(0), "\n", rec{u.key(0), u.val(1)}, u.line(u.r(2))[:9]))
		for _, bad := range u.bad {
			f.Add(u.file(u.r(0), bad+"\n"))
		}
		if b, err := os.ReadFile(filepath.Join("testdata", u.fixture)); err == nil {
			f.Add(string(b))
		}
	}
	f.Add("")
	f.Add("\n\n")
	f.Fuzz(func(t *testing.T, data string) {
		for _, u := range users {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			write(t, path, data)
			s, err := u.open(path)
			if err != nil {
				if got := read(t, path); got != data {
					t.Fatalf("%s: refused journal modified: %q -> %q", u.name, data, got)
				}
				continue
			}
			prefix := data[:strings.LastIndexByte(data, '\n')+1]
			keys := map[any]bool{}
			headed := u.header == ""
			for _, line := range strings.SplitAfter(prefix, "\n") {
				line := bytes.TrimSpace([]byte(line))
				switch {
				case len(line) == 0:
				case !headed:
					headed = true
				default:
					keys[u.keyOf(line)] = true
				}
			}
			if s.Loaded() != len(keys) {
				t.Errorf("%s: loaded %d of %d distinct complete records", u.name, s.Loaded(), len(keys))
			}
			mustClose(t, s)
			want := prefix
			if prefix == "" {
				want = u.file()
			}
			if got := read(t, path); got != want {
				t.Fatalf("%s: file after open %q, want %q", u.name, got, want)
			}
			again := mustOpen(t, u, path)
			if again.Loaded() != len(keys) {
				t.Errorf("%s: reopen loaded %d, want %d", u.name, again.Loaded(), len(keys))
			}
			for k := range keys {
				v1, ok1 := s.get(k)
				v2, ok2 := again.get(k)
				if !ok1 || !ok2 || v1 != v2 {
					t.Errorf("%s: key %v: %v,%v then %v,%v", u.name, k, v1, ok1, v2, ok2)
				}
			}
			mustClose(t, again)
		}
	})
}

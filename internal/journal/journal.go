// Package journal is the one append-only JSONL store behind the
// result cache (internal/serve), the sweep point journal (internal/dse)
// and the tables checkpoint (internal/tables); each user supplies only
// a line codec. Appends go one line at a time through a fault-injection
// site, so a process killed mid-append loses at most that line: the
// next opener drops the torn tail and truncates it away. A complete
// line that does not decode is an error naming the line, because
// resuming from a journal that cannot be trusted would silently
// corrupt results. An exclusive advisory lock (atomicio.Lock) makes the
// single-writer assumption explicit.
package journal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"mfup/internal/atomicio"
	"mfup/internal/faultinject"
)

// Format describes one kind of journal: its name, fault site,
// optional header and line codec.
type Format[K comparable, V any] struct {
	Name string // error prefix, e.g. "cache"
	Site string // fault-injection site every append goes through

	// Header, when non-nil, is a first line binding the records to the
	// context that wrote them: a fresh journal is stamped with it, and
	// CheckHeader vets an existing journal's first record, returning
	// why the journal must be refused. CheckHeader gets nil for a file
	// of blank lines, which it must refuse.
	Header      []byte
	CheckHeader func(rec []byte) error

	// Encode returns a record's line without its newline. Decode gets a
	// complete line with surrounding whitespace trimmed; its error is
	// reported with the line's number.
	Encode func(K, V) ([]byte, error)
	Decode func(line []byte) (K, V, error)
}

// Store is a keyed record set held in memory and journaled to an
// append-only JSONL file. The first write of a key wins, on disk and
// in memory alike. It is safe for concurrent use.
type Store[K comparable, V any] struct {
	path   string
	format Format[K, V]

	mu      sync.Mutex
	f       *os.File // nil: memory-only, or closed
	entries map[K]V
	loaded  int   // records read from an existing journal
	saved   int   // records appended by this process
	err     error // first write failure, sticky
}

// Open opens (creating if absent) the journal at path, locks it, and
// loads every complete line. An empty path yields a memory-only store:
// warm within the process, cold across restarts.
func Open[K comparable, V any](path string, format Format[K, V]) (*Store[K, V], error) {
	s := &Store[K, V]{path: path, format: format, entries: make(map[K]V)}
	if path == "" {
		return s, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", format.Name, err)
	}
	// Lock before reading: a torn-tail repair on a journal another
	// process is appending to would truncate its line mid-write.
	if err := atomicio.Lock(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", format.Name, err)
	}
	if err := s.load(f); err != nil {
		f.Close()
		return nil, err
	}
	s.f = f
	s.loaded = len(s.entries)
	return s, nil
}

// load reads every complete line of f, truncates a torn tail away and
// leaves f positioned for appends, stamping the header on a fresh
// journal. A journal it refuses is left untouched.
func (s *Store[K, V]) load(f *os.File) error {
	headed := s.format.Header == nil // no header expected, or it has been checked
	r := bufio.NewReader(f)
	var accepted int64 // offset past the last complete, valid line
	for lineno := 1; ; lineno++ {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			break // no newline: an empty tail or a torn append; drop it either way
		}
		if err != nil {
			return s.wrap(err)
		}
		rec := bytes.TrimSpace(line)
		switch {
		case len(rec) == 0:
		case !headed:
			if err := s.format.CheckHeader(rec); err != nil {
				return s.wrap(err)
			}
			headed = true
		default:
			k, v, err := s.format.Decode(rec)
			if err != nil {
				return fmt.Errorf("%s %s line %d: %v", s.format.Name, s.path, lineno, err)
			}
			if _, dup := s.entries[k]; !dup {
				s.entries[k] = v
			}
		}
		accepted += int64(len(line))
	}
	if !headed && accepted != 0 {
		// Complete but blank lines and no header: not a journal this
		// code wrote; refuse rather than stamp a header after them.
		return s.wrap(s.format.CheckHeader(nil))
	}
	if err := f.Truncate(accepted); err != nil {
		return s.wrap(err)
	}
	if _, err := f.Seek(accepted, io.SeekStart); err != nil {
		return s.wrap(err)
	}
	if headed {
		return nil
	}
	return s.writeLine(f, s.format.Header)
}

// Get returns the record stored under k.
func (s *Store[K, V]) Get(k K) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.entries[k]
	return v, ok
}

// Put stores v under k unless k is already present, and appends it to
// the journal. A write failure (injected or real) is sticky and
// reported by Err, Flush and Close — but the record still lands in
// memory, so durability degrades before availability does.
func (s *Store[K, V]) Put(k K, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[k]; dup {
		return
	}
	s.entries[k] = v
	if s.f == nil || s.err != nil {
		return
	}
	line, err := s.format.Encode(k, v)
	if err != nil {
		s.err = err
		return
	}
	if err := s.writeLine(s.f, line); err != nil {
		s.err = err
		return
	}
	s.saved++
}

// writeLine appends one line through the store's fault-injection site.
func (s *Store[K, V]) writeLine(f *os.File, line []byte) error {
	w := faultinject.WrapWriter(s.format.Site, f)
	if _, err := w.Write(append(line, '\n')); err != nil {
		return s.wrap(err)
	}
	return nil
}

// wrap prefixes err with the store's name and path.
func (s *Store[K, V]) wrap(err error) error {
	return fmt.Errorf("%s %s: %w", s.format.Name, s.path, err)
}

// Loaded reports how many records an existing journal contributed.
func (s *Store[K, V]) Loaded() int { return s.loaded }

// Saved reports how many records this process appended.
func (s *Store[K, V]) Saved() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saved
}

// Err returns the sticky write failure, if any, without closing.
func (s *Store[K, V]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flush makes the journal durable without closing it.
func (s *Store[K, V]) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		s.sync()
	}
	return s.err
}

// Close syncs and closes the journal, returning the first write
// failure of its lifetime. The store stays readable, memory-only.
func (s *Store[K, V]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return s.err
	}
	s.sync()
	if err := s.f.Close(); err != nil && s.err == nil {
		s.err = err
	}
	s.f = nil
	return s.err
}

// sync fsyncs the journal, keeping the first failure.
func (s *Store[K, V]) sync() {
	if err := s.f.Sync(); err != nil && s.err == nil {
		s.err = s.wrap(err)
	}
}

// ValidRate reports whether r is a rate worth keeping: finite and
// positive. Failed (NaN) and degenerate rates are never journaled, so
// a resume re-attempts them instead of replaying them.
func ValidRate(r float64) bool { return r > 0 && r <= math.MaxFloat64 }

// FormatRate renders r as a Go hex float literal ("0x1.9c7ep-01"),
// which parses back bit for bit: a resumed table or sweep must render
// the very same bytes, so "close to" is not close enough.
func FormatRate(r float64) string { return strconv.FormatFloat(r, 'x', -1, 64) }

// ParseRate parses a rate literal, accepting only the finite positive
// rates ValidRate admits: a line holding anything else was not written
// by FormatRate for a kept rate.
func ParseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if !ValidRate(r) {
		return 0, errors.New("not a finite positive rate")
	}
	return r, nil
}

package serve

import (
	"errors"
	"path/filepath"
	"testing"

	"mfup/internal/atomicio"
)

// The journal-level cache cases (round trip, torn tail, corrupt
// middle, injected write failure, memory-only) live in the shared
// internal/journal table; this pins the lockout at the serve surface.

func TestCacheSecondOpenerLockedOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = OpenCache(path)
	var le *atomicio.LockError
	if !errors.As(err, &le) {
		t.Fatalf("second open error = %v (%T), want *atomicio.LockError", err, err)
	}
}

package tables

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSig is the journal signature the unit tests open with; any
// non-empty string works, since OpenCheckpoint only compares it
// against the journal's header.
const testSig = "test-signature"

// A journal stamped under one signature must refuse to resume under
// another: its (table, cell) keys describe a different grid, and
// replaying them would silently put rates in the wrong cells.
func TestCheckpointSignatureMismatchFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	c, err := OpenCheckpoint(path, testSig)
	if err != nil {
		t.Fatal(err)
	}
	c.Record(1, 0, 0.5)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = OpenCheckpoint(path, "another-signature")
	if err == nil {
		t.Fatal("journal with a different signature resumed")
	}
	if !strings.Contains(err.Error(), "signature") {
		t.Errorf("error %v does not explain the signature mismatch", err)
	}
	// The matching signature still resumes.
	c2, err := OpenCheckpoint(path, testSig)
	if err != nil {
		t.Fatalf("matching signature refused: %v", err)
	}
	defer c2.Close()
	if v, ok := c2.Lookup(1, 0); !ok || v != 0.5 {
		t.Errorf("Lookup(1,0) = %v,%v, want 0.5", v, ok)
	}
}

// A journal that predates the signature header — its first line is a
// cell record — must be refused, not silently adopted, and so must any
// other first line that is not a signature. The refused file is left
// as it was.
func TestCheckpointUnsignedJournalRefused(t *testing.T) {
	for _, content := range []string{
		"{\"table\":1,\"cell\":0,\"rate\":\"0x1p-01\"}\n",
		"not json\n{\"signature\":\"" + testSig + "\"}\n",
		"{\"signature\":\"\"}\n",
		"\n  \n{\"signa", // blank lines, then a torn header
	} {
		path := filepath.Join(t.TempDir(), "ckpt.jsonl")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, testSig); err == nil {
			t.Errorf("%q: unsigned journal accepted", content)
		} else if !strings.Contains(err.Error(), "no signature header") {
			t.Errorf("%q: error %v does not explain the missing header", content, err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Errorf("%q: refused journal modified to %q (%v)", content, got, err)
		}
	}
}

// An empty signature is a caller bug, not a wildcard.
func TestCheckpointEmptySignatureRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if _, err := OpenCheckpoint(path, ""); err == nil {
		t.Fatal("empty signature accepted")
	}
}

// The grid signature must move when the loop scale does — that is the
// exact mismatched-resume scenario the header exists to catch: a
// journal written at one -scale replayed into a run at another.
func TestJournalSignatureTracksScale(t *testing.T) {
	defer SetScale(Scale())
	SetScale(0)
	base := JournalSignature()
	if base != JournalSignature() {
		t.Fatal("signature not deterministic")
	}
	SetScale(100000)
	scaled := JournalSignature()
	if scaled == base {
		t.Fatal("signature unchanged by -scale; a journal from another scale would resume")
	}

	// End to end: a journal stamped at the default scale must fail
	// closed when reopened after the scale changes.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	SetScale(0)
	c, err := OpenCheckpoint(path, JournalSignature())
	if err != nil {
		t.Fatal(err)
	}
	c.Record(1, 0, 0.5)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	SetScale(100000)
	if _, err := OpenCheckpoint(path, JournalSignature()); err == nil {
		t.Fatal("journal written at scale 0 resumed at scale 100000")
	}
}

func TestCheckpointServesCachedCells(t *testing.T) {
	// A batch with a fully-journaled grid must not run any simulation;
	// we verify by journaling sentinel rates and checking they surface
	// verbatim in the table.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	c, err := OpenCheckpoint(path, testSig)
	if err != nil {
		t.Fatal(err)
	}
	ref := Table1() // healthy baseline, no checkpoint
	cells := 0
	for _, row := range ref.Rows {
		cells += len(row.Rates)
	}
	for i := 0; i < cells; i++ {
		c.Record(1, i, float64(i)+0.5) // sentinels, not real rates
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c, err = OpenCheckpoint(path, testSig)
	if err != nil {
		t.Fatal(err)
	}
	SetCheckpoint(c)
	defer SetCheckpoint(nil)
	got := Table1()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Saved() != 0 {
		t.Errorf("fully cached run appended %d cells", c.Saved())
	}
	i := 0
	for _, row := range got.Rows {
		for _, v := range row.Rates {
			if want := float64(i) + 0.5; v != want {
				t.Fatalf("cell %d = %v, want journaled sentinel %v", i, v, want)
			}
			i++
		}
	}
}

func TestCheckpointPartialResumeMatchesBaseline(t *testing.T) {
	// Journal half of Table 1's cells from a real run, then regenerate
	// with the journal installed: the rendered table must be
	// byte-identical to the uncheckpointed baseline.
	ref := Table1()
	if len(ref.Errors) != 0 {
		t.Fatalf("baseline has errors: %v", ref.Errors)
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	c, err := OpenCheckpoint(path, testSig)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, row := range ref.Rows {
		for _, v := range row.Rates {
			if i%2 == 0 {
				c.Record(1, i, v)
			}
			i++
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCheckpoint(path, testSig)
	if err != nil {
		t.Fatal(err)
	}
	SetCheckpoint(c2)
	defer SetCheckpoint(nil)
	got := Table1()
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Render() != ref.Render() {
		t.Errorf("resumed table differs from baseline:\n--- want\n%s\n--- got\n%s", ref.Render(), got.Render())
	}
	if c2.Saved() != i/2 {
		t.Errorf("resume appended %d cells, want %d", c2.Saved(), i/2)
	}
}

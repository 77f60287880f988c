package tables

import (
	"encoding/json"
	"errors"
	"fmt"

	"mfup/internal/journal"
)

// Checkpoint is a JSONL journal of completed table cells, the resume
// mechanism of interrupted sweeps: every healthy cell's harmonic-mean
// rate is appended as one line as soon as its batch resolves, and a
// later run against the same journal skips those cells entirely,
// producing byte-identical tables without recomputation.
//
// The file is an internal/journal store (site "write.checkpoint")
// with one line per cell, its rate a journal.FormatRate hex float:
//
//	{"table":3,"cell":17,"rate":"0x1.9c7ep-01"}
type Checkpoint struct {
	*journal.Store[checkpointKey, float64]
}

type checkpointKey struct {
	Table int `json:"table"`
	Cell  int `json:"cell"`
}

// checkpointLine is the JSONL wire form.
type checkpointLine struct {
	checkpointKey
	Rate string `json:"rate"`
}

// checkpointHeader is the journal's first line: the signature of the
// grid the rates were computed under.
type checkpointHeader struct {
	Signature string `json:"signature"`
}

// OpenCheckpoint opens (creating if absent) the journal at path and
// loads every complete line already in it. The journal's first line
// is a signature header binding the rates to the grid that produced
// them (see JournalSignature): a fresh journal is stamped with
// signature, and an existing one must carry the very same stamp or
// the open fails closed. Cells are keyed (table, cell index), so a
// journal written at a different loop scale — or against a different
// set of machine definitions — holds rates whose keys alias cells that
// now mean something else; replaying them would corrupt the tables
// silently, which is worse than recomputing. Journals without the
// header are refused for the same reason.
func OpenCheckpoint(path, signature string) (*Checkpoint, error) {
	if signature == "" {
		return nil, fmt.Errorf("checkpoint: empty journal signature (use JournalSignature)")
	}
	hdr, err := json.Marshal(checkpointHeader{Signature: signature})
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	s, err := journal.Open(path, journal.Format[checkpointKey, float64]{
		Name: "checkpoint", Site: "write.checkpoint",
		Header: hdr,
		CheckHeader: func(rec []byte) error {
			// A legacy cell line (empty Signature) or a first line that
			// is not JSON at all is refused as unsigned.
			var got checkpointHeader
			if json.Unmarshal(rec, &got) != nil || got.Signature == "" {
				return errors.New("journal has no signature header (written by an incompatible run?); its cell keys cannot be trusted — delete it or start a fresh journal")
			}
			if got.Signature != signature {
				return fmt.Errorf("journal signature %.12s.. does not match this run's %.12s.. (different scale or machine grid); resuming would replay rates into the wrong cells — delete it or rerun with the journal's settings", got.Signature, signature)
			}
			return nil
		},
		Encode: func(k checkpointKey, rate float64) ([]byte, error) {
			return json.Marshal(checkpointLine{k, journal.FormatRate(rate)})
		},
		Decode: func(line []byte) (checkpointKey, float64, error) {
			var cl checkpointLine
			if err := json.Unmarshal(line, &cl); err != nil {
				return checkpointKey{}, 0, err
			}
			rate, err := journal.ParseRate(cl.Rate)
			if err != nil {
				return checkpointKey{}, 0, fmt.Errorf("rate %q: %v", cl.Rate, err)
			}
			return cl.checkpointKey, rate, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &Checkpoint{s}, nil
}

// Lookup returns the journaled rate of (table, cell), if present.
func (c *Checkpoint) Lookup(table, cell int) (float64, bool) {
	return c.Get(checkpointKey{table, cell})
}

// Record journals one completed cell. Failed and degenerate rates are
// ignored (those cells must be re-attempted on resume, not replayed).
// Write failures are sticky and reported by Close.
func (c *Checkpoint) Record(table, cell int, rate float64) {
	if journal.ValidRate(rate) {
		c.Put(checkpointKey{table, cell}, rate)
	}
}

package dse

import (
	"encoding/json"
	"fmt"

	"mfup/internal/journal"
)

// Journal is the sweep's resume mechanism: a JSONL file with one line
// per simulated point, keyed by the point's full content key — the
// machine definition's content address plus the workload (loop class
// and scale). Unlike the table checkpoint, which keys cells by grid
// position and therefore needs a signature header, a mismatched
// resume here misses by construction: change anything that affects a
// point's rate and its key changes with it, so the stale line is
// simply never looked up.
//
// The file is an internal/journal store (site "write.dsejournal") with
// one line per point, its rate a journal.FormatRate hex float:
//
//	{"key":"dse-point/...","rate":"0x1.9c7ep-01"}
type Journal struct {
	*journal.Store[string, float64]
}

// journalLine is the JSONL wire form.
type journalLine struct {
	Key  string `json:"key"`
	Rate string `json:"rate"`
}

// OpenJournal opens (creating if absent) the sweep journal at path,
// loading every complete line.
func OpenJournal(path string) (*Journal, error) {
	s, err := journal.Open(path, journal.Format[string, float64]{
		Name: "dse journal", Site: "write.dsejournal",
		Encode: func(key string, rate float64) ([]byte, error) {
			return json.Marshal(journalLine{Key: key, Rate: journal.FormatRate(rate)})
		},
		Decode: func(line []byte) (string, float64, error) {
			var jl journalLine
			if err := json.Unmarshal(line, &jl); err != nil {
				return "", 0, err
			}
			rate, err := journal.ParseRate(jl.Rate)
			if err != nil || jl.Key == "" {
				return "", 0, fmt.Errorf("bad record %s", line)
			}
			return jl.Key, rate, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &Journal{s}, nil
}

// Lookup returns the journaled rate for a point key, if present.
func (j *Journal) Lookup(key string) (float64, bool) { return j.Get(key) }

// Record journals one simulated point. Failed and degenerate rates
// are skipped — those points must be re-attempted on resume. Write
// failures are sticky and reported by Close.
func (j *Journal) Record(key string, rate float64) {
	if journal.ValidRate(rate) {
		j.Put(key, rate)
	}
}

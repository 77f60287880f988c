package serve

import (
	"encoding/json"
	"errors"

	"mfup/internal/journal"
)

// Cache is the daemon's content-addressed result store: completed
// JobResult documents keyed by the SHA-256 of their canonical spec
// (see Key), journaled through internal/journal (site "write.cache")
// so a restarted daemon serves warm results byte-identically — what
// is journaled is the marshaled result bytes, not a re-encodable
// struct. One line per result:
//
//	{"key":"9f86d08...","result":{"machine":"CRAY-like",...}}
//
// Failed jobs are never cached: failures are environmental (deadlines,
// injected faults) or permanent (handled by the circuit breaker), and
// neither belongs in a durable store keyed only by the job's inputs.
type Cache = journal.Store[string, json.RawMessage]

// cacheLine is the JSONL wire form.
type cacheLine struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// OpenCache opens (creating if absent) the result journal at path and
// loads every complete line. An empty path yields a memory-only cache
// — warm within the process, cold across restarts.
func OpenCache(path string) (*Cache, error) {
	return journal.Open(path, journal.Format[string, json.RawMessage]{
		Name: "cache", Site: "write.cache",
		Encode: func(key string, result json.RawMessage) ([]byte, error) {
			return json.Marshal(cacheLine{Key: key, Result: result})
		},
		Decode: func(line []byte) (string, json.RawMessage, error) {
			var cl cacheLine
			if err := json.Unmarshal(line, &cl); err != nil {
				return "", nil, err
			}
			if cl.Key == "" || len(cl.Result) == 0 {
				return "", nil, errors.New("missing key or result")
			}
			return cl.Key, cl.Result, nil
		},
	})
}

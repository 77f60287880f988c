package atomicio

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// Advisory file locking for append-only journals.
//
// The JSONL journals of internal/journal assume a single writer: two
// processes interleaving appends would fuse records into lines neither
// writer produced, which the torn-tail recovery cannot repair (it only
// trusts the *final* line to be damaged). An exclusive flock on the
// journal file makes the assumption explicit: the second opener — say,
// a stray `mfutables -checkpoint` run against a journal a daemon is
// serving from — fails immediately with a structured *LockError
// instead of silently corrupting the file.
//
// The lock is advisory and lives on the open file description, so it
// conflicts between a daemon and a CLI, between two daemons, and even
// between two opens in one process; it vanishes automatically when
// the holder's descriptor closes (including on kill -9, which is
// exactly when a stale on-disk lockfile would have wedged a restart).

// LockError reports that another process (or another handle in this
// one) holds the advisory lock on a journal.
type LockError struct {
	Path string
}

// Error renders the one-line diagnostic the CLIs print.
func (e *LockError) Error() string {
	return fmt.Sprintf("atomicio: %s is locked by another process (close the other writer, or give this one its own journal)", e.Path)
}

// Lock takes a non-blocking exclusive advisory lock (flock) on f.
// If another holder has it, the returned error unwraps to a
// *LockError naming the path. The lock releases when f closes.
func Lock(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == nil {
		return nil
	}
	if errors.Is(err, syscall.EWOULDBLOCK) || errors.Is(err, syscall.EAGAIN) {
		return &LockError{Path: f.Name()}
	}
	return fmt.Errorf("atomicio: locking %s: %w", f.Name(), err)
}

// Unlock drops the advisory lock early. Closing the file releases it
// anyway; Unlock exists for handovers that outlive the descriptor.
func Unlock(f *os.File) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_UN); err != nil {
		return fmt.Errorf("atomicio: unlocking %s: %w", f.Name(), err)
	}
	return nil
}

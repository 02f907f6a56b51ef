package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// State is the durable slice of a node's control plane: the vote record
// that makes the at-most-once-per-epoch rule survive a crash. Everything
// else on a Node (lease expiry, counters, the held-epoch log) is soft state
// a reboot may lose; losing a cast vote is what mints two coordinators for
// one epoch, so votes go to the Store before they are acknowledged.
type State struct {
	// Epoch is the highest epoch this node voted on or adopted.
	Epoch uint64 `json:"epoch"`
	// Holder is who Epoch belongs to, as last heard. Soft in principle, but
	// persisting it lets a rebooted node wait out the incumbent's lease
	// instead of campaigning against a healthy coordinator.
	Holder string `json:"holder,omitempty"`
	// Granted maps epoch → the one holder this node granted it to.
	Granted map[uint64]string `json:"granted,omitempty"`
}

// Store persists a node's vote record across restarts. Save must make the
// state durable before returning: HandleLease writes the prospective vote
// through Save BEFORE acknowledging a grant, Raft-style, so a kill -9
// between the two can lose an unacknowledged vote (harmless) but never an
// acknowledged one (the split-brain seed).
type Store interface {
	// Load returns the last saved state, or a zero State when none exists.
	Load() (State, error)
	// Save persists st durably before returning.
	Save(st State) error
}

// FileStore is the production Store: one JSON file, replaced atomically
// (temp file + fsync + rename + directory fsync) so a crash mid-save leaves
// the previous state intact. cmd/electd wires it under -state-file.
type FileStore struct {
	mu   sync.Mutex
	path string
}

// NewFileStore builds a FileStore at path. The file and its directory are
// created on first Save.
func NewFileStore(path string) *FileStore { return &FileStore{path: path} }

// Load reads the state file; a missing file is a zero State, a corrupt one
// an error (refusing to start beats silently forgetting votes).
func (s *FileStore) Load() (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := os.ReadFile(s.path)
	if errors.Is(err, os.ErrNotExist) {
		return State{}, nil
	}
	if err != nil {
		return State{}, err
	}
	var st State
	if err := json.Unmarshal(b, &st); err != nil {
		return State{}, fmt.Errorf("control: state file %s corrupt: %w", s.path, err)
	}
	return st, nil
}

// Save writes st durably: temp file in the same directory, fsync, rename,
// then fsync the directory so the rename itself survives a power cut.
func (s *FileStore) Save(st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		return err
	}
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(s.path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

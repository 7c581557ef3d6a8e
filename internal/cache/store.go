package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// entry layout on disk:
//
//	magic   4 bytes  "HRC1"
//	length  8 bytes  big-endian payload byte count
//	sum    32 bytes  SHA-256 of the payload
//	payload
//
// The checksum is over the stored bytes, independent of the key: it
// detects torn writes, truncation and bit rot. A failed validation is
// reported as a miss (and the entry removed) so a corrupted result is
// recomputed, never served.
var entryMagic = [4]byte{'H', 'R', 'C', '1'}

const entryHeaderLen = 4 + 8 + sha256.Size

// Counters is a snapshot of a Store's activity, exported on the
// service's /metrics endpoint and printed by hrsweep -cache.
type Counters struct {
	// Hits counts Get calls that returned a valid entry.
	Hits int64
	// Misses counts Get calls that found no entry.
	Misses int64
	// Corrupt counts entries rejected by validation (a subset of
	// Misses).
	Corrupt int64
	// Computes counts GetOrCompute calls that actually ran their
	// compute function (single-flight waiters share one compute).
	Computes int64
	// Puts counts entries written.
	Puts int64
	// Inflight is the number of compute functions running now.
	Inflight int64
}

// Store is the content-addressed result store. All methods are safe for
// concurrent use; payload slices returned by Get/GetOrCompute may be
// shared between callers and must be treated as read-only.
type Store struct {
	dir    string
	flight group

	hits     atomic.Int64
	misses   atomic.Int64
	corrupt  atomic.Int64
	computes atomic.Int64
	puts     atomic.Int64
	inflight atomic.Int64
}

// Open returns a store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Counters returns a snapshot of the store's activity.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:     s.hits.Load(),
		Misses:   s.misses.Load(),
		Corrupt:  s.corrupt.Load(),
		Computes: s.computes.Load(),
		Puts:     s.puts.Load(),
		Inflight: s.inflight.Load(),
	}
}

// path fans entries out over 256 subdirectories so very large sweeps do
// not degrade into one flat directory.
func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, string(k[:2]), string(k))
}

// Get returns the payload stored under k, or ok=false on a miss. A
// corrupted or truncated entry counts as a miss and is removed.
func (s *Store) Get(k Key) ([]byte, bool) {
	b, ok := s.get(k)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return b, ok
}

// get is Get without counter updates, for the post-singleflight
// recheck (which would otherwise double-count the caller's miss).
func (s *Store) get(k Key) ([]byte, bool) {
	if len(k) < 2 {
		return nil, false
	}
	raw, err := os.ReadFile(s.path(k))
	if err != nil {
		return nil, false
	}
	payload, err := validateEntry(raw)
	if err != nil {
		s.corrupt.Add(1)
		os.Remove(s.path(k))
		return nil, false
	}
	return payload, true
}

// validateEntry checks the magic, declared length and checksum of a raw
// entry and returns its payload.
func validateEntry(raw []byte) ([]byte, error) {
	if len(raw) < entryHeaderLen {
		return nil, errors.New("cache: entry shorter than header")
	}
	if [4]byte(raw[:4]) != entryMagic {
		return nil, errors.New("cache: bad entry magic")
	}
	n := binary.BigEndian.Uint64(raw[4:12])
	payload := raw[entryHeaderLen:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("cache: entry declares %d payload bytes, has %d", n, len(payload))
	}
	want := [sha256.Size]byte(raw[12:entryHeaderLen])
	if sha256.Sum256(payload) != want {
		return nil, errors.New("cache: entry checksum mismatch")
	}
	return payload, nil
}

// Put stores payload under k, atomically: the entry is written to a
// temporary file and renamed into place, so readers only ever observe
// complete entries (a torn write would in any case fail validation).
func (s *Store) Put(k Key, payload []byte) error {
	if len(k) < 2 {
		return errors.New("cache: put with empty key")
	}
	path := s.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	buf := make([]byte, 0, entryHeaderLen+len(payload))
	buf = append(buf, entryMagic[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// GetOrCompute returns the payload under k, computing and storing it on
// a miss. Concurrent callers with the same cold key are deduplicated:
// exactly one runs compute, the rest block and share its bytes. hit
// reports whether the payload came from the store without running
// compute in this call's flight.
//
// A failed Put is not fatal: the computed payload is still returned (the
// result is correct, only the memoization is lost).
func (s *Store) GetOrCompute(k Key, compute func() ([]byte, error)) (payload []byte, hit bool, err error) {
	if b, ok := s.Get(k); ok {
		return b, true, nil
	}
	payload, err = s.flight.Do(string(k), func() ([]byte, error) {
		// Another flight may have stored the entry between our miss and
		// acquiring the flight; serve it rather than recomputing.
		if b, ok := s.get(k); ok {
			return b, nil
		}
		s.computes.Add(1)
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		b, err := compute()
		if err != nil {
			return nil, err
		}
		s.Put(k, b)
		return b, nil
	})
	if err != nil {
		return nil, false, err
	}
	// Waiters that joined an existing flight did not compute, but they
	// did not hit the store either; report hit=false so callers count
	// them as misses (they had to wait for a simulation).
	return payload, false, nil
}

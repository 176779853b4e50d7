// Package recovery implements the C-JDBC recovery log (§3.2) and the
// portable database dumps used for checkpointing (§3.1, where the paper
// uses the Octopus ETL tool). A log entry records the user, the transaction
// identifier and the SQL statement for every begin, commit, abort and
// update; checkpoints are named markers in the log. The log lives in
// memory or in a flat file.
package recovery

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"cjdbc/internal/sqlparser"
)

// ErrLogTruncated is returned by Since and Pin for a position below the
// log's floor: the entries after it are no longer kept, because no pin held
// them.
var ErrLogTruncated = errors.New("recovery: log no longer holds the entries after that position")

// EntryClass classifies a log entry.
type EntryClass string

// Log entry classes.
const (
	ClassBegin      EntryClass = "begin"
	ClassCommit     EntryClass = "commit"
	ClassRollback   EntryClass = "rollback"
	ClassWrite      EntryClass = "write"
	ClassCheckpoint EntryClass = "checkpoint"
)

// Entry is one recovery log record. Seq is assigned by the log under the
// appender's conflict-class critical section, so for any two conflicting
// operations (their Tables footprints intersect, or either is global) the
// sequence order equals the order every backend applied them in; entries of
// disjoint classes may interleave freely — any interleaving is a valid
// serialization. Sequential replay in Seq order therefore reconstructs the
// same partial order.
type Entry struct {
	Seq   uint64     `json:"seq"`
	User  string     `json:"user"`
	TxID  uint64     `json:"tx"`
	Class EntryClass `json:"class"`
	// SQL is the statement's own text: for a parameterised write, its
	// placeholders included, with Bound carrying the vector.
	SQL string `json:"sql,omitempty"`
	// Bound is the statement a parameterised write was executed as: the
	// plan's shared tree, SQL and the write's owned vector, the very value
	// the backends were handed. The memory store keeps it, and replay
	// executes it without parsing; the file store writes Text in its place
	// and reads back text only.
	Bound *sqlparser.Bound `json:"-"`
	Name  string           `json:"name,omitempty"` // checkpoint marker name
	// Tables is the conflict footprint the operation was sequenced under:
	// a write's table set, or a demarcation's accumulated transaction
	// footprint. Empty with Global unset means "touched nothing" for
	// demarcations and conflicts-with-everything for writes.
	Tables []string `json:"tables,omitempty"`
	// Global marks an operation sequenced gate-exclusive (DDL, unknown
	// footprints, or a demarcation of a transaction that performed one):
	// it conflicts with everything regardless of Tables.
	Global bool `json:"global,omitempty"`
	// V is the footprint schema version: entries appended by the
	// conflict-class sequencer carry V=1, so an empty demarcation
	// footprint means "touched nothing". Entries with V=0 were appended
	// without a footprint and theirs is unknown.
	V uint8 `json:"v,omitempty"`
}

// Text returns the statement as literal SQL: SQL itself, or for a bound
// entry its vector rendered into it.
func (e *Entry) Text() string {
	if e.Bound == nil {
		return e.SQL
	}
	return sqlparser.RenderParams(e.Bound.Stmt, e.Bound.Params)
}

// FootprintVersion is the V stamped on entries whose footprint fields are
// authoritative (set by the conflict-class sequencer at append time).
const FootprintVersion = 1

// ConflictsWith reports whether two entries were sequenced in the same
// conflict class (their footprints intersect, either was sequenced
// globally, or they belong to the same transaction). For such pairs the
// Seq order is the order every backend applied them in. Entries whose
// footprint is unknown (V=0) are conservatively treated as conflicting with
// everything.
func (e *Entry) ConflictsWith(o *Entry) bool {
	if e.TxID != 0 && e.TxID == o.TxID {
		return true
	}
	isGlobal := func(x *Entry) bool {
		if x.Global {
			return true
		}
		switch x.Class {
		case ClassWrite:
			return len(x.Tables) == 0
		case ClassCommit, ClassRollback:
			// Only a footprint-aware entry may claim "touched nothing".
			return x.V < FootprintVersion
		}
		return false
	}
	if isGlobal(e) || isGlobal(o) {
		return true
	}
	for _, a := range e.Tables {
		for _, b := range o.Tables {
			if a == b {
				return true
			}
		}
	}
	return false
}

// Log is the recovery log interface. Implementations must be safe for
// concurrent use.
type Log interface {
	// Append stores an entry (its Seq field is assigned) and returns the
	// assigned sequence number.
	Append(e Entry) (uint64, error)
	// Checkpoint inserts a named checkpoint marker.
	Checkpoint(name string) (uint64, error)
	// CheckpointSeq returns the sequence number of a named checkpoint.
	CheckpointSeq(name string) (uint64, bool, error)
	// Since returns all entries with Seq greater than seq, in order, or
	// ErrLogTruncated when some of them are no longer kept.
	Since(seq uint64) ([]Entry, error)
	// Pin keeps every entry with Seq greater than seq until release is
	// called; release may be called more than once. Without a pin a log may
	// forget entries. Pin fails with ErrLogTruncated when some entry after
	// seq is already forgotten.
	Pin(seq uint64) (release func(), err error)
	// Close releases resources.
	Close() error
}

// store is where a sequencer keeps its entries. The sequencer calls every
// method under its mutex, so a store needs no synchronization of its own and
// sees puts in strictly increasing Seq order.
type store interface {
	// put makes one entry durable. An error means the store does not hold
	// the entry.
	put(e Entry) error
	// scan returns the entries with Seq greater than after, in Seq order.
	// The sequencer never asks for one below the floor forget returned.
	scan(after uint64) ([]Entry, error)
	// forget may drop entries with Seq at or below upTo, and returns the
	// floor: the store still holds every entry with Seq above it.
	forget(upTo uint64) (floor uint64)
	close() error
}

// sequencer is the one recovery-log implementation: it assigns sequence
// numbers, tracks checkpoint marks and pins, and serializes every store
// access under one mutex. Two invariants follow by construction. Since
// returns a gap-free prefix of the log above the floor, because no put is in
// flight while scan runs, and a position below the floor is refused rather
// than answered with a gap. Seq advances only on a durable put, so a failed
// append consumes no sequence number and leaves no hole.
//
// The low-water mark is the lowest pin, or the last Seq when nothing is
// pinned; after every put and every release the store may forget what lies
// at or below it.
type sequencer struct {
	mu    sync.Mutex
	seq   uint64
	floor uint64
	marks map[string]uint64
	pins  []uint64 // ascending, one element per pin held
	st    store
}

// open attaches the store and restores the sequence counter and the
// checkpoint marks from whatever it already holds. It closes the store on
// error.
func (l *sequencer) open(st store) error {
	old, err := st.scan(0)
	if err != nil {
		st.close()
		return err
	}
	l.st, l.marks = st, make(map[string]uint64)
	for _, e := range old {
		l.record(e)
	}
	return nil
}

// record notes the sequence number and checkpoint mark of an entry the
// store holds.
func (l *sequencer) record(e Entry) {
	l.seq = e.Seq
	if e.Class == ClassCheckpoint {
		l.marks[e.Name] = e.Seq
	}
}

// Append implements Log.
func (l *sequencer) Append(e Entry) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.seq + 1
	if err := l.st.put(e); err != nil {
		return 0, err
	}
	l.record(e)
	l.forget()
	return e.Seq, nil
}

// forget hands the low-water mark to the store. Callers hold mu.
func (l *sequencer) forget() {
	mark := l.seq
	if len(l.pins) > 0 {
		mark = l.pins[0]
	}
	l.floor = l.st.forget(mark)
}

// Pin implements Log.
func (l *sequencer) Pin(seq uint64) (func(), error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.floor {
		return nil, fmt.Errorf("recovery: pin after %d, log kept after %d: %w", seq, l.floor, ErrLogTruncated)
	}
	i, _ := slices.BinarySearch(l.pins, seq)
	l.pins = slices.Insert(l.pins, i, seq)
	released := false
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if released {
			return
		}
		released = true
		i, _ := slices.BinarySearch(l.pins, seq)
		l.pins = slices.Delete(l.pins, i, i+1)
		l.forget()
	}, nil
}

// Checkpoint implements Log.
func (l *sequencer) Checkpoint(name string) (uint64, error) {
	return l.Append(Entry{Class: ClassCheckpoint, Name: name})
}

// CheckpointSeq implements Log.
func (l *sequencer) CheckpointSeq(name string) (uint64, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.marks[name]
	return s, ok, nil
}

// Since implements Log.
func (l *sequencer) Since(seq uint64) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.floor {
		return nil, fmt.Errorf("recovery: entries after %d, log kept after %d: %w", seq, l.floor, ErrLogTruncated)
	}
	return l.st.scan(seq)
}

// Close implements Log.
func (l *sequencer) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.close()
}

// MemoryLog keeps the log in process memory, and only the entries a pin
// holds or the tail chunk still contains.
type MemoryLog struct{ sequencer }

// NewMemoryLog creates an empty in-memory log.
func NewMemoryLog() *MemoryLog {
	l := &MemoryLog{}
	_ = l.open(&memStore{}) // memStore.scan cannot fail
	return l
}

// chunkEntries is the size of a memStore chunk: the unit the store forgets
// in, and the most entries a put ever moves (only while the first chunk
// grows).
const chunkEntries = 4096

// memStore keeps entries in chunks of chunkEntries. Every chunk but the last
// is full, and the sequencer's puts carry consecutive Seq, so the entry
// with Seq floor+1+i is at chunks[i/chunkEntries][i%chunkEntries]. The first
// chunk a store fills grows by append, so a small log costs no more than its
// entries; once one has filled, each later chunk is allocated whole and a put
// never copies an earlier entry.
type memStore struct {
	chunks [][]Entry
	floor  uint64
}

func (s *memStore) put(e Entry) error {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == chunkEntries {
		var c []Entry
		if n > 0 || s.floor > 0 {
			c = make([]Entry, 0, chunkEntries)
		}
		s.chunks = append(s.chunks, c)
		n++
	}
	s.chunks[n-1] = append(s.chunks[n-1], e)
	return nil
}

func (s *memStore) scan(after uint64) ([]Entry, error) {
	held := 0
	for _, c := range s.chunks {
		held += len(c)
	}
	if after-s.floor >= uint64(held) {
		return nil, nil
	}
	skip := int(after - s.floor)
	out := make([]Entry, 0, held-skip)
	for _, c := range s.chunks[skip/chunkEntries:] {
		out = append(out, c[skip%chunkEntries:]...)
		skip = 0
	}
	return out, nil
}

// forget drops the leading full chunks whose entries are all at or below
// upTo.
func (s *memStore) forget(upTo uint64) uint64 {
	i := 0
	for i < len(s.chunks) && len(s.chunks[i]) == chunkEntries && s.chunks[i][chunkEntries-1].Seq <= upTo {
		s.floor = s.chunks[i][chunkEntries-1].Seq
		i++
	}
	if i > 0 {
		s.chunks = slices.Delete(s.chunks, 0, i)
	}
	return s.floor
}

func (s *memStore) close() error { return nil }

// FileLog keeps the log in a flat file, one JSON entry per line (the flat
// file option of §3.2).
type FileLog struct{ sequencer }

// OpenFileLog opens (creating if needed) a file-backed log, scanning
// existing entries to restore the sequence counter and checkpoint markers.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("recovery: open log: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("recovery: open log: %w", err)
	}
	l := &FileLog{}
	if err := l.open(&fileStore{f: f, end: fi.Size()}); err != nil {
		return nil, err
	}
	return l, nil
}

// fileStore writes each entry at end, the length of the intact log, so a
// failed write leaves no torn line behind the entries that follow it.
type fileStore struct {
	f   *os.File
	end int64
}

// put renders a bound entry into its literal text and drops the Bound, so
// the file holds the same records as before the log kept vectors and a
// reopened log replays them by parsing. The rendering runs here, under the
// sequencer mutex next to the JSON encoding, until the file record carries
// the vector itself.
func (s *fileStore) put(e Entry) error {
	if e.Bound != nil {
		e.SQL, e.Bound = e.Text(), nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	n, err := s.f.WriteAt(append(b, '\n'), s.end)
	if err != nil {
		// Best effort: scan stops at end and the next put overwrites from
		// there, so a failed truncate only matters to a reopen.
		_ = s.f.Truncate(s.end)
		return fmt.Errorf("recovery: write log: %w", err)
	}
	s.end += int64(n)
	return nil
}

// scan reads lines of any length: put writes whatever the wire delivered,
// so no line cap may stand between the log and its own entries. A final
// line without its newline is parsed like any other.
func (s *fileStore) scan(after uint64) ([]Entry, error) {
	var out []Entry
	r := bufio.NewReader(io.NewSectionReader(s.f, 0, s.end))
	for {
		line, rerr := r.ReadBytes('\n')
		if len(line) > 0 {
			var e Entry
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, fmt.Errorf("recovery: corrupt log line: %w", err)
			}
			if e.Seq > after {
				out = append(out, e)
			}
		}
		if rerr == io.EOF {
			return out, nil
		}
		if rerr != nil {
			return nil, fmt.Errorf("recovery: read log: %w", rerr)
		}
	}
}

// forget keeps every entry: the file is one flat segment.
func (s *fileStore) forget(uint64) uint64 { return 0 }

func (s *fileStore) close() error { return s.f.Close() }

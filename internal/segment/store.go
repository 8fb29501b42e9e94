package segment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Store manages a directory of sealed segments plus a MANIFEST that
// names the live set: which files form the stack, the WAL sequence
// the sealed state reflects, and the live label count. All mutations
// (Seal, Compact) are crash-atomic: segment files are written to a
// temp name, fsynced and renamed before the manifest (itself written
// via temp+rename+dir-sync) starts referencing them, so a crash at
// any point leaves either the old or the new manifest state, never a
// torn one. Files not referenced by the manifest are deleted on open.
type Store struct {
	dir  string
	opts Options

	mu    sync.Mutex // guards manifest state + stack swaps
	man   manifest
	stack atomic.Pointer[Stack]

	compactMu   sync.Mutex // at most one compaction at a time
	compactions atomic.Uint64

	// failpoint, when set (tests only), is consulted before the
	// manifest temp file is fsynced; a non-nil error fails the commit
	// exactly like a failed fsync. Guarded by mu.
	failpoint func(step string) error
}

// SetFailpoint installs fn (nil removes it) as the store's fault
// injector; see the failpoint field. Production code never calls it.
func (s *Store) SetFailpoint(fn func(step string) error) {
	s.mu.Lock()
	s.failpoint = fn
	s.mu.Unlock()
}

// Options tunes a Store.
type Options struct {
	// MaxStack is the segment count above which NeedsCompaction
	// reports true (default 4).
	MaxStack int
}

func (o *Options) maxStack() int {
	if o.MaxStack <= 0 {
		return 4
	}
	return o.MaxStack
}

type manifest struct {
	Version  int      `json:"version"`
	Seq      uint64   `json:"seq"`
	N        int      `json:"n"`
	WithDist bool     `json:"withDist"`
	Live     int64    `json:"live"`
	NextID   uint64   `json:"nextID"`
	Segments []string `json:"segments"`
}

const manifestName = "MANIFEST"

// IsStore reports whether dir holds a segment store (a committed
// manifest exists).
func IsStore(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// CreateStore initializes an empty segment directory.
func CreateStore(dir string, withDist bool, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	s.stack.Store(&Stack{})
	if err := s.commitManifest(manifest{Version: 1, WithDist: withDist, NextID: 1}); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenStore opens an existing segment directory: reads the manifest,
// opens and validates every referenced segment, and deletes leftover
// files from interrupted seals or compactions.
func OpenStore(dir string, opts Options) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("segment: manifest: %w", err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("segment: manifest version %d unsupported", man.Version)
	}
	s := &Store{dir: dir, opts: opts, man: man}
	st := &Stack{}
	for _, name := range man.Segments {
		seg, err := Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		st = st.Push(seg)
	}
	s.stack.Store(st)
	s.cleanupOrphans()
	return s, nil
}

// cleanupOrphans removes segment/tmp files the manifest does not
// reference — leftovers of a crash mid-seal or mid-compaction.
func (s *Store) cleanupOrphans() {
	live := map[string]bool{manifestName: true}
	for _, name := range s.man.Segments {
		live[name] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !live[e.Name()] && (strings.HasSuffix(e.Name(), ".seg") || strings.HasSuffix(e.Name(), ".tmp")) {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// commitManifest makes man the store's durable manifest — temp file,
// fsync, rename, directory sync, every error checked before the rename
// — and only then the in-memory one: a failed commit leaves s.man (and
// the MANIFEST file) at the previous state. The caller holds s.mu or
// has sole access to the store.
func (s *Store) commitManifest(man manifest) error {
	raw, err := json.Marshal(&man)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(raw)
	if err == nil && s.failpoint != nil {
		err = s.failpoint("manifest")
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.dir, manifestName))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := SyncDir(s.dir); err != nil {
		return err
	}
	s.man = man
	return nil
}

// SyncDir fsyncs a directory, making the renames and unlinks inside it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Current returns the stack of sealed segments (an immutable value;
// hold it to pin the sealed state across seals and compactions).
func (s *Store) Current() *Stack { return s.stack.Load() }

// Seq returns the WAL sequence the sealed state reflects.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Seq
}

// Info returns the manifest-level shape of the sealed state.
func (s *Store) Info() (seq uint64, n int, withDist bool, live int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Seq, s.man.N, s.man.WithDist, s.man.Live
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// writeRecs writes the given per-family records (sorted by key; posts
// sorted by Val) as segment file number id and opens it. An all-empty
// record set writes nothing and returns a nil segment.
func (s *Store) writeRecs(id, seq uint64, n int, fams [NumFamilies][]Rec) (*Segment, error) {
	empty := true
	for _, recs := range fams {
		if len(recs) > 0 {
			empty = false
			break
		}
	}
	if empty {
		return nil, nil
	}
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.seg", id))
	meta := Meta{N: n, WithDist: s.man.WithDist, Seq: seq}
	_, err := WriteFile(path, meta, func(w *Writer) error {
		for fam := Family(0); fam < NumFamilies; fam++ {
			for _, r := range fams[fam] {
				if err := w.Append(fam, r.Key, r.Posts); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return Open(path)
}

// Seal writes one new segment from the given per-family records and
// commits a manifest naming it, advancing the sealed sequence to seq
// and the live label count to live. When every family is empty no
// file is written but the manifest still advances — a checkpoint with
// an empty delta must still fold the WAL idempotently. Returns the new
// stack; on error the manifest and the stack are unchanged.
func (s *Store) Seal(seq uint64, n int, live int64, fams [NumFamilies][]Rec) (*Stack, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, err := s.writeRecs(s.man.NextID, seq, n, fams)
	if err != nil {
		return nil, err
	}
	man := s.man
	man.Seq, man.N, man.Live = seq, n, live
	next := s.stack.Load()
	if seg != nil {
		man.NextID++
		man.Segments = append(append([]string(nil), s.man.Segments...), filepath.Base(seg.path))
		next = next.Push(seg)
	}
	if err := s.commitManifest(man); err != nil {
		return nil, err
	}
	s.stack.Store(next)
	return next, nil
}

// MaxStack returns the effective compaction threshold.
func (s *Store) MaxStack() int { return s.opts.maxStack() }

// NeedsCompaction reports whether the stack has grown past MaxStack.
func (s *Store) NeedsCompaction() bool {
	return len(s.stack.Load().Segs) > s.opts.maxStack()
}

// Compactions returns how many compactions have completed.
func (s *Store) Compactions() uint64 { return s.compactions.Load() }

// Compact folds the entire current stack into one segment, dropping
// tombstones, and atomically replaces the stack prefix with it.
// Safe to run concurrently with Seal (the merge reads a pinned
// immutable stack; segments sealed meanwhile are kept on top).
// Replaced files are unlinked — open snapshots still read them
// through their mappings. Returns false when there is nothing to do.
func (s *Store) Compact() (bool, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	pinned := s.stack.Load()
	if len(pinned.Segs) < 2 {
		return false, nil
	}
	s.mu.Lock()
	id := s.man.NextID
	s.man.NextID++ // reserve the id; manifest committed with the swap
	n, withDist := s.man.N, s.man.WithDist
	seq := pinned.Segs[len(pinned.Segs)-1].meta.Seq
	s.mu.Unlock()

	name := fmt.Sprintf("seg-%06d.seg", id)
	path := filepath.Join(s.dir, name)
	meta := Meta{N: n, WithDist: withDist, Seq: seq}
	_, err := WriteFile(path, meta, func(w *Writer) error {
		for fam := Family(0); fam < NumFamilies; fam++ {
			err := pinned.Iter(fam, true, func(key int32, posts []Post) error {
				return w.Append(fam, key, posts)
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	merged, err := Open(path)
	if err != nil {
		return false, err
	}

	s.mu.Lock()
	cur := s.stack.Load()
	// cur must extend pinned: only Seal appends, and compactions are
	// serialized by compactMu.
	tail := cur.Segs[len(pinned.Segs):]
	segs := append([]*Segment{merged}, tail...)
	names := make([]string, len(segs))
	for i, sg := range segs {
		names[i] = filepath.Base(sg.path)
	}
	man := s.man
	man.Segments = names
	if err := s.commitManifest(man); err != nil {
		s.mu.Unlock()
		return false, err
	}
	s.stack.Store(&Stack{Segs: segs})
	s.mu.Unlock()

	for _, sg := range pinned.Segs {
		os.Remove(sg.path) // mappings keep the bytes alive for readers
	}
	s.compactions.Add(1)
	return true, nil
}

// Reset replaces the entire stack with one segment built from the
// given complete record set — the wholesale swap behind an index
// Rebuild, where incremental tombstones cannot express the change.
// Crash-atomic like Seal, and like Seal it leaves the manifest and the
// stack unchanged on error; replaced files are unlinked after the
// manifest commit (pinned stacks keep reading them through their
// mappings). An all-empty record set resets to an empty stack.
func (s *Store) Reset(seq uint64, n int, live int64, fams [NumFamilies][]Rec) (*Stack, error) {
	// serialize with Compact: it assumes the stack only grows by Seal
	// while it runs, which a concurrent wholesale swap would violate
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	seg, err := s.writeRecs(s.man.NextID, seq, n, fams)
	if err != nil {
		return nil, err
	}
	man := s.man
	man.Seq, man.N, man.Live = seq, n, live
	man.Segments = nil
	next := &Stack{}
	if seg != nil {
		man.NextID++
		man.Segments = []string{filepath.Base(seg.path)}
		next = next.Push(seg)
	}
	if err := s.commitManifest(man); err != nil {
		return nil, err
	}
	old := s.stack.Swap(next)
	for _, sg := range old.Segs {
		os.Remove(sg.path)
	}
	return next, nil
}

// Stats describes the sealed tier for observability endpoints.
type Stats struct {
	Segments    int    // sealed segment files in the stack
	SealedBytes int64  // total on-disk bytes
	SealedPosts int64  // label postings in sealed files (incl. shadowed)
	SealedTombs int64  // tombstones awaiting compaction
	LiveEntries int64  // logical live label count (manifest)
	Seq         uint64 // sealed WAL sequence
	Compactions uint64 // completed compactions
	Mmapped     bool   // every segment reads through mmap
}

// Stats returns a consistent snapshot of store statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	seq, live := s.man.Seq, s.man.Live
	s.mu.Unlock()
	out := s.stack.Load().Stats()
	out.LiveEntries, out.Seq, out.Compactions = live, seq, s.compactions.Load()
	return out
}

// Stats describes the stack's files; LiveEntries and Compactions, which
// only a store's manifest and history know, stay zero, and Seq is the
// newest segment's sequence.
func (st *Stack) Stats() Stats {
	out := Stats{Segments: len(st.Segs), Mmapped: true}
	for _, sg := range st.Segs {
		out.SealedBytes += sg.size
		out.SealedPosts += sg.meta.Posts
		out.SealedTombs += sg.meta.Tombs
		out.Seq = max(out.Seq, sg.meta.Seq)
		if !sg.Mmapped() {
			out.Mmapped = false
		}
	}
	return out
}

// NamedFile is a segment file shipped inside a replication image.
type NamedFile struct {
	Name string
	Data []byte
}

// ImageFiles returns the manifest state plus the raw bytes of every
// sealed segment in the given stack (which the caller pinned with
// Current). Zero-copy in mmap mode: the byte slices alias the
// mappings, which stay valid even if a concurrent compaction unlinks
// the files.
func (s *Store) ImageFiles(st *Stack) (seq uint64, n int, withDist bool, live int64, files []NamedFile, err error) {
	seq, n, withDist, live = s.Info()
	for _, sg := range st.Segs {
		b, err := sg.Bytes()
		if err != nil {
			return 0, 0, false, 0, nil, err
		}
		files = append(files, NamedFile{Name: filepath.Base(sg.path), Data: b})
	}
	return seq, n, withDist, live, files, nil
}

// InstallStore materializes a store directory from shipped segment
// files (follower bootstrap): writes the files, commits a manifest
// referencing them, and opens the result.
func (s *Store) install(files []NamedFile) error {
	for _, f := range files {
		if err := os.WriteFile(filepath.Join(s.dir, f.Name), f.Data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// InstallStore creates dir containing the shipped files and a
// manifest adopting them at the given sequence, then opens it. The
// file order is the stack order (oldest first), exactly as produced
// by ImageFiles — a compacted segment can carry a higher id than a
// segment sealed during the compaction, so name order is not age
// order and must be preserved.
func InstallStore(dir string, seq uint64, n int, withDist bool, live int64, files []NamedFile, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	var nextID uint64 = 1
	names := make([]string, 0, len(files))
	for _, f := range files {
		names = append(names, f.Name)
		var id uint64
		if _, err := fmt.Sscanf(f.Name, "seg-%d.seg", &id); err == nil && id >= nextID {
			nextID = id + 1
		}
	}
	if err := s.install(files); err != nil {
		return nil, err
	}
	man := manifest{Version: 1, Seq: seq, N: n, WithDist: withDist, Live: live, NextID: nextID, Segments: names}
	if err := s.commitManifest(man); err != nil {
		return nil, err
	}
	st := &Stack{}
	for _, name := range names {
		seg, err := Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		st = st.Push(seg)
	}
	s.stack.Store(st)
	return s, nil
}

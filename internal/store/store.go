// Package store persists the calibration cache across daemon
// restarts: a crash-safe, content-addressed snapshot of fitted PCIe
// transfer models on local disk.
//
// The paper's calibration is cheap but mandatory — two timed
// transfers fit α/β for the machine the daemon runs on (§III-C). That
// makes a calibration per-machine *state*, not per-request work:
// recomputing it on every restart cold-starts the whole serving tier
// for no new information. The store writes one small file per cached
// calibration and loads them at boot, so a restarted daemon warms its
// pool instantly and serves reports byte-identical to the pre-restart
// process.
//
// Keying and invalidation. An entry's identity is the calibration key
// (target name, backend name, host memory kind, machine seed) *plus*
// a content hash
// of the whole hardware-target registry *plus* the snapshot schema
// version — the same key + input hash + schema version discipline as
// a content-addressed build cache. The registry hash means editing any
// GPU/CPU/bus definition orphans every snapshot taken under the old
// definitions (they are skipped as stale, never replayed); the schema
// version does the same for format changes.
//
// Crash safety. Writes go to a temp file in the snapshot directory,
// are fsynced, atomically renamed into place, and the directory is
// fsynced — a crash at any point leaves either the old file, the new
// file, or a stray temp file, never a torn entry. Every file carries a
// SHA-256 checksum of its payload; a file that fails any integrity
// check (magic, checksum, JSON shape, implausible model) is moved
// aside to NAME.quarantined — kept for forensics, never deleted, never
// loaded — and reported as errdefs.ErrCorruptSnapshot. A damaged disk
// therefore degrades to a cold start for the damaged keys; it cannot
// crash the daemon or feed it garbage models.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"grophecy/internal/backend"
	"grophecy/internal/errdefs"
	"grophecy/internal/fault"
	"grophecy/internal/metrics"
	"grophecy/internal/pcie"
	"grophecy/internal/trace"
	"grophecy/internal/xfermodel"
)

// Snapshot instruments.
var (
	mWrites = metrics.Default.MustCounter("store_snapshot_writes_total",
		"calibration snapshot files written")
	mWriteErrors = metrics.Default.MustCounter("store_snapshot_write_errors_total",
		"calibration snapshot writes that failed")
	mLoaded = metrics.Default.MustGauge("store_snapshot_loaded_entries",
		"calibration entries loaded from the snapshot directory at last load")
	mQuarantined = metrics.Default.MustCounter("store_snapshot_quarantined_total",
		"corrupt snapshot files quarantined")
	mStale = metrics.Default.MustCounter("store_snapshot_stale_total",
		"snapshot files skipped for schema or registry-hash mismatch")
)

// SchemaVersion is the snapshot format version. Bump it whenever the
// encoded document shape changes; old files become stale, not corrupt.
// v2 added the backend dimension to the key and the backend fit to the
// entry.
const SchemaVersion = 2

// magic is the first line of every snapshot file.
const magic = "grophecy-snap v1"

// Ext and QuarantineExt are the snapshot file suffixes.
const (
	Ext           = ".snap"
	QuarantineExt = ".quarantined"
)

// Key identifies one persisted calibration, mirroring the engine
// pool's cache key.
type Key struct {
	Target  string          `json:"target"`
	Backend string          `json:"backend"`
	Kind    pcie.MemoryKind `json:"kind"`
	Seed    uint64          `json:"seed"`
}

// Entry is one persisted calibration: the backend's fit and α/β
// summary plus the bus-noise state right after the calibration
// transfers, which is what lets a warmed pool serve bit-identical
// reports.
type Entry struct {
	Key      Key                `json:"key"`
	Model    xfermodel.BusModel `json:"model"`
	Fit      backend.Fit        `json:"fit"`
	BusState uint64             `json:"busState"`
}

// document is the JSON payload of a snapshot file.
type document struct {
	Schema       int    `json:"schema"`
	RegistryHash string `json:"registryHash"`
	Entry        Entry  `json:"entry"`
}

// errStale marks a structurally valid snapshot written under a
// different schema version or registry hash. Stale files are skipped,
// not quarantined: they are not damaged, just from another world.
var errStale = errors.New("stale snapshot")

// Encode renders an entry as a snapshot file:
//
//	grophecy-snap v1
//	sha256:<hex digest of the payload>
//	<payload JSON>
func Encode(e Entry, registryHash string) ([]byte, error) {
	payload, err := json.Marshal(document{
		Schema:       SchemaVersion,
		RegistryHash: registryHash,
		Entry:        e,
	})
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	var b strings.Builder
	b.Grow(len(magic) + len(payload) + 80)
	b.WriteString(magic)
	b.WriteByte('\n')
	b.WriteString("sha256:")
	b.WriteString(hex.EncodeToString(sum[:]))
	b.WriteByte('\n')
	b.Write(payload)
	return []byte(b.String()), nil
}

// Decode parses and verifies a snapshot file. Integrity failures —
// wrong magic, checksum mismatch, malformed payload, implausible
// model — wrap errdefs.ErrCorruptSnapshot. A structurally sound file
// from another schema version or registry returns an error matching
// errStale via errors.Is. Decode never panics, whatever the input:
// FuzzSnapshotDecode holds it to that.
func Decode(data []byte, registryHash string) (Entry, error) {
	head, rest, ok := strings.Cut(string(data), "\n")
	if !ok || head != magic {
		return Entry{}, errdefs.Corruptf("bad magic %.40q", head)
	}
	sumLine, payload, ok := strings.Cut(rest, "\n")
	if !ok || !strings.HasPrefix(sumLine, "sha256:") {
		return Entry{}, errdefs.Corruptf("missing checksum line")
	}
	want := strings.TrimPrefix(sumLine, "sha256:")
	got := sha256.Sum256([]byte(payload))
	if hex.EncodeToString(got[:]) != want {
		return Entry{}, errdefs.Corruptf("checksum mismatch")
	}
	var doc document
	if err := json.Unmarshal([]byte(payload), &doc); err != nil {
		return Entry{}, errdefs.Corruptf("malformed payload: %v", err)
	}
	if doc.Schema != SchemaVersion {
		return Entry{}, fmt.Errorf("%w: schema %d (running %d)", errStale, doc.Schema, SchemaVersion)
	}
	if doc.RegistryHash != registryHash {
		return Entry{}, fmt.Errorf("%w: registry hash %.12s (running %.12s)",
			errStale, doc.RegistryHash, registryHash)
	}
	e := doc.Entry
	if e.Key.Target == "" || e.Key.Backend == "" || !e.Key.Kind.Valid() {
		return Entry{}, errdefs.Corruptf("invalid key %+v", e.Key)
	}
	if !e.Model.Valid() {
		return Entry{}, errdefs.Corruptf("implausible model for %s/%s/%v/seed=%d",
			e.Key.Target, e.Key.Backend, e.Key.Kind, e.Key.Seed)
	}
	if err := e.Fit.Validate(); err != nil {
		return Entry{}, errdefs.Corruptf("invalid fit for %s/%s/%v/seed=%d: %v",
			e.Key.Target, e.Key.Backend, e.Key.Kind, e.Key.Seed, err)
	}
	if e.Fit.Backend != e.Key.Backend || e.Fit.Kind != e.Key.Kind {
		return Entry{}, errdefs.Corruptf("fit/key mismatch for %s/%s/%v/seed=%d",
			e.Key.Target, e.Key.Backend, e.Key.Kind, e.Key.Seed)
	}
	return e, nil
}

// Store is a snapshot directory bound to one registry fingerprint.
type Store struct {
	dir   string
	hash  string
	chaos *fault.Chaos
}

// Open prepares dir as a snapshot directory for the given registry
// fingerprint, creating it if needed. chaos, when non-nil, injects
// snapshot I/O faults (write failures, read corruption) for the chaos
// harness; pass nil in production.
func Open(dir, registryHash string, chaos *fault.Chaos) (*Store, error) {
	if dir == "" {
		return nil, errdefs.Invalidf("store: empty snapshot directory")
	}
	if registryHash == "" {
		return nil, errdefs.Invalidf("store: empty registry hash")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating snapshot dir: %w", err)
	}
	return &Store{dir: dir, hash: registryHash, chaos: chaos}, nil
}

// Dir returns the snapshot directory path.
func (s *Store) Dir() string { return s.dir }

// filename derives the content-addressed file name of a key: a
// SHA-256 over the key, the registry hash, and the schema version, so
// two registries (or schema versions) never collide on a file.
func (s *Store) filename(k Key) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d|%d|%s|%d",
		k.Target, k.Backend, k.Kind, k.Seed, s.hash, SchemaVersion)))
	return hex.EncodeToString(h[:16]) + Ext
}

// Put atomically persists one entry: temp file, fsync, rename, fsync
// of the directory. A failed write (including an injected chaos
// fault) leaves no trace of the new entry and never damages an old
// one. When ctx carries a request tracer (the daemon's write-through
// path), the snapshot I/O shows up on the request's trace as a
// snap.put wall span.
func (s *Store) Put(ctx context.Context, e Entry) error {
	_, span := trace.StartWall(ctx, "snap.put")
	span.SetAttr(trace.String("snap_target", e.Key.Target))
	defer span.End()
	if err := s.put(e); err != nil {
		span.SetAttr(trace.Bool("snap_ok", false))
		mWriteErrors.Inc()
		return err
	}
	span.SetAttr(trace.Bool("snap_ok", true))
	mWrites.Inc()
	return nil
}

func (s *Store) put(e Entry) error {
	if err := s.chaos.SnapshotWriteError(); err != nil {
		return fmt.Errorf("store: writing %s/%v/seed=%d: %w",
			e.Key.Target, e.Key.Kind, e.Key.Seed, err)
	}
	data, err := Encode(e, s.hash)
	if err != nil {
		return fmt.Errorf("store: encoding %s/%v/seed=%d: %w",
			e.Key.Target, e.Key.Kind, e.Key.Seed, err)
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing temp file: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing temp file: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing temp file: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("store: chmod temp file: %w", err)
	}
	final := filepath.Join(s.dir, s.filename(e.Key))
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("store: renaming into place: %w", err)
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a completed rename survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing dir: %w", err)
	}
	return nil
}

// SaveAll persists every entry, continuing past individual failures
// and joining their errors — a periodic snapshot should save what it
// can. It runs in a snap.save wall span when one is being recorded.
func (s *Store) SaveAll(ctx context.Context, entries []Entry) error {
	ctx, span := trace.StartWall(ctx, "snap.save")
	span.SetAttr(trace.Int("snap_entries", int64(len(entries))))
	defer span.End()
	var errs []error
	for _, e := range entries {
		if err := s.Put(ctx, e); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Result is what a Load found.
type Result struct {
	// Entries are the verified calibrations, sorted by key for
	// deterministic warm-start order.
	Entries []Entry
	// Stale counts structurally valid files from another schema
	// version or registry hash (skipped, left in place).
	Stale int
	// Quarantined counts corrupt files moved aside to *.quarantined.
	Quarantined int
	// Duration is how long the load took.
	Duration time.Duration
	// Problems carries one error per corrupt or unreadable file, each
	// wrapping errdefs.ErrCorruptSnapshot where integrity failed, for
	// the caller to log. Load itself never fails on file damage.
	Problems []error
}

// Load scans the snapshot directory and returns every entry that
// passes verification. Corrupt files are quarantined (renamed to
// NAME.quarantined, bytes preserved) and reported in Problems; stale
// files are skipped; stray temp files from interrupted writes are
// removed. Damage never fails the load — the worst disk yields an
// empty, usable store. It runs in a snap.load wall span (with the
// warm-start outcome as attributes) when one is recorded.
func (s *Store) Load(ctx context.Context) (Result, error) {
	_, span := trace.StartWall(ctx, "snap.load")
	defer span.End()
	res, err := s.load()
	span.SetAttr(trace.Int("snap_loaded", int64(len(res.Entries))))
	span.SetAttr(trace.Int("snap_stale", int64(res.Stale)))
	span.SetAttr(trace.Int("snap_quarantined", int64(res.Quarantined)))
	return res, err
}

func (s *Store) load() (Result, error) {
	start := time.Now()
	var res Result
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return res, fmt.Errorf("store: reading snapshot dir: %w", err)
	}
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".tmp-") {
			// A crash mid-write left a temp file; it was never visible
			// as an entry, so removing it is safe.
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if !strings.HasSuffix(name, Ext) {
			continue
		}
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			res.Problems = append(res.Problems, fmt.Errorf("store: reading %s: %w", name, err))
			continue
		}
		data = s.chaos.CorruptRead(data)
		e, err := Decode(data, s.hash)
		switch {
		case err == nil:
			res.Entries = append(res.Entries, e)
		case errors.Is(err, errStale):
			res.Stale++
			mStale.Inc()
		default:
			// Corrupt: quarantine, never delete, never load.
			if qerr := os.Rename(path, path+QuarantineExt); qerr != nil {
				err = errors.Join(err, fmt.Errorf("store: quarantining %s: %w", name, qerr))
			}
			res.Quarantined++
			mQuarantined.Inc()
			res.Problems = append(res.Problems, fmt.Errorf("store: %s: %w", name, err))
		}
	}
	sort.Slice(res.Entries, func(i, j int) bool {
		a, b := res.Entries[i].Key, res.Entries[j].Key
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		if a.Backend != b.Backend {
			return a.Backend < b.Backend
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Seed < b.Seed
	})
	res.Duration = time.Since(start)
	mLoaded.Set(float64(len(res.Entries)))
	return res, nil
}

package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"grophecy/internal/backend"
	"grophecy/internal/errdefs"
	"grophecy/internal/fault"
	"grophecy/internal/pcie"
	"grophecy/internal/xfermodel"
)

const testHash = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

func entry(target string, seed uint64) Entry {
	var bm xfermodel.BusModel
	bm.Kind = pcie.Pinned
	bm.CalibrationCost = 0.25
	bm.CalibrationTransfers = 40
	bm.Dir[pcie.HostToDevice] = xfermodel.Model{Alpha: 1.5e-5, Beta: 6.5e-10}
	bm.Dir[pcie.DeviceToHost] = xfermodel.Model{Alpha: 1.7e-5, Beta: 7.0e-10}
	payload, err := json.Marshal(bm)
	if err != nil {
		panic(err)
	}
	return Entry{
		Key:      Key{Target: target, Backend: backend.DefaultName, Kind: pcie.Pinned, Seed: seed},
		Model:    bm,
		Fit:      backend.Fit{Backend: backend.DefaultName, Kind: pcie.Pinned, Payload: payload},
		BusState: 0xdeadbeefcafe ^ seed,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := entry("fx5600-pcie1", 42)
	data, err := Encode(e, testHash)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, testHash)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", got, e)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	e := entry("fx5600-pcie1", 42)
	good, err := Encode(e, testHash)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            nil,
		"garbage":          []byte("not a snapshot at all"),
		"bad magic":        append([]byte("grophecy-snap v9\n"), good[len(magic)+1:]...),
		"no checksum line": []byte(magic + "\n{}"),
		"truncated":        good[:len(good)-4],
	}
	// One flipped payload byte must fail the checksum.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-2] ^= 0xff
	cases["flipped byte"] = flipped
	// A valid checksum over an implausible model must still be corrupt.
	bad := e
	bad.Model.Dir[pcie.HostToDevice].Alpha = -1
	badData, err := Encode(bad, testHash)
	if err != nil {
		t.Fatal(err)
	}
	cases["implausible model"] = badData

	for name, data := range cases {
		if _, err := Decode(data, testHash); !errdefs.IsCorruptSnapshot(err) {
			t.Errorf("%s: Decode = %v, want ErrCorruptSnapshot", name, err)
		}
	}
}

func TestDecodeStaleIsNotCorrupt(t *testing.T) {
	e := entry("fx5600-pcie1", 42)
	data, err := Encode(e, testHash)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Decode(data, "anotherhash")
	if err == nil || !errors.Is(err, errStale) {
		t.Errorf("registry-hash mismatch: %v, want errStale", err)
	}
	if errdefs.IsCorruptSnapshot(err) {
		t.Error("stale snapshot classified as corrupt")
	}
}

func TestPutLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testHash, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{entry("a-target", 1), entry("a-target", 2), entry("b-target", 1)}
	// Save in scrambled order; Load must return sorted-by-key.
	for _, e := range []Entry{want[2], want[0], want[1]} {
		if err := s.Put(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	}
	// Re-putting an entry overwrites its file, not duplicates it.
	if err := s.Put(context.Background(), want[0]); err != nil {
		t.Fatal(err)
	}
	res, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != len(want) {
		t.Fatalf("loaded %d entries, want %d", len(res.Entries), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(res.Entries[i], want[i]) {
			t.Errorf("entry %d = %+v, want %+v", i, res.Entries[i], want[i])
		}
	}
	if res.Quarantined != 0 || res.Stale != 0 || len(res.Problems) != 0 {
		t.Errorf("clean load reported quarantined=%d stale=%d problems=%v",
			res.Quarantined, res.Stale, res.Problems)
	}
}

func TestLoadQuarantinesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testHash, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(context.Background(), entry("good-target", 1)); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "feedfacefeedface"+Ext)
	if err := os.WriteFile(corrupt, []byte("garbage bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || res.Entries[0].Key.Target != "good-target" {
		t.Errorf("load returned %d entries, want the 1 good one", len(res.Entries))
	}
	if res.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", res.Quarantined)
	}
	if len(res.Problems) != 1 || !errdefs.IsCorruptSnapshot(res.Problems[0]) {
		t.Errorf("problems = %v, want one ErrCorruptSnapshot", res.Problems)
	}
	// The damaged bytes are preserved under .quarantined, and the
	// original name is gone so a later load does not re-process it.
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Error("corrupt file still present under its original name")
	}
	kept, err := os.ReadFile(corrupt + QuarantineExt)
	if err != nil {
		t.Fatalf("quarantined bytes missing: %v", err)
	}
	if !bytes.Equal(kept, []byte("garbage bytes")) {
		t.Error("quarantine did not preserve the damaged bytes")
	}
	res2, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Quarantined != 0 || len(res2.Entries) != 1 {
		t.Errorf("second load re-processed the quarantined file: %+v", res2)
	}
}

func TestLoadSkipsStaleAndTempFiles(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir, "oldhash", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Put(context.Background(), entry("old-target", 1)); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ".tmp-123456")
	if err := os.WriteFile(tmp, []byte("half a write"), 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, testHash, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(context.Background(), entry("new-target", 1)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || res.Entries[0].Key.Target != "new-target" {
		t.Errorf("entries = %+v, want only new-target", res.Entries)
	}
	if res.Stale != 1 {
		t.Errorf("stale = %d, want 1", res.Stale)
	}
	if res.Quarantined != 0 {
		t.Errorf("quarantined = %d, want 0 (stale is not corrupt)", res.Quarantined)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("stray temp file survived the load")
	}
}

func TestChaosWriteFaultLeavesNoTrace(t *testing.T) {
	chaos, err := fault.ParseChaos("snap-write-err=1,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Open(dir, testHash, chaos)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(context.Background(), entry("a-target", 1)); !errdefs.IsTransient(err) {
		t.Fatalf("chaos write = %v, want transient", err)
	}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirents) != 0 {
		t.Errorf("failed write left %d files behind", len(dirents))
	}
}

func TestChaosReadCorruptionIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	clean, err := Open(dir, testHash, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Put(context.Background(), entry("a-target", 1)); err != nil {
		t.Fatal(err)
	}
	chaos, err := fault.ParseChaos("snap-corrupt=1,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, testHash, chaos)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 0 || res.Quarantined != 1 {
		t.Errorf("corrupted read: entries=%d quarantined=%d, want 0 and 1",
			len(res.Entries), res.Quarantined)
	}
}

func TestSaveAllContinuesPastFailures(t *testing.T) {
	// snap-write-err=0.5 at this seed fails some writes but not all;
	// SaveAll must persist the survivors and join the failures.
	chaos, err := fault.ParseChaos("snap-write-err=0.5,seed=21")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Open(dir, testHash, chaos)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for seed := uint64(1); seed <= 16; seed++ {
		entries = append(entries, entry("a-target", seed))
	}
	errAll := s.SaveAll(context.Background(), entries)
	if errAll == nil {
		t.Fatal("SaveAll reported no failures at snap-write-err=0.5 over 16 writes")
	}
	res, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) == 0 || len(res.Entries) == len(entries) {
		t.Errorf("survivors = %d of %d, want a strict subset", len(res.Entries), len(entries))
	}
}

func TestOpenRejectsBadInputs(t *testing.T) {
	if _, err := Open("", testHash, nil); !errors.Is(err, errdefs.ErrInvalidInput) {
		t.Errorf("empty dir: %v", err)
	}
	if _, err := Open(t.TempDir(), "", nil); !errors.Is(err, errdefs.ErrInvalidInput) {
		t.Errorf("empty hash: %v", err)
	}
}

func TestFilenameIsContentAddressed(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, testHash, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, "otherhash", nil)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Target: "a-target", Backend: backend.DefaultName, Kind: pcie.Pinned, Seed: 1}
	if a.filename(k) != a.filename(k) {
		t.Error("filename unstable for one key")
	}
	if a.filename(k) == b.filename(k) {
		t.Error("different registry hashes share a filename")
	}
	k2 := k
	k2.Seed = 2
	if a.filename(k) == a.filename(k2) {
		t.Error("different seeds share a filename")
	}
	if !strings.HasSuffix(a.filename(k), Ext) {
		t.Errorf("filename %q lacks the %s suffix", a.filename(k), Ext)
	}
}

package runcache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func jsonCodec[V any]() (func(V) ([]byte, error), func([]byte) (V, error)) {
	return func(v V) ([]byte, error) { return json.Marshal(v) },
		func(data []byte) (V, error) {
			var v V
			err := json.Unmarshal(data, &v)
			return v, err
		}
}

func withDisk(t *testing.T, version string) *Disk {
	t.Helper()
	d, err := NewDisk(t.TempDir(), version)
	if err != nil {
		t.Fatal(err)
	}
	SetBackend(d)
	t.Cleanup(func() {
		WaitPersist()
		SetBackend(nil)
		ResetAll()
	})
	return d
}

// TestDiskWriteBehindAndReload is the in-package restart simulation:
// a persistent cache computes once, and a second cache instance with
// fresh (empty) memory state over the same directory answers from disk
// without computing.
func TestDiskWriteBehindAndReload(t *testing.T) {
	withDisk(t, "v1")
	enc, dec := jsonCodec[int]()
	c1 := New[int]("test-disk-a").Persist(enc, dec)
	calls := 0
	if got := c1.Get("k", func() int { calls++; return 41 }); got != 41 {
		t.Fatalf("Get = %d, want 41", got)
	}
	WaitPersist()
	if s := c1.Stats(); s.DiskStores != 1 || s.Misses != 1 {
		t.Fatalf("writer stats = %+v, want 1 diskStore / 1 miss", s)
	}

	// "Restart": a fresh cache under the same name and directory.
	c2 := New[int]("test-disk-a").Persist(enc, dec)
	if got := c2.Get("k", func() int { calls++; return -1 }); got != 41 {
		t.Fatalf("reloaded Get = %d, want 41", got)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times across restart, want 1", calls)
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Misses != 0 {
		t.Errorf("reader stats = %+v, want 1 diskHit / 0 misses", s)
	}
	// And the memory promotion holds: a second read is a plain hit.
	c2.Get("k", func() int { calls++; return -1 })
	if s := c2.Stats(); s.Hits != 1 {
		t.Errorf("post-promotion stats = %+v, want 1 hit", s)
	}
}

// TestDiskVersionIsolation: the same inputs under a different code
// version address a different entry — stale results can never leak
// across builds.
func TestDiskVersionIsolation(t *testing.T) {
	dir := t.TempDir()
	enc, dec := jsonCodec[int]()
	d1, err := NewDisk(dir, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	SetBackend(d1)
	defer func() {
		WaitPersist()
		SetBackend(nil)
		ResetAll()
	}()
	New[int]("test-disk-ver").Persist(enc, dec).Get("k", func() int { return 1 })
	WaitPersist()

	d2, err := NewDisk(dir, "rev-b")
	if err != nil {
		t.Fatal(err)
	}
	SetBackend(d2)
	c := New[int]("test-disk-ver").Persist(enc, dec)
	if got := c.Get("k", func() int { return 2 }); got != 2 {
		t.Fatalf("cross-version Get = %d, want fresh compute 2", got)
	}
}

// TestDiskPoisonedNeverPersisted: a panicking computation leaves no file
// behind, so a restart retries instead of reloading a poisoned entry.
func TestDiskPoisonedNeverPersisted(t *testing.T) {
	d := withDisk(t, "v1")
	enc, dec := jsonCodec[int]()
	c := New[int]("test-disk-poison").Persist(enc, dec)
	func() {
		defer func() { recover() }()
		c.Get("k", func() int { panic("boom") })
	}()
	WaitPersist()
	files := 0
	filepath.WalkDir(d.root, func(path string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			files++
		}
		return nil
	})
	if files != 0 {
		t.Errorf("poisoned computation left %d file(s) on disk, want 0", files)
	}
	if s := c.Stats(); s.DiskStores != 0 {
		t.Errorf("stats = %+v, want 0 diskStores", s)
	}
}

// TestDiskAtomicCommit: after a Store, the entry directory holds exactly
// the committed file — no temp residue — and its content round-trips.
func TestDiskAtomicCommit(t *testing.T) {
	d, err := NewDisk(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Store("c", "key", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Load("c", "key"); !ok || string(got) != "payload" {
		t.Fatalf("Load = %q, %v; want payload, true", got, ok)
	}
	filepath.WalkDir(d.root, func(path string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() && strings.HasPrefix(filepath.Base(path), ".tmp-") {
			t.Errorf("temp residue after commit: %s", path)
		}
		return nil
	})
	if _, ok := d.Load("c", "other"); ok {
		t.Error("Load of absent key reported ok")
	}
}

// TestGetCachedAndPut covers the daemon-facing entry points: GetCached
// never computes, Put installs and persists, and a Put repairs a
// poisoned slot.
func TestGetCachedAndPut(t *testing.T) {
	withDisk(t, "v1")
	enc, dec := jsonCodec[string]()
	c := New[string]("test-disk-put").Persist(enc, dec)

	if _, ok := c.GetCached("k"); ok {
		t.Fatal("GetCached on empty cache reported ok")
	}
	c.Put("k", "value")
	if v, ok := c.GetCached("k"); !ok || v != "value" {
		t.Fatalf("GetCached after Put = %q, %v", v, ok)
	}
	WaitPersist()

	// Fresh instance, same disk: GetCached answers from the tier.
	c2 := New[string]("test-disk-put").Persist(enc, dec)
	if v, ok := c2.GetCached("k"); !ok || v != "value" {
		t.Fatalf("GetCached across restart = %q, %v", v, ok)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Errorf("stats = %+v, want 1 diskHit", s)
	}

	// Poisoned slot reads as a miss and is repairable by Put.
	c3 := New[string]("test-put-repair")
	func() {
		defer func() { recover() }()
		c3.Get("p", func() string { panic("transient") })
	}()
	if _, ok := c3.GetCached("p"); ok {
		t.Fatal("GetCached returned a poisoned entry")
	}
	if s := c3.Stats(); s.Poisoned != 1 {
		t.Errorf("stats = %+v, want 1 poisoned read", s)
	}
	c3.Put("p", "repaired")
	if v, ok := c3.GetCached("p"); !ok || v != "repaired" {
		t.Fatalf("GetCached after repair = %q, %v", v, ok)
	}
}

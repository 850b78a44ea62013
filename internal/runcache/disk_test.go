package runcache

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestDiskVersionIsolation: the same inputs under a different code
// version address a different entry — stale results can never leak
// across builds.
func TestDiskVersionIsolation(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDisk(dir, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Store("test-disk-ver", "k", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if got, ok := d1.Load("test-disk-ver", "k"); !ok || string(got) != "1" {
		t.Fatalf("same-version Load = %q, %v; want 1, true", got, ok)
	}

	d2, err := NewDisk(dir, "rev-b")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d2.Load("test-disk-ver", "k"); ok {
		t.Fatalf("cross-version Load = %q, want a miss", got)
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

// TestDiskStoreSyncsDirectories: a Store fsyncs the entry's directory
// after the rename, and syncs every directory below the root into its
// parent, so a committed entry survives power loss. The entry still
// round-trips, overwrites included, and leaves no temp file; a failed
// directory sync fails the Store, and the next Store syncs again. A
// second Disk over the same root syncs directories the first created.
func TestDiskStoreSyncsDirectories(t *testing.T) {
	var synced []string
	var failSync error
	real := syncDir
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		if failSync != nil {
			return failSync
		}
		return real(dir)
	}
	t.Cleanup(func() { syncDir = real })

	root := t.TempDir()
	d, err := NewDisk(root, "v1")
	if err != nil {
		t.Fatal(err)
	}

	// The first Store creates root/c and root/c/<hh>: each is synced into
	// its parent, then the entry's directory is synced after the rename.
	if err := d.Store("c", "key", []byte("one")); err != nil {
		t.Fatal(err)
	}
	entryDir := filepath.Dir(d.addr("c", "key"))
	if want := []string{root, filepath.Join(root, "c"), entryDir}; !slices.Equal(synced, want) {
		t.Fatalf("first Store synced %q, want %q", synced, want)
	}

	// An overwrite into the existing directory syncs only that directory.
	synced = nil
	if err := d.Store("c", "key", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if want := []string{entryDir}; !slices.Equal(synced, want) {
		t.Fatalf("overwrite synced %q, want %q", synced, want)
	}
	if got, ok := d.Load("c", "key"); !ok || string(got) != "two" {
		t.Fatalf("Load = %q, %v; want two, true", got, ok)
	}
	filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp residue after commit: %s", path)
		}
		return nil
	})

	failSync = errors.New("injected fsync failure")
	if err := d.Store("c", "key", []byte("three")); !errors.Is(err, failSync) {
		t.Fatalf("Store with a failing directory sync = %v, want the sync's error", err)
	}

	// A Store whose sync of a new directory into root fails leaves that
	// directory unrecorded, so the next Store through it syncs it again.
	synced = nil
	if err := d.Store("c2", "key", []byte("four")); !errors.Is(err, failSync) {
		t.Fatalf("Store with a failing parent sync = %v, want the sync's error", err)
	}
	failSync = nil
	synced = nil
	if err := d.Store("c2", "key", []byte("four")); err != nil {
		t.Fatal(err)
	}
	entryDir2 := filepath.Dir(d.addr("c2", "key"))
	if want := []string{root, filepath.Join(root, "c2"), entryDir2}; !slices.Equal(synced, want) {
		t.Fatalf("Store after a failed sync synced %q, want %q", synced, want)
	}

	// Another Disk (another process) finds the directories made, but has
	// not seen them synced: its first Store syncs the chain itself.
	d2, err := NewDisk(root, "v1")
	if err != nil {
		t.Fatal(err)
	}
	synced = nil
	if err := d2.Store("c", "key", []byte("five")); err != nil {
		t.Fatal(err)
	}
	if want := []string{root, filepath.Join(root, "c"), entryDir}; !slices.Equal(synced, want) {
		t.Fatalf("second Disk's first Store synced %q, want %q", synced, want)
	}
}

// storeBehind persists a computed value the way xuiserve's job store
// does: only after Get returns (so a panicking computation never reaches
// the disk), on a goroutine of its own.
func storeBehind(d *Disk, wg *sync.WaitGroup, cache, key string, v int) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := d.Store(cache, key, []byte(strconv.Itoa(v))); err != nil {
			panic(err)
		}
	}()
}

// loadOr answers key from the disk tier, falling back to compute.
func loadOr(d *Disk, cache, key string, compute func() int) func() int {
	return func() int {
		if data, ok := d.Load(cache, key); ok {
			if v, err := strconv.Atoi(string(data)); err == nil {
				return v
			}
		}
		return compute()
	}
}

// TestDiskWriteBehindAndReload is the in-package restart simulation: a
// cache computes once and its result is written behind to a Disk; a
// second Disk and a fresh (empty) Cache over the same directory answer
// from disk without computing.
func TestDiskWriteBehindAndReload(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDisk(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	ctr1 := NewCounters("test-disk-a")
	c1 := New[int](ctr1)
	calls := 0
	compute := func() int { calls++; return 41 }
	if got := c1.Get("k", loadOr(d1, "test-disk-a", "k", compute)); got != 41 {
		t.Fatalf("Get = %d, want 41", got)
	}
	storeBehind(d1, &wg, "test-disk-a", "k", 41)
	wg.Wait()
	if s := ctr1.Stats(); s.Misses != 1 || calls != 1 {
		t.Fatalf("writer stats = %+v, calls = %d; want 1 miss, 1 compute", s, calls)
	}

	// "Restart": a fresh Disk and cache over the same directory.
	d2, err := NewDisk(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	ctr2 := NewCounters("test-disk-a")
	c2 := New[int](ctr2)
	recompute := func() int { calls++; return -1 }
	if got := c2.Get("k", loadOr(d2, "test-disk-a", "k", recompute)); got != 41 {
		t.Fatalf("reloaded Get = %d, want 41", got)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times across restart, want 1", calls)
	}
	// And the memory promotion holds: a second read is a plain hit.
	c2.Get("k", recompute)
	if s := ctr2.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("post-promotion stats = %+v, want 1 hit / 1 miss", s)
	}
}

// TestDiskPoisonedNeverPersisted: a panicking computation leaves no file
// behind, so a restart retries instead of reloading a poisoned entry;
// and a Store that fails to commit leaves neither an entry nor temp
// residue.
func TestDiskPoisonedNeverPersisted(t *testing.T) {
	d, err := NewDisk(t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	c := New[int](NewCounters("test-disk-poison"))
	func() {
		defer func() { recover() }()
		v := c.Get("k", func() int { panic("boom") })
		storeBehind(d, &wg, "test-disk-poison", "k", v)
	}()
	wg.Wait()
	if n := countFiles(t, d.root); n != 0 {
		t.Errorf("poisoned computation left %d file(s) on disk, want 0", n)
	}
	// A restarted process retries: the poison lived in memory only.
	retry := New[int](NewCounters("test-disk-poison"))
	if got := retry.Get("k", loadOr(d, "test-disk-poison", "k", func() int { return 7 })); got != 7 {
		t.Fatalf("retry after restart = %d, want a fresh compute 7", got)
	}

	// A commit whose rename fails (the entry's address is occupied by a
	// non-empty directory) reports the error and cleans up its temp file.
	blocked := d.addr("test-disk-poison", "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Store("test-disk-poison", "blocked", []byte("1")); err == nil {
		t.Fatal("Store onto an occupied address succeeded")
	}
	if _, ok := d.Load("test-disk-poison", "blocked"); ok {
		t.Error("Load after a failed Store reported ok")
	}
	if n := countFiles(t, d.root); n != 0 {
		t.Errorf("failed Store left %d file(s) on disk, want 0", n)
	}
}

func countFiles(t *testing.T, root string) int {
	t.Helper()
	files := 0
	filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			files++
		}
		return nil
	})
	return files
}

package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
)

// Disk is a persistent byte store: one file per entry under a root
// directory, content-addressed by SHA-256 of (code version, cache name,
// key). Safe for concurrent use, by several values and processes over
// one directory. Because every Tier-1/Tier-2 run is byte-deterministic in
// its key (TestDeterministicFingerprint, TestReportFingerprint), an
// entry written by one process is a valid answer in every later process
// built from the same code — the version component retires the whole
// tier the moment the code changes, with no invalidation protocol.
//
// Commit protocol: Store writes to a hidden temp file in the final
// directory, fsyncs, closes, renames onto the final name, then fsyncs
// the directory, so the new name is on disk when Store returns. Each
// directory between the root and the entry is synced into its parent
// before the first Store through it returns, whoever created it. The
// root, which NewDisk creates, is not: a power cut that loses a freshly
// created root only empties the cache, and Load reads that as misses.
// Rename is atomic on POSIX filesystems, so a crash at any point leaves
// either the complete previous entry or no entry — never a torn one.
// Load therefore trusts any file it finds. Leftover temp files from
// crashed writers are invisible to Load (the addressing is by hash name)
// and harmless.
type Disk struct {
	root    string
	version string
	synced  sync.Map // directories below root whose names Store has synced
}

// NewDisk opens (creating if needed) a disk tier rooted at dir. version
// becomes part of every entry's address; use CodeVersion() unless the
// caller manages versioning itself. An empty version is pinned to
// "unversioned" so entries are never addressed by the bare inputs.
func NewDisk(dir, version string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if version == "" {
		version = "unversioned"
	}
	return &Disk{root: filepath.Clean(dir), version: version}, nil
}

// addr derives the entry file path: root/<cache>/<hh>/<hash>, where
// hash = SHA-256(version ‖ cache ‖ key) with NUL separators (so no
// concatenation of distinct inputs collides) and hh is a two-hex-digit
// fan-out directory keeping any one directory small.
func (d *Disk) addr(cache, key string) string {
	h := sha256.New()
	h.Write([]byte(d.version))
	h.Write([]byte{0})
	h.Write([]byte(cache))
	h.Write([]byte{0})
	h.Write([]byte(key))
	sum := hex.EncodeToString(h.Sum(nil))
	return filepath.Join(d.root, filepath.FromSlash(cache), sum[:2], sum)
}

// Load reads the committed entry for (cache, key); ok is false when the
// entry does not exist or cannot be read.
func (d *Disk) Load(cache, key string) ([]byte, bool) {
	data, err := os.ReadFile(d.addr(cache, key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Store commits data under (cache, key) via temp-file + fsync + atomic
// rename + directory fsync. Concurrent Stores for the same address are
// safe: each writes its own temp file and the last rename wins with
// identical content (keys are deterministic fingerprints, so racers
// carry the same bytes).
func (d *Disk) Store(cache, key string, data []byte) error {
	path := d.addr(cache, key)
	dir := filepath.Dir(path)
	if err := d.mkdirSynced(dir); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
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
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// mkdirSynced creates dir, a directory below the root, and any missing
// parents, and syncs each into its parent. A directory enters d.synced
// only once its sync has succeeded, so a Store never returns before its
// directory's name is durable: a directory that another Store or process
// created, or whose sync failed, is synced again here.
func (d *Disk) mkdirSynced(dir string) error {
	parent := filepath.Dir(dir)
	if dir == d.root || parent == dir {
		return nil
	}
	if _, ok := d.synced.Load(dir); ok {
		return nil
	}
	if err := d.mkdirSynced(parent); err != nil {
		return err
	}
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	if err := syncDir(parent); err != nil {
		return err
	}
	d.synced.Store(dir, struct{}{})
	return nil
}

// syncDir fsyncs a directory, making the names created in it durable.
// A variable so tests can see which directories a Store syncs.
var syncDir = func(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// codeVersion is computed once: entries must address consistently for
// the life of the process.
var codeVersion = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev == "" {
		return "dev"
	}
	if modified == "true" {
		return rev + "+dirty"
	}
	return rev
})

// CodeVersion identifies the code the process was built from, for the
// disk tier's content addressing: the VCS revision (suffixed "+dirty"
// for modified trees) when the build was stamped, else "dev". Builds
// without VCS stamps (go test, -buildvcs=off) all share "dev" — fine
// for development, where the cache directory is disposable; release
// daemons get automatic cross-version isolation.
func CodeVersion() string { return codeVersion() }

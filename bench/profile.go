package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// A CPU profile is a gzipped profile.proto message. The decoder below
// reads only what flat attribution needs: each sample's leaf location and
// CPU value, the innermost (first) inlined function of each location, the
// function names and the string table. That is how `go tool pprof -top`
// assigns flat time, without depending on the toolchain at run time.

// profileSelf adds a profile's flat CPU nanoseconds per function name
// into self.
func profileSelf(path string, self map[string]int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}

	var (
		strs       []string
		typeIdx    []uint64              // sample_type[i].type string index
		funcName   = map[uint64]uint64{} // function id → name string index
		leafFunc   = map[uint64]uint64{} // location id → innermost function id
		sampleLocs []uint64              // leaf location per sample
		sampleVals [][]uint64
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return pbFields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var locs, vals []uint64
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = pbRepeated(locs, v, b)
				case 2:
					vals = pbRepeated(vals, v, b)
				}
				return nil
			})
			if len(locs) > 0 {
				sampleLocs = append(sampleLocs, locs[0])
				sampleVals = append(sampleVals, vals)
			}
			return err
		case 4: // location
			var id, fn uint64
			seenLine := false
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil
					}
					seenLine = true
					return pbFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}

	cpu := len(typeIdx) - 1
	for i, t := range typeIdx {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	for i, loc := range sampleLocs {
		if cpu < 0 || cpu >= len(sampleVals[i]) {
			continue
		}
		name := "unknown"
		if s, ok := funcName[leafFunc[loc]]; ok && s < uint64(len(strs)) {
			name = strs[s]
		}
		self[name] += int64(sampleVals[i][cpu])
	}
	return nil
}

// pbFields walks one protobuf message, calling fn with each field number
// and either its varint/fixed value or its length-delimited bytes.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends a repeated varint field given either unpacked (one
// value) or packed (data holds the varints).
func pbRepeated(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		x, err := binary.ReadUvarint(r)
		if err != nil {
			break
		}
		dst = append(dst, x)
	}
	return dst
}

// funcPackage extracts the import path from a Go symbol name such as
// "xui/internal/sim.(*Simulator).Step" or "runtime.mallocgc". Type
// arguments are cut first, since they contain paths and dots of their own.
// Symbols without a package qualifier are the runtime's assembly helpers
// (aeshashbody, memeqbody, ...).
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if i := strings.IndexByte(name[slash+1:], '.'); i >= 0 {
		return name[:slash+1+i]
	}
	return "runtime"
}

// layerOf maps an import path to its profileLayers group.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "xui/internal/"); ok {
		for _, l := range profileLayers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "main":
		return "bench"
	// Checked before the runtime: this is the raw system-call path that
	// socket and file I/O go through.
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/poll" || pkg == "net" || pkg == "os":
		return "go.syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go.runtime"
	case pkg == "sync" || pkg == "internal/sync" || pkg == "sync/atomic":
		return "go.sync"
	case pkg == "encoding/json":
		return "go.encoding_json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "go.net_http"
	case strings.HasPrefix(pkg, "crypto/"):
		return "go.crypto"
	}
	return "other"
}

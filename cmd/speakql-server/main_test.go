package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"speakql/internal/grammar"
	"speakql/internal/structure"
)

// cachedConfig reads the grammar config an index cache file names in its
// header line.
func cachedConfig(t *testing.T, path string) grammar.GenConfig {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadBytes('\n')
	if err != nil {
		t.Fatalf("read header: %v", err)
	}
	var cfg grammar.GenConfig
	if err := json.Unmarshal(line, &cfg); err != nil {
		t.Fatalf("header %.40q: %v", line, err)
	}
	return cfg
}

// mustLoad runs loadOrBuildIndex and checks that it served an index of
// want structures.
func mustLoad(t *testing.T, path string, cfg grammar.GenConfig, want int) {
	t.Helper()
	ix, err := loadOrBuildIndex(path, cfg)
	if err != nil {
		t.Fatalf("loadOrBuildIndex: %v", err)
	}
	if ix.Total() != want {
		t.Fatalf("served %d structures, want %d", ix.Total(), want)
	}
}

// TestIndexCacheMismatch: a cache built for one grammar config is not
// served for another; the index is rebuilt for the config asked for, and
// the file now names that config and serves it on the next start.
func TestIndexCacheMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.bin")
	test := grammar.TestScale()
	other := test
	other.MaxTokens = 16
	nTest, err := grammar.Count(test)
	if err != nil {
		t.Fatal(err)
	}
	nOther, err := grammar.Count(other)
	if err != nil {
		t.Fatal(err)
	}
	if nTest == nOther {
		t.Fatalf("both configs hold %d structures: the test cannot tell them apart", nTest)
	}
	mustLoad(t, path, test, nTest)
	mustLoad(t, path, other, nOther)
	if got := cachedConfig(t, path); got != other {
		t.Fatalf("cache names %+v, want %+v", got, other)
	}
	mustLoad(t, path, other, nOther)
}

// TestIndexCacheCorrupt: a truncated cache (what a write killed midway
// used to leave), a headerless one in the bare trieindex format, and one
// whose index is in the retired version-2 format (every cache written
// before version 3) fail to load and are rebuilt and replaced instead of
// failing the server's start; the next load serves the rewritten file.
func TestIndexCacheCorrupt(t *testing.T) {
	cfg := grammar.TestScale()
	ix, err := structure.BuildIndex(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	header, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(path string) error{
		"version 2": func(path string) error {
			// The magic, then uvarint 2.
			return os.WriteFile(path, append(append(header, '\n'), "SPQLIX\x02"...), 0o644)
		},
		"truncated": func(path string) error {
			st, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, st.Size()/2)
		},
		"headerless": func(path string) error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			defer f.Close()
			return ix.Save(f)
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "index.bin")
			mustLoad(t, path, cfg, ix.Total())
			if err := corrupt(path); err != nil {
				t.Fatal(err)
			}
			if _, err := readIndexCache(path, cfg); err == nil {
				t.Fatal("corrupted cache loads")
			}
			mustLoad(t, path, cfg, ix.Total())
			if got := cachedConfig(t, path); got != cfg {
				t.Fatalf("rewritten cache names %+v, want %+v", got, cfg)
			}
			if _, err := readIndexCache(path, cfg); err != nil {
				t.Fatalf("rewritten cache does not load: %v", err)
			}
		})
	}
}

// TestIndexCacheWrite: a write leaves exactly the cache file in its
// directory, no temp file beside it, and a write that cannot happen still
// serves the built index.
func TestIndexCacheWrite(t *testing.T) {
	cfg := grammar.TestScale()
	n, err := grammar.Count(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mustLoad(t, filepath.Join(dir, "index.bin"), cfg, n)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "index.bin" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("cache directory holds %v, want only index.bin", names)
	}
	mustLoad(t, filepath.Join(dir, "missing", "index.bin"), cfg, n)
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

const goldenPath = "bench/golden.json"

// goldenEntry pins one family's simulated statistics at the golden seed:
// the first job seed's in full, and a digest over every job seed's.
type goldenEntry struct {
	First  runStats `json:"first"`
	Digest string   `json:"digest"`
	Jobs   int      `json:"jobs"`
}

// goldenFile is bench/golden.json. A change meant only to make the
// simulator faster must leave it untouched.
type goldenFile struct {
	Seed     int64                  `json:"seed"`
	Families map[string]goldenEntry `json:"families"`
}

func entryOf(refs []runStats) goldenEntry {
	h := sha256.New()
	for _, r := range refs {
		b, _ := json.Marshal(r)
		h.Write(b)
	}
	return goldenEntry{First: refs[0], Digest: hex.EncodeToString(h.Sum(nil)), Jobs: len(refs)}
}

func loadGolden(path string) (*goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// compare returns "" when refs are the family's golden statistics.
func (g *goldenFile) compare(family string, refs []runStats) string {
	want, ok := g.Families[family]
	if !ok {
		return fmt.Sprintf("no entry for %s", family)
	}
	if got := entryOf(refs); got != want {
		return fmt.Sprintf("%s: statistics %+v (digest %.12s over %d jobs), golden %+v (digest %.12s over %d jobs)",
			family, got.First, got.Digest, got.Jobs, want.First, want.Digest, want.Jobs)
	}
	return ""
}

// dirtyOutsideBench lists the Go sources and module files git reports as
// modified or untracked outside bench/. New golden statistics may only be
// recorded from a tree whose simulator is the committed one.
func dirtyOutsideBench() ([]string, error) {
	out, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return nil, fmt.Errorf("git status: %w", err)
	}
	var dirty []string
	for _, line := range strings.Split(string(out), "\n") {
		if len(line) < 4 {
			continue
		}
		path := line[3:]
		if _, to, ok := strings.Cut(path, " -> "); ok {
			path = to
		}
		path = strings.Trim(path, `"`)
		source := strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "/") ||
			path == "go.mod" || path == "go.sum"
		if source && !strings.HasPrefix(path, "bench/") {
			dirty = append(dirty, path)
		}
	}
	return dirty, nil
}

// updateGolden recomputes every family's statistics at seed and writes
// the golden file.
func updateGolden(seed int64) error {
	dirty, err := dirtyOutsideBench()
	if err != nil {
		return err
	}
	if len(dirty) > 0 {
		return fmt.Errorf("refusing to update golden statistics: the tree is dirty outside bench/ (%s)", strings.Join(dirty, ", "))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	g := goldenFile{Seed: seed, Families: map[string]goldenEntry{}}
	for _, f := range families() {
		in, err := newInstance(f, seed, dir)
		if err != nil {
			return err
		}
		refs, err := references(in, surfShard) // referenced on sim
		if err != nil {
			return err
		}
		g.Families[f.name] = entryOf(refs)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

package snapcover_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"awgsim/internal/lint/analysis"
	"awgsim/internal/lint/analyzers/snapcover"
	"awgsim/internal/lint/checker"
)

// snapSrc is a minimal machine with complete snapshot coverage: both
// mutable fields are captured by Snapshot and reinstated by Restore.
const snapSrc = `package snap

type Machine struct {
	cycles uint64
	tick   int
}

func (m *Machine) Step() {
	m.cycles++
	m.tick++
}

type Image struct {
	Cycles uint64
	Tick   int
}

func (m *Machine) Snapshot() Image {
	return Image{Cycles: m.cycles, Tick: m.tick}
}

func (m *Machine) Restore(im Image) {
	m.cycles = im.Cycles
	m.tick = im.Tick
}
`

// runSnapcover lints one source string as a temp-module package through the
// real driver path (checker.Run handles the ipsummary Requires and facts).
func runSnapcover(t *testing.T, src string) []checker.Finding {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"),
		[]byte("module x\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "snap"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap", "snap.go"),
		[]byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := checker.Run(dir, []string{"./snap"},
		[]*analysis.Analyzer{snapcover.Analyzer}, false)
	if err != nil {
		t.Fatalf("checker.Run: %v", err)
	}
	return findings
}

// TestMutationDeletedRestoreField is the analyzer's mutation test: the
// intact machine is clean, and deleting exactly one field reinstatement
// from Restore must produce exactly one snapcover finding naming that
// field. This is the failure mode the analyzer exists for — a field added
// to the machine (or dropped from Restore in a refactor) silently
// desyncing restored replays.
func TestMutationDeletedRestoreField(t *testing.T) {
	if findings := runSnapcover(t, snapSrc); len(findings) != 0 {
		t.Fatalf("intact machine should be clean, got: %v", findings)
	}

	mutated := strings.Replace(snapSrc, "\tm.tick = im.Tick\n", "", 1)
	if mutated == snapSrc {
		t.Fatal("mutation did not apply")
	}
	findings := runSnapcover(t, mutated)
	if len(findings) != 1 {
		t.Fatalf("mutated Restore: got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "snapcover" {
		t.Errorf("finding from %s, want snapcover", f.Analyzer)
	}
	if !strings.Contains(f.Message, "tick") {
		t.Errorf("finding does not name the dropped field: %s", f.Message)
	}
}

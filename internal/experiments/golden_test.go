package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/npaper_quick.golden from the current output")

// goldenPath holds the quick evaluation exactly as npaper -quick prints
// it, minus the experiments in wallClock.
var goldenPath = filepath.Join("testdata", "npaper_quick.golden")

// wallClock lists the experiments every row of which is host time, so
// no two runs render them alike.
var wallClock = map[string]bool{"T4": true, "F6": true}

// TestPaperGolden pins the simulated clock of the whole quick
// evaluation: every count, accuracy, energy and placement number the
// paper's tables print. The engine and backend equivalence tests only
// compare paths with each other, so a change that moves all of them at
// once (an encoder's draw order, collect's event order, what a counter
// counts) passes them and fails here. A change that means to move a
// paper number regenerates the file with
//
//	go test ./internal/experiments -run TestPaperGolden -update
//
// and says why.
func TestPaperGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range IDs() {
		if wallClock[id] {
			continue
		}
		r, err := Run(id, true)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(r.Render())
		b.WriteByte('\n')
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (create it with: go test ./internal/experiments -run TestPaperGolden -update)", err)
	}
	if got != string(want) {
		t.Fatalf("quick evaluation differs from %s (-want +got):\n%s", goldenPath, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines that differ position by position, up to a
// cap, with 1-based line numbers.
func lineDiff(want, got string) string {
	const maxLines = 40
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(w), len(g)) && shown < maxLines; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		fmt.Fprintf(&b, "%4d -%s\n     +%s\n", i+1, wl, gl)
		shown++
	}
	if shown == maxLines {
		b.WriteString("     ...\n")
	}
	return b.String()
}

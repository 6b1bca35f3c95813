package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const minimalSpec = `{
  "inputs": [{"name": "in", "n": 2, "type": 0, "delay": 1}],
  "populations": [{"name": "p", "n": 2, "threshold": 1}],
  "edges": [
    {"from": "in:0", "to": "p:0"},
    {"from": "p:0", "to": "p:1"}
  ],
  "outputs": ["p:1"],
  "schedule": [{"tick": 0, "line": "in:0"}],
  "ticks": 10
}`

func TestParseAndBuildMinimal(t *testing.T) {
	spec, err := ParseSpec([]byte(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built.Net.Neurons() != 2 || built.Net.InputLines() != 2 {
		t.Fatalf("net has %d neurons, %d lines", built.Net.Neurons(), built.Net.InputLines())
	}
	if len(built.OutputName) != 1 {
		t.Fatalf("outputs = %v", built.OutputName)
	}
	if _, ok := built.Lines["in:1"]; !ok {
		t.Fatal("line map incomplete")
	}
}

func TestSpecDefaults(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"populations":[{"name":"p","n":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Ticks != 50 {
		t.Fatalf("default ticks = %d", spec.Ticks)
	}
	if _, err := spec.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecRejections(t *testing.T) {
	cases := map[string]string{
		"no populations":    `{}`,
		"unknown field":     `{"populations":[{"name":"p","n":1}],"bogus":1}`,
		"bad reset":         `{"populations":[{"name":"p","n":1,"reset":"wat"}]}`,
		"dup population":    `{"populations":[{"name":"p","n":1},{"name":"p","n":1}]}`,
		"zero-size pop":     `{"populations":[{"name":"p","n":0}]}`,
		"too many weights":  `{"populations":[{"name":"p","n":1,"weights":[1,2,3,4,5]}]}`,
		"edge to unknown":   `{"populations":[{"name":"p","n":1}],"edges":[{"from":"p:0","to":"q:0"}]}`,
		"edge from unknown": `{"populations":[{"name":"p","n":1}],"edges":[{"from":"x:0","to":"p:0"}]}`,
		"edge bad index":    `{"populations":[{"name":"p","n":1}],"edges":[{"from":"p:5","to":"p:0"}]}`,
		"bad output ref":    `{"populations":[{"name":"p","n":1}],"outputs":["p:9"]}`,
		"bad schedule line": `{"populations":[{"name":"p","n":1}],"schedule":[{"tick":0,"line":"in:0"}]}`,
		"bad placer":        `{"populations":[{"name":"p","n":1}],"placer":"wat"}`,
	}
	for name, js := range cases {
		spec, err := ParseSpec([]byte(js))
		if err != nil {
			continue // rejected at parse time: fine
		}
		if _, err := spec.Build(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestInjectionsAtRepeats(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
	  "inputs": [{"name":"in","n":1}],
	  "populations": [{"name":"p","n":1}],
	  "schedule": [{"tick": 2, "line": "in:0", "repeat": 2, "every": 3}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]int32{"in:0": 0}
	want := map[int64]int{2: 1, 5: 1, 8: 1}
	for tick := int64(0); tick < 12; tick++ {
		got := len(spec.InjectionsAt(tick, lines))
		if got != want[tick] {
			t.Fatalf("tick %d: %d injections, want %d", tick, got, want[tick])
		}
	}
}

func TestRunPulseSpecEndToEnd(t *testing.T) {
	// The shipped example spec must execute cleanly under every engine;
	// the clock-driven baseline is a chip-level oracle, not an engine.
	path := "../../examples/specs/pulse.json"
	if _, err := os.Stat(path); err != nil {
		t.Skip("example spec not present")
	}
	for _, eng := range []string{"event", "parallel"} {
		if err := run(path, eng, 2, 0, false, "", 1, "", "", 1); err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
	}
	err := run(path, "dense", 2, 0, false, "", 1, "", "", 1)
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("-engine dense: error %v, want unknown engine", err)
	}
}

func TestRunPulseSpecTiled(t *testing.T) {
	// The same spec served across a 1x1 chip tile (always divides) must
	// run cleanly and report zero inter-chip traffic.
	path := "../../examples/specs/pulse.json"
	if _, err := os.Stat(path); err != nil {
		t.Skip("example spec not present")
	}
	if err := run(path, "event", 1, 0, false, "1x1", 1, "", "", 1); err != nil {
		t.Fatalf("tiled run: %v", err)
	}
	if err := run(path, "event", 1, 0, false, "wat", 1, "", "", 1); err == nil {
		t.Fatal("invalid -chips accepted")
	}
}

func TestParseChips(t *testing.T) {
	if w, h, err := parseChips("2x3"); err != nil || w != 2 || h != 3 {
		t.Fatalf("parseChips(2x3) = %d,%d,%v", w, h, err)
	}
	for _, bad := range []string{"", "2", "0x2", "2x", "ax2", "2x-1", "2x2x4", "2x2junk"} {
		if _, _, err := parseChips(bad); err == nil {
			t.Errorf("parseChips(%q) accepted", bad)
		}
	}
}

func TestSplitRef(t *testing.T) {
	if _, _, err := splitRef("noindex"); err == nil {
		t.Error("missing colon accepted")
	}
	if _, _, err := splitRef("a:b"); err == nil {
		t.Error("non-numeric index accepted")
	}
	name, idx, err := splitRef("bank:12")
	if err != nil || name != "bank" || idx != 12 {
		t.Errorf("splitRef = (%q,%d,%v)", name, idx, err)
	}
}

// TestRunTiledBoundarySpec drives the -chips/-boundary path end to end:
// a four-core relay chain on a 4x2 grid served across a 2x1 chip tile,
// recompiled boundary-aware (λ=4), tiling-blind (λ=0), and with a tile
// that does not divide the grid (must be rejected).
func TestRunTiledBoundarySpec(t *testing.T) {
	var edges strings.Builder
	for i := 0; i < 256; i++ {
		fmt.Fprintf(&edges, `{"from":"in:%d","to":"a:%d"},`, i%4, i)
		fmt.Fprintf(&edges, `{"from":"a:%d","to":"b:%d"},`, i, i)
		fmt.Fprintf(&edges, `{"from":"b:%d","to":"c:%d"},`, i, i)
		fmt.Fprintf(&edges, `{"from":"c:%d","to":"d:%d"},`, i, i)
	}
	spec := fmt.Sprintf(`{
	  "grid": {"width": 4, "height": 2},
	  "inputs": [{"name": "in", "n": 4, "type": 0, "delay": 1}],
	  "populations": [
	    {"name": "a", "n": 256, "threshold": 1},
	    {"name": "b", "n": 256, "threshold": 1},
	    {"name": "c", "n": 256, "threshold": 1},
	    {"name": "d", "n": 256, "threshold": 1}
	  ],
	  "edges": [%s],
	  "outputs": ["d:0"],
	  "schedule": [{"tick": 0, "line": "in:0", "repeat": 3}],
	  "ticks": 8
	}`, strings.TrimSuffix(edges.String(), ","))
	path := filepath.Join(t.TempDir(), "chain.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "event", 1, 0, false, "2x1", 4, "", "", 1); err != nil {
		t.Fatalf("boundary-aware tiled run: %v", err)
	}
	if err := run(path, "event", 1, 0, false, "2x1", 0, "", "", 1); err != nil {
		t.Fatalf("tiling-blind tiled run: %v", err)
	}
	if err := run(path, "event", 1, 0, false, "3x2", 1, "", "", 1); err == nil {
		t.Fatal("tile not dividing the grid accepted")
	}
}

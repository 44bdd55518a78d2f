package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// buildTrajserve compiles the server under test into a temporary dir.
func buildTrajserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "trajserve")
	cmd := exec.Command("go", "build", "-o", bin, "trajsim/cmd/trajserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build trajserve: %v\n%s", err, out)
	}
	return bin
}

func runOnce(t *testing.T, bin, workload string, seed uint64, trace bool) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: seed, seconds: 1, trace: trace, out: t.TempDir(), bin: bin})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct {
		t.Errorf("%s trace=%v: checks failed: %v", workload, trace, res.violations)
	}
	return res
}

// TestSmoke runs every workload for about a second in both modes and
// checks that exactly the declared metrics come out, each with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs each workload")
	}
	endToEnd, perLayer := declared(t)
	bin := buildTrajserve(t)
	for _, w := range []string{"ingest", "history", "live"} {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res := runOnce(t, bin, w, 1, trace)
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: %s missing", w, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: %s in %q, declared %q", w, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: %s is not declared", w, trace, name)
				}
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w, trace, res.Failed, res.Attempted)
			}
		}
	}
}

// TestDeterminism checks that the quality metrics repeat at a fixed seed
// and that another seed runs unchanged.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	bin := buildTrajserve(t)
	keys := []string{"compression_ratio", "avg_err_m", "core.pts_per_segment"}
	a := runOnce(t, bin, "ingest", 7, true).all
	b := runOnce(t, bin, "ingest", 7, true).all
	for _, k := range keys {
		if a[k] != b[k] || a[k] == 0 {
			t.Errorf("%s: %v then %v at one seed", k, a[k], b[k])
		}
	}
	// Record framing is per append, and a group commit merges whatever of
	// one device is queued into one append, so stored bytes depend on how
	// far the sink writers fell behind. They stay within the metric's bound.
	if x, y := a["stored_bytes_per_pt"], b["stored_bytes_per_pt"]; math.Abs(x-y) > 0.05*x {
		t.Errorf("stored_bytes_per_pt: %v then %v at one seed", x, y)
	}
	c := runOnce(t, bin, "ingest", 8, true).all
	if c["compression_ratio"] == a["compression_ratio"] {
		t.Errorf("seeds 7 and 8 gave the same compression ratio %v", c["compression_ratio"])
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke runs check
// their output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

// lockdTimes are the per-layer times both lockd workloads measure.
var lockdTimes = []string{
	"client.acquire_p50_us", "client.release_p50_us", "lockserver.self_us", "session.self_us",
	"member.lock_p50_us", "member.lock_p99_us", "member.unlock_p50_us", "member.queue_wait_mean_us",
	"hlock.local_grant_ns", "hlock.handoff_ns",
}

// measuredTimes lists the per-layer times each workload's traced run
// measures, those of the layers the workload exercises. Every other
// per-layer time must read 0 there.
var measuredTimes = map[string][]string{
	"sim-airline-120":     {"hlock.local_grant_ns", "hlock.handoff_ns", "sim.cell_s", "sim.ns_per_event"},
	"lockd-local-durable": append([]string{"journal.append_us", "journal.fsync_p50_us"}, lockdTimes...),
	"lockd-migrate":       append([]string{"proto.encode_ns", "proto.decode_ns", "transport.hop_us"}, lockdTimes...),
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code runs %s", got, want)
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code reports %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := s.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", i, got.Name, got.Unit, got.Better, m.name, m.unit, m.better)
		}
		if _, ok := layerMoves[m.layer]; !ok {
			t.Errorf("layer %s of %s has no entry in the layer map", m.layer, m.name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, against a
// lockd built from this tree, and checks the result line carries exactly
// the metrics BENCHMARK.json declares, with a passing correctness check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs launch lockd clusters")
	}
	spec := loadSpec(t)
	lockd := filepath.Join(t.TempDir(), "lockd")
	build := exec.Command("go", "build", "-o", lockd, "./cmd/lockd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build lockd: %v\n%s", err, out)
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--lockd", lockd, "--workdir", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run failed its checks:\n%s", stdout.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if got.Unit != unit {
						t.Errorf("metric %s unit %q, want %q", name, got.Unit, unit)
					}
					// End-to-end metrics are never 0. A traced time is
					// positive on a layer the workload exercises and 0 on
					// the others.
					switch {
					case trace == "0" && got.Value <= 0:
						t.Errorf("metric %s = %v %s, want > 0", name, got.Value, unit)
					case trace == "1" && timeUnits[unit] && slices.Contains(measuredTimes[w], name) && got.Value <= 0:
						t.Errorf("metric %s = %v %s, want > 0 on %s", name, got.Value, unit, w)
					case trace == "1" && timeUnits[unit] && !slices.Contains(measuredTimes[w], name) && got.Value != 0:
						t.Errorf("metric %s = %v %s, want 0: %s does not exercise its layer", name, got.Value, unit, w)
					}
				}
			})
		}
	}
}

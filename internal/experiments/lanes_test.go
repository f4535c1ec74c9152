package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// perturbed decodes a lane report, applies one regression to it, and
// re-encodes it.
func perturbed[R any](t *testing.T, report []byte, mutate func(*R)) []byte {
	t.Helper()
	var rep R
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatal(err)
	}
	mutate(&rep)
	js, err := reportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestLanes is the artifact-drift gate for every deterministic lane:
// two runs produce identical bytes, those bytes are the committed
// artifact (so neither the code nor the file can move alone), the
// committed artifact passes the lane's own Compare against the fresh
// run, and Compare rejects a report with one field regressed.
func TestLanes(t *testing.T) {
	regress := map[string]func(*testing.T, []byte) []byte{
		"prefetch": func(t *testing.T, js []byte) []byte {
			return perturbed(t, js, func(r *PrefetchReport) { r.Rows[0].PrefetchCalls *= 2 })
		},
		"managers": func(t *testing.T, js []byte) []byte {
			return perturbed(t, js, func(r *ManagersReport) { r.Tree.EnterDepth++ })
		},
		"serving": func(t *testing.T, js []byte) []byte {
			return perturbed(t, js, func(r *ServingReport) { r.Rows[0].QPS *= 0.9 })
		},
		"placement": func(t *testing.T, js []byte) []byte {
			return perturbed(t, js, func(r *PlacementReport) { r.Workloads[0].Rows[0].DemandCalls *= 2 })
		},
		"failover": func(t *testing.T, js []byte) []byte {
			return perturbed(t, js, func(r *FailoverReport) { r.Crash.Calls++ })
		},
		"transport": func(t *testing.T, js []byte) []byte {
			return perturbed(t, js, func(r *TransportReport) { r.HeteroLinks[0].Bytes++ })
		},
	}
	for _, lane := range Lanes() {
		t.Run(lane.Name, func(t *testing.T) {
			text, fresh, err := lane.Run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if text == "" {
				t.Error("empty text rendering")
			}
			_, again, err := lane.Run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh, again) {
				t.Fatalf("two runs differ:\n%s\nvs\n%s", fresh, again)
			}
			committed, err := os.ReadFile(filepath.Join("..", "..", lane.Artifact))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh, committed) {
				t.Errorf("%s drifted from the code; regenerate it with make bench-compare if intended:\n%s",
					lane.Artifact, fresh)
			}
			if summary, err := lane.Compare(committed, fresh); err != nil {
				t.Errorf("fresh run fails the gate against %s: %v\n%s", lane.Artifact, err, summary)
			}
			mutate := regress[lane.Name]
			if mutate == nil {
				t.Fatal("no regression case for this lane")
			}
			if _, err := lane.Compare(committed, mutate(t, fresh)); err == nil {
				t.Error("gate passed a regressed report")
			}
		})
	}
}

package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"hotpotato/internal/spec"
)

// TestSpecEndpoint: GET /v1/spec is the discovery surface — every
// registered policy, workload and arrival process, with parameter schemas.
func TestSpecEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/spec")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/spec = %d", resp.StatusCode)
	}
	var got spec.CatalogInfo
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Policies) != len(spec.PolicyNames()) {
		t.Errorf("catalog lists %d policies, registry has %d", len(got.Policies), len(spec.PolicyNames()))
	}
	if len(got.Workloads) != len(spec.WorkloadNames()) {
		t.Errorf("catalog lists %d workloads, registry has %d", len(got.Workloads), len(spec.WorkloadNames()))
	}
	if len(got.Arrivals) != len(spec.ArrivalNames()) {
		t.Errorf("catalog lists %d arrivals, registry has %d", len(got.Arrivals), len(spec.ArrivalNames()))
	}
	var hotspot *spec.CatalogEntry
	for i := range got.Workloads {
		if got.Workloads[i].Name == "hotspot" {
			hotspot = &got.Workloads[i]
		}
	}
	if hotspot == nil {
		t.Fatal("catalog missing hotspot workload")
	}
	if len(hotspot.Params) == 0 || hotspot.Params[0].Doc == "" {
		t.Errorf("hotspot schema lacks documented parameters: %+v", hotspot)
	}
	var weighted *spec.CatalogEntry
	for i := range got.Policies {
		if got.Policies[i].Name == "weighted" {
			weighted = &got.Policies[i]
		}
	}
	if weighted == nil {
		t.Fatal("catalog missing weighted policy")
	}
	if len(weighted.Params) != 4 {
		t.Errorf("weighted policy schema has %d parameters, want 4 (age, defl, dist, restrict)", len(weighted.Params))
	}
	for _, p := range weighted.Params {
		if p.Doc == "" || p.Type != "float" {
			t.Errorf("weighted parameter %q lacks doc or float type: %+v", p.Name, p)
		}
	}
}

// TestJobStructuredWorkload: the object form of WorkloadSpec — parameters
// plus nested arrivals — is accepted by POST /v1/jobs and runs to done.
func TestJobStructuredWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{
		"side": 8, "seed": 4, "k": 10,
		"workload": {
			"name": "hotspot",
			"params": {"frac": "0.8"},
			"arrivals": {"process": "poisson", "params": {"rate": "0.05", "until": "40"}}
		}
	}`
	resp, st := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST structured workload = %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != JobDone {
		t.Fatalf("job ended %q (%s), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Delivered <= 10 {
		t.Errorf("arrivals generated nothing beyond the batch: %+v", final.Result)
	}
	// The status echoes the structured spec back.
	if final.Spec.Workload.Name != "hotspot" || final.Spec.Workload.Arrivals == nil {
		t.Errorf("status lost the workload structure: %+v", final.Spec.Workload)
	}
}

// TestJobFlagSyntaxWorkload: the bare-string form accepts the same flag
// syntax the CLIs parse, so one spec string works on every surface.
func TestJobFlagSyntaxWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, st := postJob(t, ts, `{"side": 8, "seed": 4, "k": 10, "workload": "hotspot:frac=0.8"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST flag-syntax workload = %d", resp.StatusCode)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != JobDone {
		t.Fatalf("job ended %q (%s), want done", final.State, final.Error)
	}
	if final.Spec.Workload.Params["frac"] != "0.8" {
		t.Errorf("flag syntax lost parameters: %+v", final.Spec.Workload)
	}
}

// TestJobShardedArrivals: arrivals ride the sharded engine too, and the
// run matches the single-engine run of the same spec bit for bit (on both,
// tie-breaks use per-(seed, step, node) streams and injection has the
// engine's own stream to itself).
func TestJobShardedArrivals(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const problem = `"side": 8, "seed": 6,
		"workload": {"name": "none", "arrivals": {"process": "adversary", "params": {"rho": "1.5", "sigma": "4", "until": "30"}}}`

	_, single := postJob(t, ts, `{`+problem+`}`)
	singleFinal := waitTerminal(t, ts, single.ID)
	if singleFinal.State != JobDone {
		t.Fatalf("single job ended %q (%s)", singleFinal.State, singleFinal.Error)
	}

	_, sharded := postJob(t, ts, `{`+problem+`, "shards": "2x2"}`)
	shardedFinal := waitTerminal(t, ts, sharded.ID)
	if shardedFinal.State != JobDone {
		t.Fatalf("sharded job ended %q (%s)", shardedFinal.State, shardedFinal.Error)
	}

	if singleFinal.FinalHash == "" || singleFinal.FinalHash != shardedFinal.FinalHash {
		t.Errorf("sharded arrivals diverged: hash %s != %s", shardedFinal.FinalHash, singleFinal.FinalHash)
	}
	if singleFinal.Result.Delivered != shardedFinal.Result.Delivered {
		t.Errorf("delivered %d != %d", shardedFinal.Result.Delivered, singleFinal.Result.Delivered)
	}
}

// TestJobWorkloadRejections: the admission-time validation catches the new
// failure modes with 400s.
func TestJobWorkloadRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"bad param value", `{"workload": "hotspot:frac=1.5"}`},
		{"unknown param", `{"workload": "uniform:x=1"}`},
		{"fixed-size with k", `{"workload": "full-load", "k": 10}`},
		{"unbounded arrivals", `{"workload": {"name": "none", "arrivals": "poisson:rate=0.1"}}`},
		{"arrivals on dist", `{"side": 8, "shards": "2x2", "dist_workers": 2,
			"workload": {"name": "none", "arrivals": "poisson:rate=0.1,until=10"}}`},
		{"bad arrival process", `{"workload": {"name": "none", "arrivals": "warp:rate=1"}}`},
	}
	for _, tc := range cases {
		resp, _ := postJob(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// Fixed-size without k is the valid spelling.
	resp, st := postJob(t, ts, `{"side": 6, "workload": "full-load"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("full-load without k = %d", resp.StatusCode)
	}
	if final := waitTerminal(t, ts, st.ID); final.State != JobDone {
		t.Errorf("full-load job ended %q (%s)", final.State, final.Error)
	}
}

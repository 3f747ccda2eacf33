package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// A cached answer must not pay for the closed-form model. Classifying a run
// evaluates analytic.ForModel — an O(N²) path enumeration, ~41 000
// allocations at quarc N 64 — and only the scheduler consumes the class, so a
// request the cache answers must stay at the few dozen allocations of decode,
// hash, job record and encode (46 measured, recorder and request included).
func TestCachedHitSkipsAnalyticModel(t *testing.T) {
	svc, _ := newTestServer(t, Config{Workers: 1})
	body, err := json.Marshal(RunRequest{N: 64, MsgLen: 16, Rate: 0.004,
		Warmup: 20, Measure: 100, Drain: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	post := func() JobJSON {
		req := httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		var job JobJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
			t.Fatal(err)
		}
		return job
	}
	if first := post(); first.Cached || first.State != StateDone {
		t.Fatalf("first submission: state %s cached %v, want a simulated done job", first.State, first.Cached)
	}
	if again := post(); !again.Cached {
		t.Fatal("second submission was not answered from the cache")
	}
	hit := testing.AllocsPerRun(50, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	if hit > 100 {
		t.Fatalf("cached hit allocates %.0f objects, want <= 100", hit)
	}
}

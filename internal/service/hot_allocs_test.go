package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// A cached answer must not pay for the closed-form model. Classifying a run
// evaluates analytic.ForModel — an O(N²) path enumeration, ~41 000
// allocations at quarc N 64 — and only the scheduler consumes the class, so a
// request the cache answers must stay at the few dozen allocations of decode,
// hash, job record and encode: 42 measured, recorder and request included
// (49–52 under -race, whose runtime drops sync.Pool entries at random). Each
// bound is the measured count plus 10 %.
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
	limit := 46.0
	if raceEnabled {
		limit = 57
	}
	if hit > limit {
		t.Fatalf("cached hit allocates %.0f objects, want <= %.0f", hit, limit)
	}
}

// A retained job record keeps only what a later GET /v1/jobs/{id} reads: the
// exact request body, the snapshot fields and the lifecycle pair of events.
// Two daemons serve the same 64 cold and 8,192 hot requests; one retains 4,096
// records, the other one, so the difference in live heap is 4,095 finished
// cached records and nothing else (both hold the same 64 cached payloads).
func TestJobRecordFootprint(t *testing.T) {
	const entries, cold, hot = 4096, 64, 8192
	bodies := make([][]byte, cold)
	for i := range bodies {
		b, err := json.Marshal(RunRequest{Topo: "quarc", N: 8, MsgLen: 4, Beta: 0.05, Rate: 0.005,
			Warmup: 200, Measure: 1000, Drain: 5000, Seed: 0x9e3779b97f4a7c15 + uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	live := func(storeEntries int) int64 {
		svc, err := New(Config{Workers: 1, StoreEntries: storeEntries})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		h := svc.Handler()
		for i := 0; i < cold+hot; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(bodies[i%cold])))
			if rec.Code != http.StatusOK {
				t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
			}
		}
		if got := counters(t, svc)["quarcd_cached_responses_total"]; got != hot {
			t.Fatalf("%v cached answers, want %d", got, hot)
		}
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		runtime.KeepAlive(svc)
		return int64(m.HeapAlloc)
	}
	one := live(1)
	full := live(entries)
	perJob := (full - one) / (entries - 1)
	t.Logf("a retained cached job record holds %d live heap bytes", perJob)
	if perJob > 850 {
		t.Errorf("a retained cached job record holds %d live heap bytes, want <= 850", perJob)
	}
}

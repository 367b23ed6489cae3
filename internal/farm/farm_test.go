package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"energysched/internal/experiments"
)

func testRequest() SweepRequest {
	return SweepRequest{
		Version:   RequestVersion,
		Name:      "engines/steady-state",
		Engine:    "batched",
		WarmupMS:  2000,
		MeasureMS: 2000,
		Seeds:     []uint64{3, 1, 4, 1, 5},
	}
}

// TestDaemonMatchesDirect is the service's equivalence contract: the
// NDJSON body of an HTTP sweep is byte-identical to the daemon-less
// direct execution of the same request, and a repeated sweep is served
// from the image cache without changing a byte.
func TestDaemonMatchesDirect(t *testing.T) {
	srv := NewServer(experiments.RunConfig{}, 0, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	if err := c.Health(); err != nil {
		t.Fatal(err)
	}

	var viaHTTP bytes.Buffer
	if err := c.Sweep(testRequest(), &viaHTTP); err != nil {
		t.Fatal(err)
	}

	var direct bytes.Buffer
	if err := NewServer(experiments.RunConfig{}, 0, nil).Direct(&direct, testRequest()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaHTTP.Bytes(), direct.Bytes()) {
		t.Errorf("daemon and direct streams differ:\n-- daemon --\n%s\n-- direct --\n%s", viaHTTP.String(), direct.String())
	}

	// Second submission: cache hit, identical body.
	body, _ := json.Marshal(testRequest())
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Esfarmd-Cache"); got != "hit" {
		t.Errorf("second sweep X-Esfarmd-Cache = %q, want \"hit\"", got)
	}
	var again bytes.Buffer
	if _, err := again.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaHTTP.Bytes(), again.Bytes()) {
		t.Error("cached sweep body differs from the first")
	}

	// The stream parses back: header, then rows in request-seed order.
	lines := strings.Split(strings.TrimSpace(viaHTTP.String()), "\n")
	if len(lines) != 1+len(testRequest().Seeds) {
		t.Fatalf("stream has %d lines, want %d", len(lines), 1+len(testRequest().Seeds))
	}
	var hdr Header
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Version != RequestVersion || hdr.Engine != "batched" || hdr.Seeds != 5 {
		t.Errorf("bad header: %+v", hdr)
	}
	for i, line := range lines[1:] {
		var row experiments.SeedRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if row.Seed != testRequest().Seeds[i] {
			t.Errorf("row %d has seed %d, want %d", i, row.Seed, testRequest().Seeds[i])
		}
	}
}

// TestSweepMatchesExperiments pins the daemon rows to the library
// sweep API: the streamed rows are exactly what
// RunConfig.SeedSweep would return.
func TestSweepMatchesExperiments(t *testing.T) {
	req := testRequest()
	var out bytes.Buffer
	if err := NewServer(experiments.RunConfig{}, 0, nil).Direct(&out, req); err != nil {
		t.Fatal(err)
	}
	spec, _, err := req.resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.RunConfig{}.SeedSweep(spec, req.WarmupMS, req.MeasureMS, req.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for i, w := range want {
		var row experiments.SeedRow
		if err := json.Unmarshal([]byte(lines[1+i]), &row); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(row, w) {
			t.Errorf("row %d: stream %+v != library %+v", i, row, w)
		}
	}
}

// TestRequestValidation exercises the schema's failure modes.
func TestRequestValidation(t *testing.T) {
	srv := NewServer(experiments.RunConfig{}, 0, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	bad := []string{
		`{`,             // malformed JSON
		`{"seeds":[1]}`, // neither name nor scenario
		`{"name":"no-such","seeds":[1],"measure_ms":1}`,                  // unknown scenario
		`{"name":"mixed","seeds":[1],"measure_ms":1,"version":99}`,       // future version
		`{"name":"mixed","seeds":[],"measure_ms":1}`,                     // empty seeds
		`{"name":"mixed","seeds":[1],"measure_ms":0}`,                    // no window
		`{"name":"mixed","seeds":[1],"measure_ms":1,"engine":"warp"}`,    // bad engine
		`{"name":"mixed","seeds":[1],"measure_ms":1,"bogus_field":true}`, // unknown field
	}
	for _, body := range bad {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("POST %s -> %d, want 400", body, code)
		}
	}
	if code := post(`{"name":"engines/steady-state","seeds":[1],"warmup_ms":100,"measure_ms":100}`); code != http.StatusOK {
		t.Errorf("valid request -> %d, want 200", code)
	}
}

// TestParseSeeds covers the CLI seed-list grammar.
func TestParseSeeds(t *testing.T) {
	got, err := ParseSeeds("1,5,10-13")
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 5, 10, 11, 12, 13}; !reflect.DeepEqual(got, want) {
		t.Errorf("ParseSeeds = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "x", "5-1", "1-"} {
		if _, err := ParseSeeds(bad); err == nil {
			t.Errorf("ParseSeeds(%q) should fail", bad)
		}
	}
}

// TestCacheEviction checks the LRU byte budget.
func TestCacheEviction(t *testing.T) {
	c := newImageCache(100)
	mk := func(key string, n int) []byte {
		data, _, err := c.get(key, func() ([]byte, error) { return make([]byte, n), nil })
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	mk("a", 40)
	mk("b", 40)
	if _, hit, _ := c.get("a", nil); !hit {
		t.Fatal("a should be cached")
	}
	mk("c", 40) // over budget: evicts LRU entry b
	if _, hit, _ := c.get("b", func() ([]byte, error) { return make([]byte, 40), nil }); hit {
		t.Error("b should have been evicted")
	}
	entries, size, _, _ := c.stats()
	if entries != 3 || size > 100 {
		// a, c, and the rebuilt b minus whichever eviction balanced it
		t.Logf("cache: %d entries, %d bytes", entries, size)
	}
	mk("huge", 200) // larger than the budget: pass-through, never cached
	if _, hit, _ := c.get("huge", func() ([]byte, error) { return nil, nil }); hit {
		t.Error("oversized image should not be cached")
	}
}

// lineLimitWriter accepts n writes (one NDJSON line each), then fails
// like a connection the client has closed.
type lineLimitWriter struct{ n int }

func (w *lineLimitWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errors.New("client went away")
	}
	w.n--
	return len(p), nil
}

// A sweep whose client goes away mid-stream must stop measuring: seeds
// that have not started are skipped, not run for nobody.
func TestStreamStopsWhenClientGoesAway(t *testing.T) {
	srv := NewServer(experiments.RunConfig{Jobs: 1}, 0, nil)
	req := testRequest()
	req.WarmupMS, req.MeasureMS = 500, 500
	req.Seeds = nil
	for i := uint64(1); i <= 64; i++ {
		req.Seeds = append(req.Seeds, i)
	}
	// The header and the first row go through; the second row fails.
	if err := srv.Direct(&lineLimitWriter{n: 2}, req); err == nil {
		t.Fatal("Direct reported no error for a failed writer")
	}
	if got := srv.measured.Load(); got >= int64(len(req.Seeds)) {
		t.Fatalf("measured %d of %d seeds after the client went away", got, len(req.Seeds))
	}
}

// TestParallelEngineAlias: a request naming the retired parallel
// engine is served on async and shares async's image-cache entry — the
// first of the two requests warms (miss), the second is a hit — and
// both stream the same bytes, with a header that names async.
func TestParallelEngineAlias(t *testing.T) {
	par, asy := testRequest(), testRequest()
	par.Engine, asy.Engine = "parallel", "async"
	pSpec, pEngine, err := par.resolve()
	if err != nil {
		t.Fatal(err)
	}
	aSpec, aEngine, err := asy.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if pk, ak := cacheKey(pSpec, pEngine, par.WarmupMS), cacheKey(aSpec, aEngine, asy.WarmupMS); pk != ak {
		t.Fatalf("cache keys differ: parallel %q, async %q", pk, ak)
	}

	ts := httptest.NewServer(NewServer(experiments.RunConfig{}, 0, nil).Handler())
	defer ts.Close()
	sweep := func(req SweepRequest) (string, []byte) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %q: status %d", req.Engine, resp.StatusCode)
		}
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("X-Esfarmd-Cache"), out.Bytes()
	}
	pCache, pBody := sweep(par)
	aCache, aBody := sweep(asy)
	if pCache != "miss" || aCache != "hit" {
		t.Errorf("X-Esfarmd-Cache parallel/async = %q/%q, want miss/hit", pCache, aCache)
	}
	if !bytes.Equal(pBody, aBody) {
		t.Errorf("parallel and async streams differ:\n-- parallel --\n%s\n-- async --\n%s", pBody, aBody)
	}
	var hdr Header
	if err := json.Unmarshal(bytes.SplitN(pBody, []byte("\n"), 2)[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Engine != "async" {
		t.Errorf("header engine = %q, want async", hdr.Engine)
	}
}

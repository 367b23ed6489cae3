package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"energysched/internal/experiments"
	"energysched/internal/farm"
	"energysched/internal/machine"
	"energysched/internal/scenario"
)

// The farm-sweeps traffic. Every request takes one of the request
// shapes the repository already defines (warm-up, measured window,
// seed-list length):
//
//   - the CI farm-smoke request: 2 s warm-up, 2 s measured, seeds 1-8;
//   - esbench's farm/warm-branch row: 5 s warm-up, 2 s measured, 8 seeds;
//   - esfarmd submit's defaults: 10 s warm-up, 10 s measured. Submit
//     has no default seed list, so these requests deal their lengths
//     from a shuffled deck of 1..farmMaxSeeds per scenario. A run deals
//     whole decks, so its total work is the same for every seed.
//
// Requests fall into groups of one image per scenario that share a
// shape and an engine setting; the sequence visits the groups in
// phases, cycling through all of them equally often. The cache budget
// holds one group but not two, so by construction every phase misses
// once per scenario (a first-seen key, or one evicted since the
// group's last phase) and hits on its other requests.
type farmShape struct {
	warmupMS, measureMS int64
	seeds               int // 0: dealt from a deck of 1..farmMaxSeeds
}

var (
	farmScenarios = []string{"engines/steady-state", "engines/idle-heavy", "large/256cpu/mostly-idle"}
	farmShapes    = []farmShape{{2000, 2000, 8}, {5000, 2000, 8}, {10000, 10000, 0}}
	farmEngines   = []string{"", "async"} // "" leaves the engine unset
)

const (
	farmMaxSeeds = 8
	// farmRequestsPerImage is how many requests a phase sends per
	// scenario: one miss and the rest hits.
	farmRequestsPerImage = 4
	// farmPhasesPerSecond scales the sequence with --seconds.
	farmPhasesPerSecond = 4
	// farmMinPhases gives the hit first-row p90 at least ten samples
	// beyond it on the shortest run (9 hits a phase).
	farmMinPhases = 12
)

// farmRequests generates the seeded request sequence: at least phases
// phases, rounded up to visit every group equally often.
func farmRequests(seed uint64, phases int) []farm.SweepRequest {
	r := rand.New(rand.NewPCG(seed, 0x6661726d))
	type group struct {
		shape  farmShape
		engine string
	}
	var groups []group
	for _, sh := range farmShapes {
		for _, e := range farmEngines {
			groups = append(groups, group{sh, e})
		}
	}
	r.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	decks := map[string][]int{}
	deal := func(name string) int {
		if len(decks[name]) == 0 {
			d := make([]int, farmMaxSeeds)
			for i := range d {
				d[i] = i + 1
			}
			r.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
			decks[name] = d
		}
		n := decks[name][0]
		decks[name] = decks[name][1:]
		return n
	}
	phases = (phases + len(groups) - 1) / len(groups) * len(groups)
	var out []farm.SweepRequest
	for p := 0; p < phases; p++ {
		g := groups[p%len(groups)]
		var phase []farm.SweepRequest
		for _, name := range farmScenarios {
			for k := 0; k < farmRequestsPerImage; k++ {
				n := g.shape.seeds
				if n == 0 {
					n = deal(name)
				}
				// Each request draws its own seeds, so a run's cost
				// averages over many seeds rather than a few.
				seeds := make([]uint64, n)
				b := r.Uint64N(1 << 32)
				for i := range seeds {
					seeds[i] = b + uint64(i)
				}
				phase = append(phase, farm.SweepRequest{Name: name, Engine: g.engine,
					WarmupMS: g.shape.warmupMS, MeasureMS: g.shape.measureMS, Seeds: seeds})
			}
		}
		r.Shuffle(len(phase), func(i, j int) { phase[i], phase[j] = phase[j], phase[i] })
		out = append(out, phase...)
	}
	return out
}

// farmCacheBudget is 1.5 groups' worth of image bytes, sized from
// images of freshly built machines (warm-up grows them only slightly),
// so the hit/miss pattern holds whatever an image's encoding costs.
// Sizing the cache is part of starting the server, and so of set-up.
func farmCacheBudget() (int64, error) {
	var largest int64
	for _, e := range farmEngines {
		engine := defaultEngine()
		if e != "" {
			var err error
			if engine, err = machine.ParseEngine(e); err != nil {
				return 0, err
			}
		}
		var group int64
		for _, name := range farmScenarios {
			spec, err := scenario.Named(name)
			if err != nil {
				return 0, err
			}
			m, err := spec.Build(engine, nil)
			if err != nil {
				return 0, err
			}
			img, err := m.Checkpoint()
			if err != nil {
				return 0, err
			}
			group += int64(len(img))
		}
		largest = max(largest, group)
	}
	return largest * 3 / 2, nil
}

// farmServer is an esfarmd handler served on a loopback port.
type farmServer struct {
	url  string
	srv  *http.Server
	done chan error
}

func startFarm(s *farm.Server) (*farmServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fs := &farmServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: s.Handler()}, done: make(chan error, 1)}
	go func() { fs.done <- fs.srv.Serve(ln) }()
	return fs, nil
}

// stop shuts the server down and waits for Serve to return.
func (fs *farmServer) stop() error {
	if err := fs.srv.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := <-fs.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// waitHealthy polls /v1/healthz until it answers "ok".
func waitHealthy(c *http.Client, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/v1/healthz")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && string(body) == "ok\n" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("farm server at %s not healthy: %v", url, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// farmReply is what the client saw of one request.
type farmReply struct {
	status int
	cache  string
	body   []byte
	// Offsets from the send: the NDJSON header line, and each row.
	header time.Duration
	rows   []time.Duration
}

// send posts one sweep and reads the NDJSON stream line by line.
func send(c *http.Client, url string, body []byte) (farmReply, error) {
	t0 := time.Now()
	resp, err := c.Post(url+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return farmReply{}, err
	}
	defer resp.Body.Close()
	rep := farmReply{status: resp.StatusCode, cache: resp.Header.Get("X-Esfarmd-Cache")}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			at := time.Since(t0)
			if len(rep.body) == 0 {
				rep.header = at
			} else {
				rep.rows = append(rep.rows, at)
			}
			rep.body = append(rep.body, line...)
		}
		if err == io.EOF {
			return rep, nil
		}
		if err != nil {
			return rep, err
		}
	}
}

// runFarm is the farm-sweeps workload: one closed-loop client sends
// the seeded sequence to the esfarmd handler on loopback, each request
// after the previous response ends.
func runFarm(cfg config, tr *tracer) (*report, error) {
	return serveFarm(cfg.seed, farmRequests(cfg.seed, max(cfg.seconds*farmPhasesPerSecond, farmMinPhases)), tr)
}

// serveFarm sends reqs, in order, to a farm server on loopback and
// checks every response; seed drives the traced replay's sampling.
func serveFarm(seed uint64, reqs []farm.SweepRequest, tr *tracer) (*report, error) {
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		var err error
		if bodies[i], err = json.Marshal(reqs[i]); err != nil {
			return nil, err
		}
	}
	rc := experiments.RunConfig{Jobs: runtime.NumCPU(), Engine: defaultEngine()}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	rep := newReport("")

	// Set-up: size the cache, start the server, and wait until
	// /v1/healthz answers.
	var fs *farmServer
	setup, err := repeatSetup(false, func() error {
		budget, err := farmCacheBudget()
		if err != nil {
			return fmt.Errorf("cache budget: %w", err)
		}
		if fs, err = startFarm(farm.NewServer(rc, budget, nil)); err != nil {
			return err
		}
		if err := waitHealthy(client, fs.url); err != nil {
			fs.stop()
			return err
		}
		return nil
	}, func() error {
		client.CloseIdleConnections()
		return fs.stop()
	})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	mt, err := newMeter(false)
	if err != nil {
		return nil, err
	}
	defer mt.close()
	w := startWindow()
	replies := make([]farmReply, len(reqs))
	sendErrs := make([]error, len(reqs))
	for i := range reqs {
		tok := tr.begin("window", "req-"+strconv.Itoa(i), "farm.request")
		mt.start()
		replies[i], sendErrs[i] = send(client, fs.url, bodies[i])
		mt.stop()
		tr.end(tok)
	}
	err = w.stop(rep, mt, 1)
	client.CloseIdleConnections()
	if serr := fs.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	wall := mt.wall.Seconds()

	var hitFirst, missFirst, headers, gaps []float64
	var rows int
	var simCPUMS float64
	cpus := map[string]int{} // logical CPUs per scenario name
	for i, r := range replies {
		if sendErrs[i] != nil || len(r.rows) == 0 {
			continue
		}
		f := ms(r.rows[0])
		headers = append(headers, ms(r.header))
		for j := 1; j < len(r.rows); j++ {
			gaps = append(gaps, ms(r.rows[j]-r.rows[j-1]))
		}
		rows += len(r.rows)
		if _, ok := cpus[reqs[i].Name]; !ok {
			spec, err := scenario.Named(reqs[i].Name)
			if err != nil {
				return nil, err
			}
			cpus[reqs[i].Name] = spec.Topology.Layout().NumLogical()
		}
		simMS := float64(reqs[i].MeasureMS) * float64(len(r.rows))
		switch r.cache {
		case "hit":
			hitFirst = append(hitFirst, f)
		case "miss":
			missFirst = append(missFirst, f)
			simMS += float64(reqs[i].WarmupMS)
		}
		simCPUMS += simMS * float64(cpus[reqs[i].Name])
	}
	rep.layer["farm.cache_hits"] = float64(len(hitFirst))
	rep.layer["farm.cache_misses"] = float64(len(missFirst))
	if n := len(hitFirst) + len(missFirst); n > 0 {
		rep.layer["farm.hit_ratio"] = float64(len(hitFirst)) / float64(n)
	}
	rep.layer["farm.header_ms_p50"] = median(headers)
	rep.layer["farm.row_gap_ms_p50"] = median(gaps)
	rep.layer["farm.hit_first_row_ms_p50"] = median(hitFirst)
	rep.layer["farm.miss_first_row_ms_p50"] = median(missFirst)
	if rep.layer["farm.hit_first_row_ms_p90"], err = tailPercentile(hitFirst, 0.9); err != nil {
		return nil, fmt.Errorf("hit first-row latency: %w", err)
	}
	rep.layer["farm.rows_per_s"] = float64(rows) / wall
	rep.layer["sim_cpu_ms_per_s"] = simCPUMS / wall

	// Check: every body must equal Server.Direct's for the same request.
	ref := farm.NewServer(rc, 1<<30, nil)
	ok := make([]bool, len(reqs))
	rep.attempted = len(reqs)
	for i, r := range replies {
		var want bytes.Buffer
		if err := ref.Direct(&want, reqs[i]); err != nil {
			want.Reset() // nothing to match: the request fails below
		}
		switch {
		case sendErrs[i] != nil:
			rep.fail("request %d: %v", i, sendErrs[i])
		case r.status != http.StatusOK:
			rep.fail("request %d: HTTP %d: %s", i, r.status, bytes.TrimSpace(r.body))
		case hasErrorTrailer(r.body):
			rep.fail("request %d: error trailer %s", i, lastLine(r.body))
		case !bytes.Equal(r.body, want.Bytes()):
			rep.fail("request %d: body differs from Server.Direct", i)
		default:
			ok[i] = true
		}
		if rep.engine == "" && reqs[i].Engine == "" && ok[i] {
			var h farm.Header
			if err := json.Unmarshal(r.body[:bytes.IndexByte(r.body, '\n')+1], &h); err == nil {
				rep.engine = h.Engine
			}
		}
	}
	// Direct shares the server's warm-up, checkpoint, restore and
	// branch code, so a deterministic bug there passes the check above.
	// The first successful request of each image key is checked again
	// against SeedSweepRebuild, which builds and warms a machine per
	// seed and touches none of that code; the rows must be the same
	// bytes (TestSeedSweepPlansAgree).
	checked := map[string]bool{}
	for i, req := range reqs {
		if !ok[i] || checked[imageKey(req)] {
			continue
		}
		checked[imageKey(req)] = true
		want, err := rebuildBody(rc, req)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(replies[i].body, want) {
			rep.fail("request %d: body differs from SeedSweepRebuild", i)
			ok[i] = false
		}
	}
	if tr != nil {
		if err := replayFarm(seed, reqs, replies, ok, rc, tr, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func lastLine(body []byte) []byte {
	body = bytes.TrimRight(body, "\n")
	return body[bytes.LastIndexByte(body, '\n')+1:]
}

func hasErrorTrailer(body []byte) bool {
	var e farm.ErrorLine
	return json.Unmarshal(lastLine(body), &e) == nil && e.Error != ""
}

// imageKey names the warm image a request needs, as the server's
// cache does: scenario, engine setting, warm-up.
func imageKey(req farm.SweepRequest) string {
	return req.Name + "|" + req.Engine + "|" + strconv.FormatInt(req.WarmupMS, 10)
}

// requestSetup resolves a catalog request's scenario, and the engine
// it runs: an unset engine means batched (farm.SweepRequest).
func requestSetup(rc experiments.RunConfig, req farm.SweepRequest) (scenario.Spec, experiments.RunConfig, error) {
	spec, err := scenario.Named(req.Name)
	if err != nil {
		return spec, rc, err
	}
	rc.Engine = machine.EngineBatched
	if req.Engine != "" {
		rc.Engine, err = machine.ParseEngine(req.Engine)
	}
	return spec, rc, err
}

// rebuildBody is the NDJSON body a request should get, computed by
// rebuilding and warming the machine for every seed.
func rebuildBody(rc experiments.RunConfig, req farm.SweepRequest) ([]byte, error) {
	spec, rc, err := requestSetup(rc, req)
	if err != nil {
		return nil, err
	}
	rows, err := rc.SeedSweepRebuild(spec, req.WarmupMS, req.MeasureMS, req.Seeds)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	if err := enc.Encode(farm.Header{
		Version:      farm.RequestVersion,
		ScenarioHash: spec.Hash(),
		Engine:       rc.Engine.String(),
		WarmupMS:     req.WarmupMS,
		MeasureMS:    req.MeasureMS,
		Seeds:        len(req.Seeds),
	}); err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := enc.Encode(row); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// replayFarm gives the traced run its farm layer timings. The server
// makes its layer calls inside the handler, out of the benchmark's
// reach, so after the window the replay makes the same public calls,
// one at a time, for every request that succeeded (ok):
//
//   - on a request the server missed, RunConfig.WarmImage, as the
//     server does; and once per image key, a Checkpoint of a freshly
//     built and warmed machine, the checkpoint WarmImage ends with;
//   - on every request, machine.Restore of the image, as the server does;
//   - on one seeded seed of every request, Machine.Branch and
//     MeasureSeed, standing for the server's per-seed work.
//
// The replay runs serially, so its times are those of an unloaded
// server.
func replayFarm(seed uint64, reqs []farm.SweepRequest, replies []farmReply, ok []bool, rc experiments.RunConfig, tr *tracer, rep *report) error {
	r := rand.New(rand.NewPCG(seed, 0x7265706c))
	images := map[string][]byte{}
	checkpointed := map[string]bool{}
	var sizes []float64
	for i, req := range reqs {
		if !ok[i] {
			continue
		}
		id := "req-" + strconv.Itoa(i)
		key := imageKey(req)
		spec, rc, err := requestSetup(rc, req)
		if err != nil {
			return err
		}
		img, have := images[key]
		if replies[i].cache == "miss" || !have {
			tok := tr.begin("replay", id, "experiments.warm_image")
			img, err = rc.WarmImage(spec, req.WarmupMS)
			tr.end(tok)
			if err != nil {
				return err
			}
			images[key] = img
			sizes = append(sizes, float64(len(img))/1e3)
		}
		if !checkpointed[key] {
			checkpointed[key] = true
			m, err := spec.Build(rc.Engine, nil)
			if err != nil {
				return err
			}
			m.Run(req.WarmupMS)
			tok := tr.begin("replay", id, "machine.checkpoint")
			_, err = m.Checkpoint()
			tr.end(tok)
			if err != nil {
				return err
			}
		}
		tok := tr.begin("replay", id, "machine.restore")
		tmpl, err := machine.Restore(img, nil)
		tr.end(tok)
		if err != nil {
			return err
		}
		tok = tr.begin("replay", id, "machine.branch")
		b, err := tmpl.Branch(nil)
		tr.end(tok)
		if err != nil {
			return err
		}
		tok = tr.begin("replay", id, "experiments.measure_seed")
		experiments.MeasureSeed(b, req.Seeds[r.IntN(len(req.Seeds))], req.MeasureMS)
		tr.end(tok)
	}
	rep.layer["machine.image_kb"] = median(sizes)
	rep.layer["experiments.warm_image_ms"] = median(tr.durations("replay", "experiments.warm_image"))
	rep.layer["machine.restore_ms"] = median(tr.durations("replay", "machine.restore"))
	rep.layer["machine.checkpoint_ms"] = median(tr.durations("replay", "machine.checkpoint"))
	rep.layer["machine.branch_ms"] = median(tr.durations("replay", "machine.branch"))
	rep.layer["experiments.measure_seed_ms"] = median(tr.durations("replay", "experiments.measure_seed"))
	return nil
}

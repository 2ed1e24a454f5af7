package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/confhash"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vasm"
	"repro/internal/workloads"
)

// serveEnv is one round's in-process tarserved: the server with its
// default memory store behind httptest, a client with one keep-alive
// connection per closed-loop client, and the direct in-process reference
// artifacts the served results are checked against.
type serveEnv struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	refs   map[string][]byte // request key -> directly computed artifact

	mu   sync.Mutex
	arts map[string][]byte     // request key -> first artifact served this round
	keys map[string]mixRequest // confhash -> request
}

// mixL2KB is the L2 size of every serve-mix cell. Each stored result keeps
// its whole chip reachable, so the default 16 MB L2 would hold about 6 MB
// per fresh confhash; 1 MB keeps a round's footprint small.
const mixL2KB = 1024

func submitRequest(r mixRequest) *serve.SubmitRequest {
	return &serve.SubmitRequest{
		Bench: r.Bench, Config: "T", Scale: "test",
		Knobs: map[string]float64{"phys_vregs": float64(r.PhysVRegs), "l2_kb": mixL2KB},
	}
}

// requestCell resolves a request the way the server does, returning its
// cell and content key.
func requestCell(r mixRequest) (cell, string, error) {
	sp, cfg, scale, err := serve.BuildSpec(submitRequest(r), serve.SpecDefaults{})
	if err != nil {
		return cell{}, "", err
	}
	c, err := newCell(sp.Bench, cfg)
	return c, confhash.Key(sp.Bench, scale.String(), cfg), err
}

// directArtifact runs one request's cell in-process, outside the server,
// and encodes it as the server would.
func directArtifact(r mixRequest) ([]byte, error) {
	c, key, err := requestCell(r)
	if err != nil {
		return nil, err
	}
	res, err := c.b.RunOpt(c.cfg, workloads.Test, workloads.RunOpts{})
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.EncodeResult(key, res))
}

// referenceRequests picks the first fresh request of each bench: the cells
// checked against a direct in-process run.
func referenceRequests(list []mixRequest) []mixRequest {
	seen := map[string]bool{}
	var out []mixRequest
	for _, r := range list {
		if r.Fresh && !seen[r.Bench] {
			seen[r.Bench] = true
			out = append(out, r)
		}
	}
	return out
}

func newServeEnv(list []mixRequest) (*serveEnv, error) {
	e := &serveEnv{refs: map[string][]byte{}, arts: map[string][]byte{}, keys: map[string]mixRequest{}}
	for _, r := range referenceRequests(list) {
		raw, err := directArtifact(r)
		if err != nil {
			return nil, fmt.Errorf("reference run %s: %w", r.key(), err)
		}
		e.refs[r.key()] = raw
	}
	e.srv = serve.New(serve.Options{Workers: mixWorkers})
	e.ts = httptest.NewServer(e.srv.Handler())
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     mixClients,
		MaxIdleConnsPerHost: mixClients,
	}}
	// Open the connections before timing starts.
	var wg sync.WaitGroup
	errs := make([]error, mixClients)
	for i := 0; i < mixClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.get("/healthz")
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.ts.Close()
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.srv.Drain(ctx) // every job has completed; nothing can be in flight
}

func (e *serveEnv) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// jobSample is one request's client-side timing.
type jobSample struct {
	hit                         bool
	total, submit, wait, result time.Duration
}

// job runs one request through the public API: POST /v1/jobs, a long-poll
// on ?wait= unless the submission already finished, then GET the result.
func (e *serveEnv) job(r mixRequest, reqID string, t *tracer) (jobSample, error) {
	var s jobSample
	root := t.start("serve.job", 0, reqID)
	defer root.end()
	t0 := time.Now()

	body, err := json.Marshal(submitRequest(r))
	if err != nil {
		return s, err
	}
	sp := t.start("serve.submit", root.id(), reqID)
	resp, err := e.client.Post(e.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		sp.end()
		return s, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return s, fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}
	s.hit = st.CacheHit
	t1 := time.Now()
	s.submit = t1.Sub(t0)

	if st.State != serve.StateDone && st.State != serve.StateFailed {
		sp := t.start("serve.wait", root.id(), reqID)
		raw, err := e.get("/v1/jobs/" + st.ID + "?wait=60s")
		sp.end()
		if err != nil {
			return s, err
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return s, fmt.Errorf("wait: %w", err)
		}
	}
	t2 := time.Now()
	s.wait = t2.Sub(t1)
	if st.State != serve.StateDone {
		return s, fmt.Errorf("job %s ended in state %q", st.ID, st.State)
	}

	sp = t.start("serve.result", root.id(), reqID)
	art, err := e.get("/v1/jobs/" + st.ID + "/result")
	sp.end()
	if err != nil {
		return s, err
	}
	t3 := time.Now()
	s.result, s.total = t3.Sub(t2), t3.Sub(t0)
	return s, e.checkArtifact(r, st.Key, art)
}

// checkArtifact compares a served artifact with the round's first one for
// the same request and, for a reference cell, with the direct run.
func (e *serveEnv) checkArtifact(r mixRequest, key string, art []byte) error {
	e.mu.Lock()
	first, seen := e.arts[r.key()]
	if !seen {
		e.arts[r.key()] = art
		e.keys[key] = r
	}
	e.mu.Unlock()
	if seen {
		if err := serve.CompareArtifacts(first, art); err != nil {
			return fmt.Errorf("%s: repeat fetch differs: %w", r.key(), err)
		}
		return nil
	}
	if ref, ok := e.refs[r.key()]; ok {
		if err := serve.CompareArtifacts(ref, art); err != nil {
			return fmt.Errorf("%s: served artifact differs from the direct run: %w", r.key(), err)
		}
	}
	return nil
}

// scrape reads the server's /metrics counters.
func (e *serveEnv) scrape() (map[string]float64, error) {
	raw, err := e.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// roundResult is one serve-mix round.
type roundResult struct {
	pass    passStats
	samples []jobSample
	metrics map[string]float64
}

// round drives the request list through the server with mixClients
// closed-loop clients: each takes the next request only after its previous
// one has completed.
func (e *serveEnv) round(list []mixRequest, out *outcome, t *tracer) []jobSample {
	var next atomic.Int64
	samples := make([]jobSample, len(list))
	failed := make([]error, len(list))
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(list) {
					return
				}
				samples[i], failed[i] = e.job(list[i], "req-"+strconv.Itoa(i), t)
			}
		}()
	}
	wg.Wait()
	var ok []jobSample
	for i, err := range failed {
		out.attempted++
		if err != nil {
			out.fail("request %d (%s): %v", i, list[i].key(), err)
			continue
		}
		ok = append(ok, samples[i])
	}
	return ok
}

// runServeMix is the serve-mix workload. Each round starts a fresh
// in-process server (the set-up) and drives the seeded request list
// through it; the rounds repeat for --seconds.
func runServeMix(o *options, tr *tracer) (*outcome, error) {
	out := newOutcome()
	list := genMix(serveMix, o.seed)
	fresh := 0
	for _, r := range list {
		if r.Fresh {
			fresh++
		}
	}
	fmt.Printf("# serve-mix: %d requests per round, %d fresh confhashes, %d repeats, %d clients, %d workers\n",
		len(list), fresh, len(list)-fresh, mixClients, mixWorkers)

	var setups []float64
	var plain, traced []roundResult
	var lastEnvStats []*stats.Stats
	hc := &hostClock{}
	err := repeat(o, tr, func(withTrace bool) (time.Duration, error) {
		var t *tracer
		h := hc
		if withTrace {
			t, h = tr, nil
		}
		h.probe(0) // the host's speed as the round starts
		var setup passStats
		var e *serveEnv
		err := h.run(&setup, func() error {
			var err error
			e, err = newServeEnv(list)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		defer e.close()
		if !withTrace {
			setup.speed = h.speed()
			setups = append(setups, setup.ref(setup.wall))
		}

		var rr roundResult
		rr.pass.liveHeap, err = measure(tr, withTrace, func() error {
			return h.run(&rr.pass, func() error {
				rr.samples = e.round(list, out, t)
				return nil
			})
		})
		if err != nil {
			return 0, err
		}
		rr.pass.speed = h.speed()
		if rr.metrics, err = e.scrape(); err != nil {
			return 0, err
		}
		m := rr.metrics
		rr.pass.cycles, rr.pass.jobs = uint64(m["tarserved_sim_cycles_total"]), len(list)
		// Every fresh confhash simulates exactly once; repeats read the
		// store or join the run in flight.
		if got := int(m["tarserved_sims_started_total"]); got != fresh {
			out.attempted++
			out.fail("round started %d simulations for %d fresh confhashes", got, fresh)
		}
		if shed := m["tarserved_shed_queue_full_total"] + m["tarserved_shed_deadline_total"] + m["tarserved_poison_shed_total"]; shed > 0 {
			out.attempted++
			out.fail("round shed %.0f jobs", shed)
		}
		if withTrace {
			traced = append(traced, rr)
			probeStore(out, e)
			lastEnvStats = e.storedStats()
		} else {
			plain = append(plain, rr)
		}
		return rr.pass.wall, nil
	})
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = median(setups)
	passMetrics(out, passesOf(plain), passesOf(traced))
	latencyMetrics(out, plain)
	if tr != nil {
		serveLayerMetrics(out, traced)
		if err := probeSnapshot(out, tr); err != nil {
			return nil, err
		}
		var cells []cell
		for _, r := range referenceRequests(list) {
			c, _, err := requestCell(r)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
		if err := decompose(out, tr, cells, workloads.Test); err != nil {
			return nil, err
		}
		modelCounts(out, lastEnvStats)
		for k, v := range tr.shares() {
			out.layer[k] = v
		}
	}
	return out, nil
}

func passesOf(rs []roundResult) []passStats {
	var ps []passStats
	for _, r := range rs {
		ps = append(ps, r.pass)
	}
	return ps
}

// latencyMetrics pools the untraced rounds' request latencies into the
// cold (simulated or joined) and hit (answered from the store) percentiles.
// A percentile with fewer than ten samples beyond it is reported as 0 and
// flagged.
func latencyMetrics(out *outcome, rounds []roundResult) {
	var cold, hit []float64
	for _, r := range rounds {
		for _, s := range r.samples {
			if s.hit {
				hit = append(hit, float64(s.total.Microseconds()))
			} else {
				cold = append(cold, s.total.Seconds()*1e3)
			}
		}
	}
	for _, p := range []struct {
		name string
		vs   []float64
		q    float64
	}{
		{"serve.cold_p50_ms", cold, 0.5}, {"serve.cold_p90_ms", cold, 0.9},
		{"serve.hit_p50_us", hit, 0.5}, {"serve.hit_p90_us", hit, 0.9},
	} {
		v, ok := percentile(p.vs, p.q)
		if !ok {
			fmt.Printf("# %s: fewer than 10 of %d samples beyond it; not reported\n", p.name, len(p.vs))
			v = 0
		}
		out.layer[p.name] = v
		fmt.Printf("# %s %.4f (n=%d)\n", p.name, v, len(p.vs))
	}
	out.layer["serve.cold_n"] = float64(len(cold))
	out.layer["serve.hit_n"] = float64(len(hit))
}

// serveLayerMetrics reports the traced rounds' per-stage medians and the
// server's own counters, averaged per round.
func serveLayerMetrics(out *outcome, rounds []roundResult) {
	var submit, wait, result []float64
	m := map[string]float64{}
	for _, r := range rounds {
		for _, s := range r.samples {
			submit = append(submit, float64(s.submit.Nanoseconds())/1e3)
			result = append(result, float64(s.result.Nanoseconds())/1e3)
			if !s.hit {
				wait = append(wait, s.wait.Seconds()*1e3)
			}
		}
		for k, v := range r.metrics {
			m[k] += v / float64(len(rounds))
		}
	}
	out.layer["serve.submit_us"] = median(submit)
	out.layer["serve.wait_ms"] = median(wait)
	out.layer["serve.result_us"] = median(result)
	hits, misses := m["tarserved_cache_hits_total"], m["tarserved_cache_misses_total"]
	out.layer["serve.cache_hits"] = hits
	out.layer["serve.cache_misses"] = misses
	out.layer["serve.dedup_joined"] = m["tarserved_dedup_joined_total"]
	out.layer["serve.snapshot_hits"] = m["tarserved_snapshot_hits_total"]
	out.layer["serve.sims_started"] = m["tarserved_sims_started_total"]
	out.layer["serve.shed"] = m["tarserved_shed_queue_full_total"] + m["tarserved_shed_deadline_total"] + m["tarserved_poison_shed_total"]
	if hits+misses > 0 {
		out.layer["serve.hit_ratio"] = hits / (hits + misses)
	}
}

// storedStats returns the counters of every result the round stored.
func (e *serveEnv) storedStats() []*stats.Stats {
	var out []*stats.Stats
	for key := range e.keys {
		if res, ok := e.srv.Store().Get(key); ok {
			out = append(out, res.Stats)
		}
	}
	return out
}

// probeStore times the store, encoding and content-key calls a cache hit
// makes, once per stored result of a traced round.
func probeStore(out *outcome, e *serveEnv) {
	var get, put, enc, key []float64
	st := e.srv.Store()
	for k, r := range e.keys {
		t0 := time.Now()
		res, ok := st.Get(k)
		get = append(get, float64(time.Since(t0).Nanoseconds())/1e3)
		if !ok {
			continue
		}
		t0 = time.Now()
		st.Put(k, res)
		put = append(put, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		if _, err := json.Marshal(serve.EncodeResult(k, res)); err != nil {
			out.fail("encoding %s: %v", r.key(), err)
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/1e3)
		c, _, err := requestCell(r)
		if err != nil {
			out.fail("building %s: %v", r.key(), err)
			continue
		}
		t0 = time.Now()
		confhash.Key(res.Bench, workloads.Test.String(), c.cfg)
		key = append(key, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	out.layer["store.get_us"] = median(get)
	out.layer["store.put_us"] = median(put)
	out.layer["serve.encode_us"] = median(enc)
	out.layer["confhash.key_us"] = median(key)
}

// probeSnapshot times a save and a restore of the warm-up snapshot the
// mix's rndcopy variants share.
func probeSnapshot(out *outcome, tr *tracer) error {
	c, _, err := requestCell(mixRequest{Bench: "rndcopy", PhysVRegs: serveMix.vregLo})
	if err != nil {
		return err
	}
	setup := c.b.Setup(workloads.Test, true)
	var save, restore []float64
	var size int
	for i := 0; i < 5; i++ {
		res, err := sim.Execute(sim.RunSpec{Config: c.cfg, Kernel: func(b *vasm.Builder) { setup(b); b.Halt() }})
		if err != nil {
			return fmt.Errorf("snapshot probe warm-up: %w", err)
		}
		sp := tr.start("sim.Chip.SaveState", 0, "snapshot")
		t0 := time.Now()
		blob, err := res.Chip.SaveState(res.Machine)
		save = append(save, time.Since(t0).Seconds()*1e3)
		sp.end()
		if err != nil {
			return fmt.Errorf("snapshot probe save: %w", err)
		}
		size = len(blob)
		sp = tr.start("sim.RestoreChip", 0, "snapshot")
		t0 = time.Now()
		_, _, err = sim.RestoreChip(c.cfg, blob)
		restore = append(restore, time.Since(t0).Seconds()*1e3)
		sp.end()
		if err != nil {
			return fmt.Errorf("snapshot probe restore: %w", err)
		}
	}
	out.layer["snapshot.save_ms"] = median(save)
	out.layer["snapshot.restore_ms"] = median(restore)
	out.layer["snapshot.bytes"] = float64(size)
	return nil
}

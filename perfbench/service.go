package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lotuseater/internal/cluster"
	"lotuseater/internal/scenario"
	"lotuseater/internal/serve"
	"lotuseater/internal/simrng"
)

// readKinds are the classes of GET /results the reader issues: a hot key
// answered from the coordinator's memory cache, a cold key answered from
// its disk store (the memory cache is smaller than the working set), a
// revalidation answered 304 Not Modified, and a read through a worker,
// which fetches the artifact from the coordinator's shared store.
var readKinds = []string{"mem", "disk", "remote", "notmod"}

// readMix weights the reader's draw over readKinds. The weights put the
// median read inside the disk class rather than on a boundary between two
// classes, where it would jump between runs.
var readMix = []float64{0.30, 0.40, 0.20, 0.10}

// jobRequest is the body of POST /experiments.
type jobRequest struct {
	Scenario string   `json:"scenario"`
	Set      []string `json:"set,omitempty"`
	Seed     uint64   `json:"seed"`
}

// serviceJobs are the writer's job shapes, one per substrate, visited in
// turn: each is 5 sweep points x 4 replicates = 20 cluster units. The
// gossip job is the cluster bench's 48-node x/trade-gossip shape; the
// others keep their cross-product registry shapes (scrip with a shorter
// horizon) so that compute per job stays small and HTTP, cache, store and
// unit dispatch carry a large share of each job's time.
var serviceJobs = map[string]jobRequest{
	"gossip": {Scenario: "x/trade-gossip", Set: []string{"nodes=48", "rounds=30", "replicates=4"}},
	"swarm":  {Scenario: "x/ideal-swarm", Set: []string{"replicates=4"}},
	"token":  {Scenario: "x/trade-token", Set: []string{"replicates=4"}},
	"scrip":  {Scenario: "x/trade-scrip", Set: []string{"rounds=600", "replicates=4"}},
	"coding": {Scenario: "x/ideal-coding", Set: []string{"replicates=4"}},
}

// prefillJob is the shape of the keys pre-filled into the store at set-up:
// one small artifact per seed.
var prefillJob = jobRequest{Scenario: "x/trade-gossip", Set: []string{"nodes=16", "rounds=30", "replicates=1", "sweep.points=2"}}

const (
	// coordCacheBytes holds about a quarter of the pre-filled keys, so
	// cold keys are read from disk.
	coordCacheBytes = 16 << 10
	// workerCacheBytes keeps only the newest artifact on a worker, so
	// reads through it go to the coordinator's store.
	workerCacheBytes = 1
	// serviceSetups is how many times a run sets up the cluster; setup_s
	// is the median and the last one serves the timed phase.
	serviceSetups = 5
	// pollEvery is the writer's job-status polling interval.
	pollEvery = 2 * time.Millisecond
)

// benchClient issues the benchmark's own requests. Its timeout, like the
// job deadline in submitAndWait, keeps a hung server from hanging the run.
var benchClient = &http.Client{Timeout: 30 * time.Second}

// svc is one in-process cluster: a coordinator with a disk store and two
// loopback workers, plus the keys pre-filled into the store.
type svc struct {
	coord      *cluster.Coordinator
	workers    []*cluster.Worker
	servers    []*http.Server
	serving    sync.WaitGroup
	coordURL   string
	workerURLs []string
	storeDir   string
	keys       []string          // pre-filled keys, hot ones first
	etags      map[string]string // key -> ETag header value
}

// runService sets the cluster up serviceSetups times, then runs two
// closed-loop clients against the last one for the timed phase: the writer
// submits fresh (spec, seed) jobs and polls each until done, and the reader
// issues a seeded mix of GET /results. After the timed phase, untimed,
// every fresh artifact must be byte-identical to scenario.Run of the same
// (spec, seed). A traced run also installs a timing RoundTripper on the
// coordinator's and workers' HTTP clients and takes /metrics counter deltas
// around the timed phase.
func runService(p params, tr *tracer) outcome {
	out := outcome{}
	var currentJob atomic.Uint64
	var setups []float64
	var c *svc
	for i := 0; i < serviceSetups; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var err error
		c, err = startService(p, tr, &currentJob, i)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			out.fail("service setup: %v", err)
			if c != nil {
				c.close()
			}
			return out
		}
	}
	defer c.close()

	var before map[string]float64
	if tr != nil {
		var err error
		if before, err = c.scrape(); err != nil {
			out.fail("service: /metrics before the timed phase: %v", err)
		}
	}

	var busy busyMeter
	deadline := time.Now().Add(p.seconds)
	var w writer
	var r reader
	var wg sync.WaitGroup
	wg.Add(2)
	busy.start()
	go func() {
		defer wg.Done()
		w.run(c, p.seed, deadline, tr, &currentJob)
	}()
	go func() {
		defer wg.Done()
		r.run(c, p.seed, deadline, tr)
	}()
	wg.Wait()
	busy.stop()
	out.attempted += w.attempted + r.attempted
	out.problems = append(out.problems, w.problems...)
	out.problems = append(out.problems, r.problems...)

	out.e2e = map[string]float64{
		"setup_s":   median(setups),
		"result_ms": median(r.all),
	}
	var all []float64
	for _, s := range substrates {
		out.e2e["unit_ms."+s] = median(w.latency[s])
		all = append(all, w.latency[s]...)
	}
	out.primary = median(all)
	out.layer = zeroLayers()
	out.layer["sim.cpu_busy_frac"] = busy.frac()

	if tr != nil {
		after, err := c.scrape()
		if err != nil {
			out.fail("service: /metrics after the timed phase: %v", err)
		}
		delta := func(name string) float64 { return after[name] - before[name] }
		for _, k := range readKinds {
			out.layer["serve.read_ms."+k] = median(tr.durations("serve.read." + k))
		}
		out.layer["serve.submit_ms"] = median(tr.durations("serve.submit"))
		out.layer["serve.queue_ms"] = median(tr.durations("serve.queue"))
		for _, m := range []struct{ layer, series string }{
			{"serve.cache_hits", "lotus_cache_hits_total"},
			{"serve.cache_misses", "lotus_cache_misses_total"},
			{"serve.cache_evictions", "lotus_cache_evictions_total"},
			{"serve.store_hits", "lotus_store_hits_total"},
			{"serve.store_misses", "lotus_store_misses_total"},
			{"serve.store_gc_removed", "lotus_store_gc_removed_total"},
			{"cluster.unit_retries", "lotus_cluster_unit_retries_total"},
			{"cluster.unit_steals", "lotus_cluster_unit_steals_total"},
		} {
			out.layer[m.layer] = delta(m.series)
		}
		if lookups := delta("lotus_cache_hits_total") + delta("lotus_cache_misses_total"); lookups > 0 {
			out.layer["serve.mem_hit_frac"] = delta("lotus_cache_hits_total") / lookups
		}
		if len(w.jobs) > 0 {
			out.layer["cluster.units_per_job"] = delta("lotus_cluster_units_dispatched_total") / float64(len(w.jobs))
		}
		units := tr.durations("cluster.unit")
		out.layer["cluster.unit_rtt_ms.p50"] = quantile(units, 0.5)
		out.layer["cluster.unit_rtt_ms.p90"] = quantile(units, 0.9)
		out.layer["cluster.store_rtt_ms"] = median(tr.durations("cluster.store"))
	}

	encodes, lens := verifyJobs(c, w.jobs, tr, &out)
	if tr != nil {
		out.layer["metrics.encode_ms"] = median(encodes)
		out.layer["metrics.artifact_bytes"] = median(lens)
	}
	return out
}

// startService boots the coordinator (with a fresh disk store) and two
// workers on loopback ports, waits for both workers to register, and
// pre-fills the store through POST /experiments.
func startService(p params, tr *tracer, currentJob *atomic.Uint64, n int) (*svc, error) {
	c := &svc{etags: map[string]string{}}
	c.storeDir = filepath.Join(".bench_build", "service-store", fmt.Sprintf("%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(c.storeDir); err != nil {
		return nil, err
	}
	var client *http.Client
	if tr != nil {
		client = &http.Client{Transport: &timingTransport{base: http.DefaultTransport, tr: tr, job: currentJob}}
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Serve:        serve.Config{CacheBytes: coordCacheBytes, StoreDir: c.storeDir},
		StallTimeout: time.Minute,
		Client:       client,
	})
	if err != nil {
		return nil, err
	}
	c.coord = coord
	if c.coordURL, err = c.listen(coord); err != nil {
		return c, err
	}
	for i := 0; i < 2; i++ {
		wk, err := cluster.NewWorker(cluster.WorkerConfig{
			Serve:            serve.Config{Workers: 1, CacheBytes: workerCacheBytes},
			Coordinator:      c.coordURL,
			AnnounceInterval: time.Second,
			Client:           client,
		})
		if err != nil {
			return c, err
		}
		c.workers = append(c.workers, wk)
		url, err := c.listen(wk)
		if err != nil {
			return c, err
		}
		c.workerURLs = append(c.workerURLs, url)
		wk.Announce(url)
	}
	for deadline := time.Now().Add(10 * time.Second); len(coord.WorkerURLs()) < len(c.workers); {
		if time.Now().After(deadline) {
			return c, errors.New("workers never registered")
		}
		time.Sleep(time.Millisecond)
	}

	hc := benchClient
	base := simrng.New(p.seed).Child("service-prefill")
	for i := 0; i < p.sizes.prefill; i++ {
		req := prefillJob
		req.Seed = base.ChildN("key", i).Uint64()
		key, _, err := submitAndWait(hc, c.coordURL, req, nil, 0, 0)
		if err != nil {
			return c, fmt.Errorf("pre-fill %d: %w", i, err)
		}
		c.keys = append(c.keys, key)
	}
	// Learn every key's ETag, then touch the hot keys last so they are the
	// ones resident in the memory cache when the timed phase starts.
	for i := len(c.keys) - 1; i >= 0; i-- {
		body, etag, err := getResult(hc, c.coordURL, c.keys[i], "")
		if err != nil {
			return c, err
		}
		if err := checkETag(body, etag); err != nil {
			return c, fmt.Errorf("pre-fill %s: %w", c.keys[i], err)
		}
		c.etags[c.keys[i]] = etag
	}
	return c, nil
}

// listen serves h on an ephemeral loopback port.
func (c *svc) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the workers, the coordinator and every listener, waits for
// the serving goroutines to exit, and removes the store directory.
func (c *svc) close() {
	for _, wk := range c.workers {
		wk.Close()
	}
	for _, srv := range c.servers {
		srv.Close()
	}
	c.serving.Wait()
	if c.coord != nil {
		c.coord.Close()
	}
	os.RemoveAll(c.storeDir)
}

// scrape sums every counter of /metrics on the coordinator and both
// workers by series name (labels folded), failing on any line that does
// not parse as Prometheus text.
func (c *svc) scrape() (map[string]float64, error) {
	total := map[string]float64{}
	for _, base := range append([]string{c.coordURL}, c.workerURLs...) {
		resp, err := benchClient.Get(base + "/metrics")
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s/metrics: %d", base, resp.StatusCode)
		}
		if err := parseExposition(data, total); err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", base, err)
		}
	}
	return total, nil
}

// parseExposition adds each sample of a Prometheus text exposition to
// total under its metric name.
func parseExposition(data []byte, total map[string]float64) error {
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest := line, ""
		if j := strings.IndexByte(line, '{'); j >= 0 {
			k := strings.LastIndexByte(line, '}')
			if k < j {
				return fmt.Errorf("line %d: unbalanced labels: %q", i+1, line)
			}
			name, rest = line[:j], line[k+1:]
		} else if j := strings.IndexByte(line, ' '); j >= 0 {
			name, rest = line[:j], line[j:]
		}
		fields := strings.Fields(rest)
		if name == "" || len(fields) < 1 || len(fields) > 2 {
			return fmt.Errorf("line %d: not a sample: %q", i+1, line)
		}
		var v float64
		if _, err := fmt.Sscan(fields[0], &v); err != nil {
			return fmt.Errorf("line %d: value %q: %v", i+1, fields[0], err)
		}
		total[name] += v
	}
	return nil
}

// timingTransport times the cluster's own HTTP calls, from the request to
// the response body's close, as spans: unit posts to workers
// (cluster.unit), shared-store reads and writes (cluster.store) and
// announces (cluster.announce). Spans carry the trace of the job in flight.
type timingTransport struct {
	base http.RoundTripper
	tr   *tracer
	job  *atomic.Uint64
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	name := "cluster.other"
	switch path := r.URL.Path; {
	case path == "/cluster/run":
		name = "cluster.unit"
	case strings.HasPrefix(path, "/cluster/artifacts/"):
		name = "cluster.store"
	case path == "/cluster/join":
		name = "cluster.announce"
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.record(name, t.job.Load(), 0, start, time.Now())
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.tr.record(name, t.job.Load(), 0, start, time.Now())
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// freshJob is one job the writer submitted.
type freshJob struct {
	key string
	req jobRequest
}

// writer is the closed-loop job client.
type writer struct {
	latency   map[string][]float64 // ms, by substrate
	jobs      []freshJob
	attempted int
	problems  []string
}

func (w *writer) run(c *svc, seed uint64, deadline time.Time, tr *tracer, currentJob *atomic.Uint64) {
	w.latency = map[string][]float64{}
	hc := benchClient
	base := simrng.New(seed).Child("service-jobs")
	for i := 0; time.Now().Before(deadline); i++ {
		sub := substrates[i%len(substrates)]
		req := serviceJobs[sub]
		req.Seed = base.ChildN("job", i).Uint64()
		trace := uint64(i + 1)
		currentJob.Store(trace)
		root := tr.begin("service.job", trace, 0)
		w.attempted++
		t0 := time.Now()
		key, queued, err := submitAndWait(hc, c.coordURL, req, tr, trace, root.id())
		lat := time.Since(t0)
		root.end()
		if err == nil && !queued {
			err = errors.New("a fresh job was answered from the cache")
		}
		if err != nil {
			w.problems = append(w.problems, fmt.Sprintf("service job %d (%s): %v", i, sub, err))
			continue
		}
		w.latency[sub] = append(w.latency[sub], ms(lat))
		w.jobs = append(w.jobs, freshJob{key: key, req: req})
	}
}

// submitAndWait posts the job, then polls its status until done. It
// returns the job's key and whether it was queued (false = answered from
// the cache). Traced, it records the submit call and the queue wait (from
// the submit's reply to the first status that is no longer queued).
func submitAndWait(hc *http.Client, base string, req jobRequest, tr *tracer, trace, parent uint64) (string, bool, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return "", false, err
	}
	t0 := time.Now()
	resp, err := hc.Post(base+"/experiments", "application/json", bytes.NewReader(payload))
	if err != nil {
		return "", false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	submitted := time.Now()
	tr.record("serve.submit", trace, parent, t0, submitted)
	if err != nil {
		return "", false, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return "", false, fmt.Errorf("POST /experiments: %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		Key    string `json:"key"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return "", false, err
	}
	if sub.Cached {
		return sub.Key, false, nil
	}
	queuedUntil := time.Time{}
	for deadline := time.Now().Add(time.Minute); ; {
		st, err := jobStatus(hc, base, sub.Key)
		if err != nil {
			return sub.Key, true, err
		}
		if st.Status != "queued" && queuedUntil.IsZero() {
			queuedUntil = time.Now()
			tr.record("serve.queue", trace, parent, submitted, queuedUntil)
		}
		switch st.Status {
		case "done":
			return sub.Key, true, nil
		case "failed":
			return sub.Key, true, fmt.Errorf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			return sub.Key, true, fmt.Errorf("job %s never finished", sub.Key)
		}
		time.Sleep(pollEvery)
	}
}

type status struct {
	Status string `json:"status"`
	Error  string `json:"error"`
}

func jobStatus(hc *http.Client, base, key string) (status, error) {
	var st status
	resp, err := hc.Get(base + "/jobs/" + key)
	if err != nil {
		return st, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /jobs/%s: %d: %s", key, resp.StatusCode, data)
	}
	return st, json.Unmarshal(data, &st)
}

// getResult fetches GET /results/{key}; with inm set it revalidates and
// expects 304 with no body.
func getResult(hc *http.Client, base, key, inm string) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/results/"+key, nil)
	if err != nil {
		return nil, "", err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, "", err
	}
	etag := resp.Header.Get("ETag")
	want := http.StatusOK
	if inm != "" {
		want = http.StatusNotModified
	}
	if resp.StatusCode != want {
		return nil, "", fmt.Errorf("GET /results/%s: %d, want %d", key, resp.StatusCode, want)
	}
	if inm != "" && (len(body) != 0 || etag != inm) {
		return nil, "", fmt.Errorf("GET /results/%s: 304 with %d body bytes and ETag %s", key, len(body), etag)
	}
	return body, etag, nil
}

// checkETag reports whether the body hashes to the ETag it was served with.
func checkETag(body []byte, etag string) error {
	if want := `"` + digest(body) + `"`; etag != want {
		return fmt.Errorf("body hashes to %s, served with ETag %s", want, etag)
	}
	return nil
}

// reader is the closed-loop result client.
type reader struct {
	all       []float64 // ms, every read
	attempted int
	problems  []string
}

func (r *reader) run(c *svc, seed uint64, deadline time.Time, tr *tracer) {
	hc := benchClient
	rng := rand.New(rand.NewPCG(seed, 0x5e7a1c))
	hot, cold := c.keys[:min(len(c.keys), len(c.keys)/16+1)], c.keys[len(c.keys)/16+1:]
	if len(cold) == 0 {
		cold = hot
	}
	for i := 0; time.Now().Before(deadline); i++ {
		kind := pickKind(rng.Float64())
		base, key, inm := c.coordURL, "", ""
		switch kind {
		case "mem":
			key = hot[rng.IntN(len(hot))]
		case "disk":
			key = cold[rng.IntN(len(cold))]
		case "remote":
			key = cold[rng.IntN(len(cold))]
			base = c.workerURLs[0]
		case "notmod":
			key = c.keys[rng.IntN(len(c.keys))]
			inm = c.etags[key]
		}
		r.attempted++
		t0 := time.Now()
		body, etag, err := getResult(hc, base, key, inm)
		end := time.Now()
		tr.record("serve.read."+kind, uint64(i+1), 0, t0, end)
		if err == nil && inm == "" {
			if err = checkETag(body, etag); err == nil && etag != c.etags[key] {
				err = fmt.Errorf("ETag %s, pre-filled as %s", etag, c.etags[key])
			}
		}
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("service read %d (%s): %v", i, kind, err))
			continue
		}
		r.all = append(r.all, ms(end.Sub(t0)))
	}
}

func pickKind(u float64) string {
	for i, w := range readMix {
		if u < w {
			return readKinds[i]
		}
		u -= w
	}
	return readKinds[len(readKinds)-1]
}

// verifyJobs checks, after the timed phase, that every fresh artifact the
// cluster served is byte-identical to scenario.Run of the same (spec,
// seed) in this process. It returns the encode times (ms) and sizes of the
// local artifacts.
func verifyJobs(c *svc, jobs []freshJob, tr *tracer, out *outcome) (encodes, lens []float64) {
	hc := benchClient
	for _, j := range jobs {
		out.attempted++
		got, etag, err := getResult(hc, c.coordURL, j.key, "")
		if err == nil {
			err = checkETag(got, etag)
		}
		if err != nil {
			out.fail("service verify %s: %v", j.key, err)
			continue
		}
		spec, ok := scenario.Get(j.req.Scenario)
		if !ok {
			out.fail("service verify: %s is not in the registry", j.req.Scenario)
			continue
		}
		if err := spec.ApplySets(j.req.Set); err != nil {
			out.fail("service verify %s: %v", j.key, err)
			continue
		}
		a, err := scenario.Run(spec, j.req.Seed, scenario.RunOptions{})
		if err != nil {
			out.fail("service verify %s: local run: %v", j.key, err)
			continue
		}
		e0 := time.Now()
		want, err := a.CanonicalJSON()
		enc := time.Since(e0)
		tr.record("metrics.encode", 0, 0, e0, e0.Add(enc))
		if err != nil {
			out.fail("service verify %s: encoding: %v", j.key, err)
			continue
		}
		encodes, lens = append(encodes, ms(enc)), append(lens, float64(len(want)))
		if !bytes.Equal(got, want) {
			out.fail("service verify %s: cluster artifact (%d bytes) differs from scenario.Run (%d bytes)", j.key, len(got), len(want))
		}
	}
	return encodes, lens
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	heteropar "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/solstore"
)

// serveBases are the programs the daemon is warmed with; every edit
// perturbs one of them. Each is served on platform B under both
// scenarios.
var serveBases = []string{"mult_10", "fir_256", "iir_4"}

// The closed loop has one client, which sends its next request only
// after the previous reply, like a caller waiting for a plan. With two
// clients on the two-CPU reference machine, two edits profiling at once
// and the garbage collector contended for both CPUs, and edit latency
// swung between 70 and 137 ms from run to run; one client held it
// within 82–100 ms.

// serveWorkers is the daemon's solver pool, the reference machine's
// CPU count; set-up warms the base programs this many at a time.
const serveWorkers = 2

// hitsPerEdit is how many exact repeats each client sends between two
// edits. Repeats are cheap, so the stream needs many of them for a p99
// with ten samples beyond it.
const hitsPerEdit = 7

// serveEntry is one warmed base request.
type serveEntry struct {
	base     string
	src      string
	scenario heteropar.Scenario
	lits     [][2]int
	body     []byte
	resp     []byte
	eff      float64
	speedup  float64
}

// daemon is an in-process heteropard: the internal/serve handler behind
// a real HTTP listener on the loopback interface.
type daemon struct {
	srv   *serve.Server
	hs    *http.Server
	url   string
	reg   *obs.Registry
	store *solstore.Store
	done  chan struct{}
	cl    *http.Client

	stopOnce sync.Once
}

func startDaemon() (*daemon, error) {
	reg := obs.NewRegistry()
	st := solstore.New(solstore.Options{Metrics: reg})
	srv, err := serve.New(serve.Config{Workers: serveWorkers, Store: st, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String() + "/v1/parallelize",
		reg: reg, store: st, done: make(chan struct{}),
		cl: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveWorkers, DisableCompression: true}},
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return d, nil
}

// stop shuts the listener and the solver pool down and waits for both.
// Calls after the first do nothing.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		d.cl.CloseIdleConnections()
		_ = d.hs.Shutdown(ctx)
		<-d.done
		_ = d.srv.Drain(ctx)
	})
}

// post sends one request and returns the status, body and latency.
func (d *daemon) post(body []byte) (int, []byte, time.Duration, error) {
	t0 := now()
	resp, err := d.cl.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, since(t0), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, since(t0), err
}

func requestBody(name, src string, sc heteropar.Scenario) []byte {
	buf, _ := json.Marshal(serve.Request{
		Source:   src,
		Program:  name + ".c",
		Platform: json.RawMessage(`"B"`),
		Scenario: scenarioToken(sc),
	})
	return buf
}

// serveEntries builds the base requests with the float literals an edit
// may perturb.
func serveEntries() ([]*serveEntry, error) {
	var out []*serveEntry
	for _, name := range serveBases {
		src := bench.ByName(name).Source
		lits, err := safeLiterals(name, src)
		if err != nil {
			return nil, err
		}
		for _, sc := range []heteropar.Scenario{heteropar.Accelerator, heteropar.SlowerCores} {
			out = append(out, &serveEntry{base: name, src: src, scenario: sc, lits: lits, body: requestBody(name, src, sc)})
		}
	}
	return out, nil
}

// warm starts a daemon and solves every base request on it, with
// serveWorkers requests in flight. Each sender warms whole programs,
// so a program's second scenario finds the first one's region solves
// instead of waiting on them in flight.
func warm(entries []*serveEntry) (*daemon, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(entries))
	var wg sync.WaitGroup
	for c := 0; c < serveWorkers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, e := range entries {
				if (i/2)%serveWorkers == c {
					errs[i] = d.warmOne(e)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// warmOne solves one base request and records its reply.
func (d *daemon) warmOne(e *serveEntry) error {
	code, resp, _, err := d.post(e.body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", e.base, code, resp)
	}
	var res serve.Result
	if err := json.Unmarshal(resp, &res); err != nil {
		return err
	}
	e.resp, e.speedup, e.eff = resp, res.MeasuredSpeedup, res.MeasuredSpeedup/res.TheoreticalSpeedup
	return nil
}

// clientLog is what the closed-loop client saw.
type clientLog struct {
	hit, edit         []float64
	attempted, failed int
	hits, edits       int
	effs              []float64
	problems          []string
	// digest covers the kind, input and reply of the first ledgerPrefix
	// requests, which depend only on the seed; "" when fewer were sent.
	digest string
}

// ledgerPrefix is how many requests enter the work ledger.
const ledgerPrefix = 200

// closedLoop runs the client against d for the given time, and on until
// it has sent at least minHits repeats and minEdits edits, so that the
// percentiles it feeds have their samples however slow the machine is.
// Edits rotate over the base entries so every run holds the same mix;
// the seed picks the literal each edit perturbs and the earlier request
// each repeat re-sends.
func closedLoop(d *daemon, entries []*serveEntry, seed int64, length time.Duration, minHits, minEdits int) (*clientLog, time.Duration) {
	rng := rand.New(rand.NewSource(seed * 7919))
	log := &clientLog{}
	digest := sha256.New()
	type sent struct {
		body  []byte
		want  []byte
		entry *serveEntry
	}
	var history []sent
	for _, e := range entries {
		history = append(history, sent{e.body, e.resp, e})
	}
	start := now()
	for i := 0; since(start) < length || log.hits < minHits || log.edits < minEdits; i++ {
		var req sent
		kind := "hit"
		if i%(hitsPerEdit+1) == hitsPerEdit {
			n := i / (hitsPerEdit + 1)
			e := entries[n%len(entries)]
			lit := e.lits[rng.Intn(len(e.lits))]
			req = sent{requestBody(e.base, editSource(e.src, lit, n+1), e.scenario), e.resp, e}
			kind = "edit"
		} else {
			req = history[rng.Intn(len(history))]
		}
		code, resp, lat, err := d.post(req.body)
		log.attempted++
		if err != nil || code != http.StatusOK {
			log.failed++
			log.problems = append(log.problems, fmt.Sprintf("%s of %s: status %d, %v", kind, req.entry.base, code, err))
			continue
		}
		if !bytes.Equal(resp, req.want) {
			log.problems = append(log.problems, fmt.Sprintf("%s of %s: reply differs from the base plan's", kind, req.entry.base))
		}
		log.effs = append(log.effs, req.entry.eff)
		if kind == "edit" {
			log.edits++
			log.edit = append(log.edit, ms(lat))
			history = append(history, req)
		} else {
			log.hits++
			log.hit = append(log.hit, ms(lat))
		}
		if log.attempted <= ledgerPrefix {
			fmt.Fprintf(digest, "%s %s %d\n", kind, req.body, len(resp))
			digest.Write(resp)
			if log.attempted == ledgerPrefix {
				log.digest = fmt.Sprintf("%x", digest.Sum(nil))
			}
		}
	}
	return log, since(start)
}

// serveEdit runs the serve_edit workload.
func serveEdit(r *run) error {
	entries, err := serveEntries()
	if err != nil {
		return err
	}
	var d *daemon
	start := func() (func(), error) {
		var err error
		d, err = warm(entries)
		if err != nil {
			return nil, err
		}
		return d.stop, nil
	}
	if err := r.timeSetup(start); err != nil {
		return err
	}
	defer d.stop()

	// The untraced run reports medians of both classes; the traced run
	// reports the repeats' p99 and the edits' p90.
	minHits, minEdits := minSamples(0.5), minSamples(0.5)
	if r.trace {
		minHits, minEdits = minSamples(0.99), minSamples(0.90)
	}
	before := snapshot(d.reg, d.store)
	log, elapsed := closedLoop(d, entries, r.seed, r.seconds, minHits, minEdits)
	w := snapshot(d.reg, d.store).minus(before)
	// Every repeat is one outcome-cache hit and every edit one
	// outcome-cache miss in the shared store; the rest is region
	// traffic.
	w.StoreHits -= int64(log.hits)
	w.StoreMisses -= int64(log.edits)
	r.attempted += log.attempted
	r.failed += log.failed
	r.problems = append(r.problems, log.problems...)
	r.check(w.Solves == 0 && w.StoreMisses == 0,
		"timed phase solved %d ILPs and missed the region store %d times; every edit should reuse its base plan's solves", w.Solves, w.StoreMisses)
	if log.digest != "" {
		r.note("client", fmt.Sprintf("client0/first%d", ledgerPrefix), map[string]int64{"requests": ledgerPrefix}, map[string]string{"digest": log.digest})
	}
	ok := log.hits + log.edits
	if !r.trace {
		r.set("ops_per_s", "1/s", float64(ok)/elapsed.Seconds())
		r.setPercentile("cold_ms_p50", log.edit, 0.5)
		r.setPercentile("warm_ms_p50", log.hit, 0.5)
		r.set("efficiency_geomean", "ratio", geomean(log.effs))
		r.set("ok_share", "share", float64(ok)/float64(max(log.attempted, 1)))
		d.stop()
		return r.retimeSetup(start)
	}
	r.setPercentile("serve.hit_ms_p99", log.hit, 0.99)
	r.setPercentile("serve.edit_ms_p90", log.edit, 0.90)
	return serveTraced(r, d, entries)
}

// serveTraced measures, for fresh edits, the request latency against
// the library call on the same source and store, and replays each edit
// layer by layer.
func serveTraced(r *run, d *daemon, entries []*serveEntry) error {
	lr := &layerReport{}
	replicaReg := obs.NewRegistry()
	var total work
	var overhead []float64
	// Four edits per base request give the overhead median twenty
	// samples with ten beyond it.
	for n := 0; n < 4*len(entries); n++ {
		e := entries[n%len(entries)]
		src := editSource(e.src, e.lits[n%len(e.lits)], 900000+n)
		pf := heteropar.PlatformB()
		libStart := now()
		rep, err := heteropar.Parallelize(src, heteropar.Options{Platform: pf, Scenario: e.scenario, Store: d.store, Metrics: d.reg})
		lib := since(libStart)
		r.attempted++
		if err != nil {
			r.failed++
			r.check(false, "%s edit %d: %v", e.base, n, err)
			continue
		}
		code, resp, lat, err := d.post(requestBody(e.base, src, e.scenario))
		r.attempted++
		if err != nil || code != http.StatusOK {
			r.failed++
			r.check(false, "%s edit %d: status %d, %v", e.base, n, code, err)
			continue
		}
		r.check(bytes.Equal(resp, e.resp), "%s edit %d: reply differs from the base plan's", e.base, n)
		overhead = append(overhead, ms(lat-lib))
		before := snapshot(replicaReg, d.store)
		out, err := lr.replay(replicaIn{src: src, pf: pf, mainClass: e.scenario.MainClass(pf), cfg: core.Config{Store: d.store, Metrics: replicaReg}})
		lr.untraced += lib
		if err != nil {
			r.failed++
			r.check(false, "%s edit %d traced: %v", e.base, n, err)
			continue
		}
		w := snapshot(replicaReg, d.store).minus(before)
		total = total.plus(w)
		r.check(rep.MeasuredSpeedup == e.speedup && out.speedup == e.speedup,
			"%s edit %d: speedups %v (library) and %v (traced) differ from the base plan's %v", e.base, n, rep.MeasuredSpeedup, out.speedup, e.speedup)
		r.note("edit", fmt.Sprintf("%s/%s/%d", e.base, scenarioToken(e.scenario), n), map[string]int64{
			"ilp.solves": w.Solves, "solstore.misses": w.StoreMisses, "interp.stmts": out.stmts,
		}, nil)
	}
	r.check(total.Solves == 0 && total.StoreMisses == 0, "traced edits solved %d ILPs", total.Solves)
	lr.finish(r, total)
	r.set("serve.edit_overhead_ms", "ms", median(overhead))
	return nil
}

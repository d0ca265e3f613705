package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"octopus/internal/graph"
	"octopus/internal/traffic"
)

// loopSpec sizes mhsd-loopback. The daemon runs at its default flags
// (n=24, W=1000, Δ=20, exact, 100 ms epochs, audit and flight on); only
// the listen address is chosen by the benchmark. The offered traffic is
// the paper's §8 model thinned to the same load as engine-churn; the
// client-side figures (batch slot, cancel share and lag, poll periods)
// have no source and are assumptions (README.md).
type loopSpec struct {
	n, window  int
	epoch      time.Duration // the daemon's epoch length
	load       float64       // share of a §8 instance offered per epoch
	batchEvery time.Duration // POST slot length: one POST per slot, at a seeded offset in it
	cancelFrac float64       // share of flows DELETEd
	cancelLag  time.Duration // DELETE this long after the flow's send time
	eventsLag  time.Duration // GET a flow's events this long after its send time
	epochPoll  time.Duration
	statusPoll time.Duration
	setups     int
}

func loopConfig(smoke bool) loopSpec {
	s := loopSpec{n: 24, window: 1000, epoch: 100 * time.Millisecond, load: 0.15,
		batchEvery: 10 * time.Millisecond, cancelFrac: 0.05, cancelLag: 50 * time.Millisecond,
		eventsLag: time.Second, epochPoll: 50 * time.Millisecond, statusPoll: 100 * time.Millisecond, setups: 21}
	if smoke {
		s.setups = 2
	}
	return s
}

// loopFlow is one generated flow.
type loopFlow struct {
	req    flowRequest
	batch  int
	due    time.Duration // send time, from the offered phase's start
	cancel bool
}

// loopBatch is one POST: the flows of one slot and their send time.
type loopBatch struct {
	due   time.Duration
	flows []loopFlow
}

// flowRequest mirrors the daemon's POST /v1/flows body element.
type flowRequest struct {
	ID     int     `json:"id"`
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Size   int     `json:"size"`
	Routes [][]int `json:"routes"`
}

// loopBatches generates the offered traffic: for each daemon epoch of the
// offered phase, one §8 instance (traffic.Synthetic with
// DefaultSyntheticParams(n, W), explicit 1–3-hop routes) thinned to load.
// Every §8 flow fits one window, so all are mice. Each kept flow goes to a
// seeded slot of its epoch; a slot's flows are one POST, sent at a seeded
// uniform offset in the slot, so sends fall at every phase of the daemon's
// epoch. A seeded share of the flows is marked for cancel.
func (s loopSpec) loopBatches(seed int64, offered time.Duration) ([]loopBatch, error) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.Complete(s.n)
	p := traffic.DefaultSyntheticParams(s.n, s.window)
	slots := int(s.epoch / s.batchEvery)
	var out []loopBatch
	id := 0
	for e := time.Duration(0); e < offered; e += s.epoch {
		inst, err := traffic.Synthetic(g, p, rng)
		if err != nil {
			return nil, err
		}
		bySlot := make([][]loopFlow, slots)
		for _, f := range inst.Flows {
			if rng.Float64() >= s.load {
				continue
			}
			id++
			k := rng.Intn(slots)
			bySlot[k] = append(bySlot[k], loopFlow{
				req:    flowRequest{ID: id, Src: f.Src, Dst: f.Dst, Size: f.Size, Routes: [][]int{f.Routes[0]}},
				cancel: rng.Float64() < s.cancelFrac,
			})
		}
		for k, fl := range bySlot {
			if len(fl) == 0 {
				continue
			}
			due := e + time.Duration(k)*s.batchEvery + time.Duration(rng.Int63n(int64(s.batchEvery)))
			for i := range fl {
				fl[i].batch, fl[i].due = len(out), due
			}
			out = append(out, loopBatch{due, fl})
		}
	}
	return out, nil
}

// daemonProc is one spawned mhsd.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	log  *daemonLog
	done chan error
}

// daemonLog collects the daemon's stdout and stderr and closes ready when
// mhsd prints its serving line, which it does after writing -addr-file.
// Waiting on it instead of polling for the file keeps a sleep's timer
// granularity out of the set-up time.
type daemonLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan struct{}
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := bytes.Contains(l.buf.Bytes(), []byte("mhsd: serving on"))
	l.buf.Write(p)
	if !seen && bytes.Contains(l.buf.Bytes(), []byte("mhsd: serving on")) {
		close(l.ready)
	}
	return len(p), nil
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// spawnDaemon starts mhsd on an ephemeral loopback port and returns once
// /v1/status answers 200, with the time that took.
func spawnDaemon(o options, client *http.Client, i int) (*daemonProc, time.Duration, error) {
	if o.mhsd == "" {
		return nil, 0, errors.New("mhsd-loopback needs --mhsd")
	}
	addrFile, err := filepath.Abs(filepath.Join(o.outDir, fmt.Sprintf("mhsd-addr-%d-%d", os.Getpid(), i)))
	if err != nil {
		return nil, 0, err
	}
	os.Remove(addrFile)
	d := &daemonProc{log: &daemonLog{ready: make(chan struct{})}, done: make(chan error, 1)}
	start := time.Now()
	d.cmd = exec.Command(o.mhsd, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.done <- d.cmd.Wait() }()
	defer os.Remove(addrFile)
	select {
	case <-d.log.ready:
	case err := <-d.done:
		return nil, 0, fmt.Errorf("mhsd exited during start-up: %v\n%s", err, d.log)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, errors.New("mhsd did not start serving within 30s")
	}
	b, err := os.ReadFile(addrFile)
	if err != nil || len(b) == 0 {
		d.kill()
		return nil, 0, fmt.Errorf("mhsd serving but its address file is unreadable: %v", err)
	}
	d.base = "http://" + string(b)
	for time.Since(start) < 30*time.Second {
		if resp, err := client.Get(d.base + "/v1/status"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, 0, errors.New("mhsd did not answer /v1/status within 30s")
}

// stop interrupts the daemon and waits for it; it reports whether mhsd
// exited 0 within the deadline.
func (d *daemonProc) stop() error {
	d.cmd.Process.Signal(syscall.SIGINT)
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("mhsd exit on SIGINT: %v\n%s", err, d.log)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("mhsd did not exit within 30s of SIGINT")
	}
}

// cpu is the CPU time, user plus system, the daemon used over its life.
// Valid once it has exited.
func (d *daemonProc) cpu() time.Duration {
	return d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()
}

func (d *daemonProc) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// epochRecord is the part of a /v1/epochs record the benchmark reads.
type epochRecord struct {
	Epoch      int    `json:"epoch"`
	Kind       string `json:"kind"`
	PlanMicros int64  `json:"plan_micros"`
}

type totals struct {
	Submitted         int `json:"submitted"`
	Delivered         int `json:"delivered"`
	Dropped           int `json:"dropped"`
	Cancelled         int `json:"cancelled"`
	SurvivedRedundant int `json:"survived_redundant"`
}

// loopback is one mhsd-loopback run's shared state.
type loopback struct {
	o      options
	r      *run
	client *http.Client
	base   string
	sp     *spans
	root   int32
	t0     time.Time // offered phase start

	mu          sync.Mutex
	seen        map[int]time.Time // epoch -> wall time first seen committed
	records     []epochRecord
	lastEpoch   int
	missed      int
	statusMs    []float64
	queuedMax   float64
	heapPeak    float64
	steps       []stepSnap
	submitMs    []float64
	lateMs      []float64
	rejects     int
	completion  []float64
	completeMs  []float64
	pendingEvts []loopFlow
	reqSeq      int64
}

// stepSnap is one /metrics reading: scheduled epochs committed so far and
// the planner's cumulative Scheduler.Step time.
type stepSnap struct{ epochs, stepNs float64 }

// do sends one request under a span and returns the status code and the
// reply body.
func (lb *loopback) do(method, path, name string, id int64, body []byte) (int, []byte, error) {
	s := lb.sp.begin(name, id, lb.root)
	defer lb.sp.end(s)
	req, err := http.NewRequest(method, lb.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := lb.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// get reads path and returns the body of a 200 reply.
func (lb *loopback) get(path string) ([]byte, error) {
	lb.mu.Lock()
	lb.reqSeq++
	id := lb.reqSeq
	lb.mu.Unlock()
	code, raw, err := lb.do("GET", path, "http.read", id, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, code)
	}
	return raw, err
}

// read GETs path and decodes its JSON reply into out.
func (lb *loopback) read(path string, out any) error {
	raw, err := lb.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// readProm GETs the daemon's /metrics.
func (lb *loopback) readProm() (map[string]float64, error) {
	raw, err := lb.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(raw))
}

// pollEpochs collects every epoch record, noting the wall time each
// commit was first seen; a traced run also reads the planner's step time
// from /metrics.
// The daemon keeps the last 64 records (6.4 s at 100 ms epochs), so a poll
// every 50 ms misses one only if reads stall for seconds; a gap is a
// failed check.
func (lb *loopback) pollEpochs() error {
	var resp struct {
		Epochs []epochRecord `json:"epochs"`
	}
	if err := lb.read("/v1/epochs", &resp); err != nil {
		return err
	}
	now := time.Now()
	if lb.o.trace {
		prom, err := lb.readProm()
		if err != nil {
			return err
		}
		lb.mu.Lock()
		lb.steps = append(lb.steps, stepSnap{prom["octopus_online_epochs_total"], prom["octopus_core_step_ns_sum"]})
		lb.mu.Unlock()
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	for _, rec := range resp.Epochs {
		if rec.Epoch <= lb.lastEpoch {
			continue
		}
		if rec.Epoch != lb.lastEpoch+1 {
			lb.missed += rec.Epoch - lb.lastEpoch - 1
		}
		lb.lastEpoch = rec.Epoch
		lb.seen[rec.Epoch] = now
		lb.records = append(lb.records, rec)
	}
	return nil
}

type statusResp struct {
	QueuedPackets  float64 `json:"queued_packets"`
	PlanP99Seconds float64 `json:"plan_p99_seconds"`
	PlanOverruns   float64 `json:"plan_overruns"`
}

func (lb *loopback) pollStatus() (statusResp, error) {
	var st statusResp
	t0 := time.Now()
	if err := lb.read("/v1/status", &st); err != nil {
		return st, err
	}
	d := ms(time.Since(t0))
	var vars struct {
		Memstats struct {
			HeapAlloc float64 `json:"HeapAlloc"`
		} `json:"memstats"`
	}
	if err := lb.read("/debug/vars", &vars); err != nil {
		return st, err
	}
	lb.mu.Lock()
	lb.statusMs = append(lb.statusMs, d)
	lb.queuedMax = math.Max(lb.queuedMax, st.QueuedPackets)
	lb.heapPeak = math.Max(lb.heapPeak, vars.Memstats.HeapAlloc/(1<<20))
	lb.mu.Unlock()
	return st, nil
}

// flowEvents fetches one flow's lifecycle journal and records its
// completion. It returns false while the flow is neither completed nor
// cancelled.
func (lb *loopback) flowEvents(f loopFlow) (bool, error) {
	var resp struct {
		Events []struct {
			Ev    string `json:"ev"`
			Epoch int    `json:"epoch"`
		} `json:"events"`
	}
	if err := lb.read(fmt.Sprintf("/v1/flows/%d/events", f.req.ID), &resp); err != nil {
		return false, err
	}
	admitted := -1
	for _, e := range resp.Events {
		switch e.Ev {
		case "admitted":
			admitted = e.Epoch
		case "cancelled":
			return true, nil
		case "completed":
			if admitted < 0 {
				return true, fmt.Errorf("flow %d completed without an admitted event", f.req.ID)
			}
			// Completion events carry the committed epoch + 1.
			lb.mu.Lock()
			at, ok := lb.seen[e.Epoch-1]
			lb.mu.Unlock()
			if !ok {
				return false, nil // its commit is not polled yet
			}
			lb.mu.Lock()
			lb.completion = append(lb.completion, float64(e.Epoch-admitted))
			lb.completeMs = append(lb.completeMs, ms(at.Sub(lb.t0.Add(f.due))))
			lb.mu.Unlock()
			return true, nil
		}
	}
	return false, nil
}

// every runs f every period until ctx ends, recording errors as failed
// checks.
func every(ctx context.Context, wg *sync.WaitGroup, r *run, period time.Duration, name string, f func() error) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			if err := f(); err != nil && ctx.Err() == nil {
				r.fail(1, "%s: %v", name, err)
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
}

// runMhsdLoopback is the open loop against the real daemon: batches of
// flows POSTed on a fixed schedule, a share of them DELETEd, and
// /v1/epochs, /v1/status, /debug/vars and every flow's events read
// alongside (and /metrics, traced), all over at most nproc connections from this one process.
func runMhsdLoopback(o options) (*run, error) {
	s := loopConfig(o.smoke)
	r := newRun()
	conns := runtime.NumCPU()
	offered := time.Duration(o.seconds * float64(time.Second))
	batches, err := s.loopBatches(o.seed, offered)
	if err != nil {
		return nil, err
	}
	nFlows := 0
	for _, b := range batches {
		nFlows += len(b.flows)
	}
	r.loop = fmt.Sprintf("open, one POST per %v slot holding the slot's flows, at a uniform offset in the slot, %d connections", s.batchEvery, conns)
	r.params = map[string]any{"daemon": "mhsd default flags (n=24 complete, W=1000, Δ=20, exact, 100ms epochs, audit, flight)",
		"load": "traffic.Synthetic DefaultSyntheticParams(n, W) per daemon epoch, thinned", "load_share": s.load,
		"offered_link_load": 2 * s.load, "offered_flows_per_s": float64(nFlows) / offered.Seconds(),
		"batch_slot_ms": ms(s.batchEvery), "cancel_frac": s.cancelFrac, "cancel_lag_ms": ms(s.cancelLag),
		"events_lag_ms": ms(s.eventsLag), "connections": conns}
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	defer client.CloseIdleConnections()

	var setup []float64
	var d *daemonProc
	for i := 0; i < s.setups; i++ {
		dp, dur, err := spawnDaemon(o, client, i)
		if err != nil {
			return nil, err
		}
		setup = append(setup, dur.Seconds())
		if i == s.setups-1 || o.trace {
			d = dp
			break
		}
		if err := dp.stop(); err != nil {
			r.fail(1, "%v", err)
		}
		client.CloseIdleConnections()
	}
	r.metrics["setup_s"] = median(setup)
	r.samples["setup_s"] = len(setup)
	fmt.Fprintf(os.Stderr, "mhsd-loopback: set-up %.3fs (median of %d); %d flows in %d POSTs over %v\n",
		median(setup), len(setup), nFlows, len(batches), offered)

	lb := &loopback{o: o, r: r, client: client, base: d.base, sp: newSpans(o.trace),
		seen: map[int]time.Time{}, lastEpoch: -1}
	lb.root = lb.sp.begin("loopback", 0, -1)
	err = lb.drive(s, batches, offered, d)
	lb.sp.end(lb.root)
	if stopErr := d.stop(); stopErr != nil {
		r.fail(1, "%v", stopErr)
	}
	if err != nil {
		return nil, err
	}
	if !o.trace {
		r.dist("run_s", []float64{d.cpu().Seconds()})
	}
	return r, nil
}

// drive runs the offered phase, waits for the daemon to drain, checks its
// outputs, and fills the run's metrics.
func (lb *loopback) drive(s loopSpec, batches []loopBatch, offered time.Duration, d *daemonProc) error {
	r := lb.r
	ctx, cancel := context.WithCancel(context.Background())
	var pollers sync.WaitGroup
	every(ctx, &pollers, r, s.epochPoll, "GET /v1/epochs", lb.pollEpochs)
	every(ctx, &pollers, r, s.statusPoll, "GET /v1/status", func() error { _, err := lb.pollStatus(); return err })
	stopPollers := func() { cancel(); pollers.Wait() }

	// The events reader walks every flow in send order, one eventsLag
	// behind; flows not finished yet are retried after the drain.
	lb.t0 = time.Now().Add(50 * time.Millisecond)
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for _, b := range batches {
			for _, f := range b.flows {
				time.Sleep(time.Until(lb.t0.Add(f.due + s.eventsLag)))
				ok, err := lb.flowEvents(f)
				if err != nil {
					r.fail(1, "events of flow %d: %v", f.req.ID, err)
				} else if !ok {
					lb.mu.Lock()
					lb.pendingEvts = append(lb.pendingEvts, f)
					lb.mu.Unlock()
				}
			}
		}
	}()

	// The open-loop generator: each request leaves at its scheduled time
	// on its own goroutine, so a stalled reply delays nothing else.
	var reqs sync.WaitGroup
	posted := make([]chan struct{}, len(batches))
	for b, bt := range batches {
		posted[b] = make(chan struct{})
		due := lb.t0.Add(bt.due)
		time.Sleep(time.Until(due))
		lb.mu.Lock()
		lb.lateMs = append(lb.lateMs, ms(time.Since(due)))
		lb.mu.Unlock()
		reqs.Add(1)
		go func(b int, batch []loopFlow) {
			defer reqs.Done()
			defer close(posted[b])
			lb.postBatch(b, batch)
		}(b, bt.flows)
		for _, f := range bt.flows {
			if f.cancel {
				reqs.Add(1)
				go func(f loopFlow) {
					defer reqs.Done()
					time.Sleep(time.Until(due.Add(s.cancelLag)))
					<-posted[f.batch] // a client cancels only what it submitted
					r.attempt()
					code, _, err := lb.do("DELETE", fmt.Sprintf("/v1/flows/%d", f.req.ID), "http.delete_flow", int64(f.req.ID), nil)
					if err != nil || code != http.StatusOK {
						r.fail(1, "DELETE flow %d: status %d, %v", f.req.ID, code, err)
					}
				}(f)
			}
		}
	}
	reqs.Wait()

	// Drain: wait until nothing is queued or backlogged.
	var fl struct {
		QueuedFlows    int    `json:"queued_flows"`
		QueuedPackets  int    `json:"queued_packets"`
		BacklogPackets int    `json:"backlog_packets"`
		Totals         totals `json:"totals"`
	}
	for deadline := time.Now().Add(60 * time.Second); ; {
		if err := lb.read("/v1/flows", &fl); err != nil {
			stopPollers()
			return err
		}
		if fl.QueuedFlows == 0 && fl.BacklogPackets == 0 {
			break
		}
		if time.Now().After(deadline) {
			stopPollers()
			return fmt.Errorf("mhsd did not drain within 60s: %d flows queued, %d packets backlogged", fl.QueuedFlows, fl.BacklogPackets)
		}
		time.Sleep(s.epochPoll)
	}
	readers.Wait()
	time.Sleep(2 * s.epochPoll) // let the epoch poller see the last commits
	for _, f := range lb.pendingEvts {
		if ok, err := lb.flowEvents(f); err != nil || !ok {
			r.fail(1, "flow %d: no completion or cancel in its events after the drain (%v)", f.req.ID, err)
		}
	}
	st, err := lb.pollStatus()
	if err != nil {
		stopPollers()
		return err
	}
	prom, err := lb.readProm()
	stopPollers()
	if err != nil {
		return err
	}

	// Output checks: conservation after the drain, every epoch seen.
	t := fl.Totals
	if t.Submitted != t.Delivered+t.Dropped+t.Cancelled+t.SurvivedRedundant+fl.BacklogPackets+fl.QueuedPackets {
		r.fail(1, "mhsd conservation: submitted %d != delivered %d + dropped %d + cancelled %d + survived %d + backlog %d + queued %d",
			t.Submitted, t.Delivered, t.Dropped, t.Cancelled, t.SurvivedRedundant, fl.BacklogPackets, fl.QueuedPackets)
	}
	if lb.missed > 0 {
		r.fail(lb.missed, "/v1/epochs poller missed %d epoch records", lb.missed)
	}
	stepMs := planStepMs(lb.steps)
	fmt.Fprintf(os.Stderr, "mhsd-loopback: %d epochs, %d planned with work, %d completions, %d rejects; daemon log:\n%s",
		len(lb.records), len(stepMs), len(lb.completion), lb.rejects, indent(d.log.String()))

	var epochMs, planMs []float64
	for _, rec := range lb.records {
		planMs = append(planMs, float64(rec.PlanMicros)/1e3)
		if rec.Kind == "scheduled" {
			epochMs = append(epochMs, float64(rec.PlanMicros)/1e3)
		}
	}
	r.metrics["delivered_frac"] = float64(t.Delivered) / float64(max(1, t.Submitted-t.Cancelled))
	if !lb.o.trace {
		r.metrics["heap_peak_mib"] = lb.heapPeak
		r.dist("epoch_ms", epochMs)
		r.countDist("completion_epochs", lb.completion)
		r.dist("complete_ms", lb.completeMs)
		return nil
	}
	r.spans = lb.sp
	r.dist("daemon.submit_ms", lb.submitMs)
	r.dist("daemon.plan_ms", planMs)
	r.dist("daemon.plan_step_ms", stepMs)
	r.metrics["daemon.overruns"] = st.PlanOverruns
	r.metrics["daemon.rejects"] = float64(lb.rejects)
	r.metrics["daemon.queued_packets.max"] = lb.queuedMax
	r.dist("daemon.status_ms", lb.statusMs)
	if p99 := quantile(planMs, 0.99); p99 > 0 {
		r.metrics["daemon.status_plan_p99_ratio"] = st.PlanP99Seconds * 1e3 / p99
	}
	r.metrics["bench.gen_late_ms.p99"] = quantile(lb.lateMs, 0.99)
	r.samples["bench.gen_late_ms"] = len(lb.lateMs)
	coreMetrics(r, len(lb.records), prom)
	return nil
}

// postBatch submits one batch, timed from the moment the generator sends
// it to the reply, so waits for one of the nproc connections count but the
// generator's own timer lateness (bench.gen_late_ms) does not. Sends are
// never gated on replies, so a stalled daemon still delays no send. A
// non-2xx reply is a failed operation and misses every latency limit.
func (lb *loopback) postBatch(b int, batch []loopFlow) {
	body := make([]flowRequest, len(batch))
	for i, f := range batch {
		body[i] = f.req
	}
	raw, _ := json.Marshal(body)
	sent := time.Now()
	code, _, err := lb.do("POST", "/v1/flows", "http.post_flows", int64(b), raw)
	lat := ms(time.Since(sent))
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.r.attempt()
	if err != nil || code != http.StatusAccepted {
		lb.rejects++
		lat = math.Inf(1)
		lb.r.fail(1, "POST batch %d: status %d, %v", b, code, err)
	}
	lb.submitMs = append(lb.submitMs, lat)
}

// planStepMs turns the /metrics readings into the planner's Step time per
// scheduled epoch. The daemon plans epoch k+1 right after committing epoch
// k and then waits out the wall-clock epoch, so between the last reading
// at one scheduled-epoch count and the last at the next, exactly one plan
// with work ran; the step-time difference is that plan's. Polls twice per
// epoch keep every count read; a plan still running at the last reading
// splits its time between neighbours but keeps the sum.
func planStepMs(snaps []stepSnap) []float64 {
	var out []float64
	last := map[float64]float64{} // epoch count -> step ns at its last reading
	for _, sn := range snaps {
		last[sn.epochs] = sn.stepNs
	}
	for e, ns := range last {
		if prev, ok := last[e-1]; ok && ns > prev {
			out = append(out, (ns-prev)/1e6)
		}
	}
	return out
}

func indent(s string) string {
	if s == "" {
		return ""
	}
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ") + "\n"
}

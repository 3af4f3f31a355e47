package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dlsmech/internal/compute"
	"dlsmech/internal/device"
	"dlsmech/internal/dlt"
	"dlsmech/internal/ledger"
	"dlsmech/internal/obs"
	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/sign"
	"dlsmech/internal/wire"
	"dlsmech/internal/xrand"
)

// ledgerRounds is how many rounds per connection the ledger pass records;
// each waits for an fsync on the checkout's disk.
const ledgerRounds = 8

// traceConns is how many of the workload's connections the traced run
// replays. The replay is sequential, so more would only repeat the work.
const traceConns = 2

// Span names of the in-process chain, one per layer boundary the daemon
// crosses for a served round.
const (
	spanRound        = "round"
	spanEncodeRound  = "wire.encode_round"
	spanDecodeRound  = "wire.decode_round"
	spanParams       = "server.round_params"
	spanOpenRound    = "ledger.open_round"
	spanRun          = "protocol.run"
	spanResultToWire = "server.result_to_wire"
	spanClose        = "ledger.close"
	spanSync         = "ledger.sync"
	spanEncodeResult = "wire.encode_result"
	spanDecodeResult = "wire.decode_result"
)

// timedSink forwards a round's evidence to the ledger and records the
// interval of every call. Processors record concurrently, inside
// Session.Run, so the layer's time is the union of the intervals.
type timedSink struct {
	rl *ledger.RoundLog
	iv *intervals
}

type intervals struct {
	mu  sync.Mutex
	all [][2]time.Time
}

func (iv *intervals) add(start time.Time) {
	end := time.Now()
	iv.mu.Lock()
	iv.all = append(iv.all, [2]time.Time{start, end})
	iv.mu.Unlock()
}

// covered returns the total time the recorded intervals cover.
func (iv *intervals) covered() time.Duration {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	sort.Slice(iv.all, func(i, j int) bool { return iv.all[i][0].Before(iv.all[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv.all {
		switch {
		case i == 0:
			cur = x
		case x[0].After(cur[1]):
			total += cur[1].Sub(cur[0])
			cur = x
		case x[1].After(cur[1]):
			cur[1] = x[1]
		}
	}
	if len(iv.all) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

func (s timedSink) RecordBid(slot int, sg sign.Signed) {
	defer s.iv.add(time.Now())
	s.rl.RecordBid(slot, sg)
}

func (s timedSink) RecordAlloc(g wire.Alloc) {
	defer s.iv.add(time.Now())
	s.rl.RecordAlloc(g)
}

func (s timedSink) RecordLoadAck(slot int, l wire.Load) {
	defer s.iv.add(time.Now())
	s.rl.RecordLoadAck(slot, l)
}

func (s timedSink) RecordGrievance(gr wire.Grievance) {
	defer s.iv.add(time.Now())
	s.rl.RecordGrievance(gr)
}

func (s timedSink) RecordBill(b wire.Bill) {
	defer s.iv.add(time.Now())
	s.rl.RecordBill(b)
}

// chain is the in-process equivalent of a daemon serving the workload's
// connections: one warm session per connection, the dlsd-default compute
// plane (or none), and optionally a file-backed evidence ledger.
type chain struct {
	streams  []*stream
	sessions []*protocol.Session
	logs     []*ledger.SessionLog
	plane    *compute.Plane
	reg      *obs.Registry // the plane's and the ledger's counters
	store    *ledger.Store
	dir      string

	record intervals
	rounds int
	stats  protocol.Stats
	fbuf   []byte
	rbuf   []byte
}

// chainOpts selects a chain's optional layers.
type chainOpts struct {
	plane  bool
	ledger bool
}

func newChain(o *owner, s spec, seed uint64, opt chainOpts, workDir string) (*chain, error) {
	streams := newStreams(s, seed)
	c := &chain{streams: streams[:traceConns], reg: obs.NewRegistry()}
	if opt.plane {
		// dlsd's shipped defaults: both halves on, default sizes.
		c.plane = compute.New(compute.Config{EnableVerify: true, EnablePlans: true, Registry: c.reg})
	}
	for _, st := range c.streams {
		c.sessions = append(c.sessions, protocol.NewSession(st.hello.Size, st.hello.Seed))
	}
	if opt.ledger {
		dir, err := o.mkdir(workDir, "ledger-*")
		if err != nil {
			return nil, err
		}
		c.dir = dir
		be, err := ledger.OpenFile(dir, 0)
		if err != nil {
			return nil, err
		}
		if c.store, err = ledger.Open(be, ledger.NewMetrics(c.reg, "dlsperf")); err != nil {
			be.Close()
			return nil, err
		}
		for _, st := range c.streams {
			sl, err := c.store.OpenSession(st.hello)
			if err != nil {
				return nil, err
			}
			c.logs = append(c.logs, sl)
		}
	}
	return c, nil
}

// close stops the plane and closes the ledger; the ledger directory stays
// until the owner removes it.
func (c *chain) close() error {
	c.plane.Close()
	if c.store == nil {
		return nil
	}
	return c.store.Close()
}

// round serves connection i's next request through the chain, recording a
// span per layer under tr (nil records nothing).
func (c *chain) round(tr *obs.Tracer, i int) error {
	st := c.streams[i]
	rq := st.next()
	root := tr.Start(0, spanRound, i)
	defer root.End()
	id := root.SpanID()

	sp := tr.Start(id, spanEncodeRound, i)
	c.fbuf = wire.AppendRound(c.fbuf[:0], rq)
	sp.End()

	sp = tr.Start(id, spanDecodeRound, i)
	got, _, err := wire.DecodeRound(c.fbuf)
	sp.End()
	if err != nil {
		return fmt.Errorf("decode round: %w", err)
	}

	sp = tr.Start(id, spanParams, i)
	params, err := server.RoundParams(st.hello.Size, got)
	params.Compute = compute.Handle{Plane: c.plane, Tenant: st.hello.Tenant}
	sp.End()
	if err != nil {
		return err
	}

	var rl *ledger.RoundLog
	if c.logs != nil {
		sp = tr.Start(id, spanOpenRound, i)
		rl, err = c.logs[i].OpenRound(got)
		sp.End()
		if err != nil {
			return err
		}
		params.Evidence = timedSink{rl: rl, iv: &c.record}
	}

	sp = tr.Start(id, spanRun, i)
	res, err := c.sessions[i].Run(params)
	sp.End()
	if err != nil {
		return fmt.Errorf("run round %d: %w", rq.Seq, err)
	}

	sp = tr.Start(id, spanResultToWire, i)
	rr := server.ResultToWire(got.Seq, res)
	sp.End()

	if rl != nil {
		sp = tr.Start(id, spanClose, i)
		err = rl.CloseDeferred(rr)
		if err == nil {
			ss := tr.Start(sp.SpanID(), spanSync, i)
			err = c.logs[i].Sync()
			ss.End()
		}
		sp.End()
		if err != nil {
			return fmt.Errorf("ledger close: %w", err)
		}
	}

	sp = tr.Start(id, spanEncodeResult, i)
	c.rbuf = wire.AppendRoundResult(c.rbuf[:0], rr)
	sp.End()

	sp = tr.Start(id, spanDecodeResult, i)
	back, _, err := wire.DecodeRoundResult(c.rbuf)
	sp.End()
	if err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if err := checkResult(rq, back); err != nil {
		return err
	}
	c.rounds++
	c.stats.Messages += res.Stats.Messages
	c.stats.Signatures += res.Stats.Signatures
	c.stats.Verifications += res.Stats.Verifications
	return nil
}

// warm serves every connection's warm-up rounds, untimed.
func (c *chain) warm() error {
	for i := range c.streams {
		for r := 0; r < warmRounds; r++ {
			if err := c.round(nil, i); err != nil {
				return err
			}
		}
	}
	c.record.all = nil
	c.rounds, c.stats = 0, protocol.Stats{}
	return nil
}

// sample serves n rounds per connection and returns the elapsed time.
func (c *chain) sample(ctx context.Context, tr *obs.Tracer, n int) (time.Duration, error) {
	start := time.Now()
	for i := range c.streams {
		for r := 0; r < n; r++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			if err := c.round(tr, i); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// signHits sums the sessions' signature memo hits.
func (c *chain) signHits() int64 {
	var n int64
	for _, s := range c.sessions {
		_, hits := s.MemoStats()
		n += hits
	}
	return n
}

// pass is one chain built, warmed and run over the sample.
type pass struct {
	elapsed time.Duration
	chain   *chain
	// signHits is the session memos' signature hits over the sample.
	signHits int64
}

func runPass(ctx context.Context, o *owner, s spec, seed uint64, opt chainOpts, workDir string, tr *obs.Tracer) (pass, error) {
	c, err := newChain(o, s, seed, opt, workDir)
	if err != nil {
		return pass{}, err
	}
	p := pass{chain: c}
	err = c.warm()
	if err == nil {
		s0 := c.signHits()
		p.elapsed, err = c.sample(ctx, tr, s.traceRounds)
		p.signHits = c.signHits() - s0
	}
	if cerr := c.close(); err == nil {
		err = cerr
	}
	return p, err
}

// traceRun is the traced run: it replays a seeded sample of the workload's
// rounds in-process through the public chain, alternating untraced and
// traced passes, and derives each layer's per-round self time. servedMs is
// the mean client-observed round time of the measured window.
func traceRun(ctx context.Context, o *owner, s spec, seed uint64, workDir string, servedMs float64, vals map[string]float64) error {
	tr := obs.NewTracer()
	var plain, traced []float64
	var rounds int
	var stats protocol.Stats
	var signHits int64
	var fbuf, rbuf int
	for k := 0; k < 4; k++ {
		var t *obs.Tracer
		if k%2 == 1 {
			t = tr
		}
		p, err := runPass(ctx, o, s, seed, chainOpts{plane: true}, workDir, t)
		if err != nil {
			return err
		}
		if t == nil {
			plain = append(plain, float64(p.elapsed))
			continue
		}
		traced = append(traced, float64(p.elapsed))
		c := p.chain
		rounds += c.rounds
		stats.Messages += c.stats.Messages
		stats.Signatures += c.stats.Signatures
		stats.Verifications += c.stats.Verifications
		signHits += p.signHits
		fbuf, rbuf = len(c.fbuf), len(c.rbuf)
	}
	tn := obs.NewTracer()
	noplane, err := runPass(ctx, o, s, seed, chainOpts{}, workDir, tn)
	if err != nil {
		return err
	}

	self := selfTimes(tr.Spans())
	perRound := func(d time.Duration) float64 { return float64(d) / float64(rounds) }
	us := func(name string) float64 { return perRound(self[name]) / 1e3 }
	vals["wire.encode_round_us"] = us(spanEncodeRound)
	vals["wire.decode_round_us"] = us(spanDecodeRound)
	vals["wire.encode_result_us"] = us(spanEncodeResult)
	vals["wire.decode_result_us"] = us(spanDecodeResult)
	vals["wire.request_bytes"] = float64(fbuf)
	vals["wire.result_bytes"] = float64(rbuf)
	vals["protocol.run_ms"] = us(spanRun) / 1e3
	vals["protocol.run_noplane_ms"] = float64(selfTimes(tn.Spans())[spanRun]) / float64(noplane.chain.rounds) / 1e6
	vals["protocol.messages_per_round"] = float64(stats.Messages) / float64(rounds)
	vals["sign.signatures_per_round"] = float64(stats.Signatures) / float64(rounds)
	vals["sign.verifications_per_round"] = float64(stats.Verifications) / float64(rounds)
	vals["sign.sign_memo_hit_ratio"] = ratio(float64(signHits), float64(stats.Signatures))

	var inChain time.Duration
	for name, d := range self {
		if name != spanRound {
			inChain += d
		}
	}
	vals["trace.round_ms"] = perRound(self[spanRound]+inChain) / 1e6
	vals["trace.unaccounted_frac"] = 1 - perRound(inChain)/1e6/servedMs
	vals["trace.overhead_frac"] = median(traced)/median(plain) - 1

	for _, name := range []string{"ledger.append_bytes_per_round", "ledger.appends_per_round", "ledger.fsyncs_per_round",
		"ledger.record_us", "ledger.close_us", "ledger.sync_us", "ledger.recover_s", "ledger.replay_mib_per_s"} {
		vals[name] = 0
	}
	if s.ledger {
		if err := ledgerPass(ctx, o, s, seed, workDir, vals); err != nil {
			return fmt.Errorf("ledger pass: %w", err)
		}
	}
	if err := microLayers(s, seed, vals); err != nil {
		return err
	}
	return writeTrace(tr, workDir, s.name, seed)
}

// ledgerPass serves the sample through a chain that records every round
// into a file-backed evidence ledger as dlsd does (fsync before each
// acknowledgement), then times Server.Recover over that ledger: the replay
// a restarted daemon performs before it serves.
func ledgerPass(ctx context.Context, o *owner, s spec, seed uint64, workDir string, vals map[string]float64) error {
	fmt.Fprintf(os.Stderr, "dlsperf: %s ledger pass starts\n", s.name)
	tr := obs.NewTracer()
	c, err := newChain(o, s, seed, chainOpts{plane: true, ledger: true}, workDir)
	if err != nil {
		return err
	}
	defer o.remove(c.dir)
	err = c.warm()
	var appends, bytes, fsyncs int64
	if err == nil {
		counter := func(name string) int64 { return c.reg.Counter(name).Value() }
		a0, b0, f0 := counter("dlsperf_ledger_appends_total"), counter("dlsperf_ledger_append_bytes_total"), counter("dlsperf_ledger_fsyncs_total")
		_, err = c.sample(ctx, tr, ledgerRounds)
		appends = counter("dlsperf_ledger_appends_total") - a0
		bytes = counter("dlsperf_ledger_append_bytes_total") - b0
		fsyncs = counter("dlsperf_ledger_fsyncs_total") - f0
	}
	if cerr := c.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	n := float64(c.rounds)
	self := selfTimes(tr.Spans())
	vals["ledger.append_bytes_per_round"] = float64(bytes) / n
	vals["ledger.appends_per_round"] = float64(appends) / n
	vals["ledger.fsyncs_per_round"] = float64(fsyncs) / n
	vals["ledger.record_us"] = float64(c.record.covered()) / n / 1e3
	vals["ledger.close_us"] = float64(self[spanClose]+self[spanSync]) / n / 1e3
	vals["ledger.sync_us"] = float64(self[spanSync]) / n / 1e3

	be, err := ledger.OpenFile(c.dir, 0)
	if err != nil {
		return err
	}
	st, err := ledger.Open(be, nil)
	if err != nil {
		be.Close()
		return err
	}
	defer st.Close()
	start := time.Now()
	if err := server.New(server.Config{Ledger: st}).Recover(); err != nil {
		return err
	}
	rec := time.Since(start)
	if got := len(st.Sessions()); got != len(c.streams) {
		return fmt.Errorf("recovered %d ledger sessions, want %d", got, len(c.streams))
	}
	vals["ledger.recover_s"] = rec.Seconds()
	vals["ledger.replay_mib_per_s"] = float64(dirSize(c.dir)) / (1 << 20) / rec.Seconds()
	return nil
}

// selfTimes sums each span name's self time: its duration minus the time
// its children cover. The chain is sequential, so children never overlap.
func selfTimes(spans []*obs.Span) map[string]time.Duration {
	child := make(map[uint64]time.Duration)
	for _, sp := range spans {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.Dur
		}
	}
	out := make(map[string]time.Duration)
	for _, sp := range spans {
		out[sp.Name] += sp.Dur - child[sp.ID]
	}
	return out
}

// microLayers times single calls into the sign, dlt and device layers on
// the workload's own inputs: ed25519 signing and memo-miss batch
// verification of one bid slot per processor, Algorithm 1 on the round's
// bids, and minting and verifying the round's Λ attestation.
func microLayers(s spec, seed uint64, vals map[string]float64) error {
	streams := newStreams(s, seed)
	st := streams[0]
	n := s.traceRounds
	signer := sign.NewSigner(1, st.hello.Seed)
	var signDur, verifyDur, solveDur, mintDur, checkDur time.Duration
	var sigs int
	var alloc dlt.Allocation
	iss, err := device.NewIssuer(1.0/4096, xrand.New(seed))
	if err != nil {
		return err
	}
	var blocks []device.Block
	for r := 0; r < n; r++ {
		rq := st.next()
		batch := make([]sign.Signed, 0, len(rq.W))
		t0 := time.Now()
		for i, w := range rq.W {
			batch = append(batch, signer.Sign(wire.EncodeSlot(wire.SlotEquivBid, i, w)))
		}
		signDur += time.Since(t0)
		// A fresh PKI has an empty memo, so every verification is a miss.
		pki := sign.NewPKI()
		pki.MustRegister(1, signer.Public())
		t0 = time.Now()
		if err := pki.VerifyBatch(batch); err != nil {
			return err
		}
		verifyDur += time.Since(t0)
		sigs += len(batch)

		net := &dlt.Network{W: rq.W, Z: rq.Z}
		t0 = time.Now()
		dlt.SolveBoundaryInto(net, &alloc)
		solveDur += time.Since(t0)

		iss.Reset()
		t0 = time.Now()
		att, err := iss.MintInto(blocks[:0], 1)
		mintDur += time.Since(t0)
		if err != nil {
			return err
		}
		blocks = att.Blocks
		t0 = time.Now()
		amount, err := iss.Verify(att)
		checkDur += time.Since(t0)
		if err != nil || amount < 1 {
			return fmt.Errorf("attestation verify: %v (amount %v)", err, amount)
		}
	}
	vals["sign.sign_us"] = float64(signDur) / float64(sigs) / 1e3
	vals["sign.verify_us"] = float64(verifyDur) / float64(sigs) / 1e3
	vals["dlt.solve_us"] = float64(solveDur) / float64(n) / 1e3
	vals["device.mint_us"] = float64(mintDur) / float64(n) / 1e3
	vals["device.verify_us"] = float64(checkDur) / float64(n) / 1e3
	return nil
}

// writeTrace writes the traced run's spans as a Chrome trace.
func writeTrace(tr *obs.Tracer, workDir, workload string, seed uint64) error {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return err
	}
	path := filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dlsperf: trace written to %s\n", path)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return quantile(ys, 0.5)
}

func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

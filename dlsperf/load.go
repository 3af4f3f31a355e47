package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dlsmech/internal/core"
	"dlsmech/internal/dlt"
	"dlsmech/internal/server"
	"dlsmech/internal/wire"
	"dlsmech/internal/workload"
	"dlsmech/internal/xrand"
)

const (
	// m is the number of strategic processors per session (size m+1).
	m = 64
	// warmRounds are served on every connection during set-up, before the
	// window opens: the first round on a new session is cold, the second
	// is the first warm one.
	warmRounds = 2
	// warmTraffic precedes each segment's window, checked but not measured:
	// the first second of a new daemon runs slower.
	warmTraffic = 1500 * time.Millisecond
	// replayPerConn is how many served rounds per connection and segment are
	// kept for the in-process replay check.
	replayPerConn = 1
)

// Detector parameters shipped with every round: dlsload's defaults.
const (
	roundTimeout = 25 * time.Millisecond
	roundRetries = 1
	roundBackoff = 1.5
)

// spec is one workload: how its requests are drawn and sent.
type spec struct {
	name string
	why  string
	// fresh re-draws every w_i each round, so no signature, verification
	// or plan repeats.
	fresh bool
	// conns is the number of client connections, one tenant and one
	// session each.
	conns int
	// slice is the length of the slices a segment's window is measured in,
	// each giving one sample of every end-to-end figure.
	slice time.Duration
	// traceRounds is how many rounds per connection the traced run replays
	// after the warm-up: enough for stable means at a few seconds per pass.
	traceRounds int
	// ledger adds the ledger pass to the traced run: the sample is recorded
	// into a file-backed evidence ledger as dlsd records it, and
	// Server.Recover replays that ledger.
	ledger bool
}

// The connection counts and slice lengths were chosen by measuring, on the
// 2-CPU host the benchmark was sized on, the spread of alternating runs.
// repeat on 1 connection drifted with the host's load over minutes; on 4,
// the daemon switched every few seconds between two schedules, one 1.6x
// slower than the other, the faster holding for 0% to 57% of a run. On 2
// connections the slower schedule held for about one segment in ten, and a
// median over 1.5 s slices passes over it. fresh's rounds wait on the
// coalescer's flush deadline; on 4 connections its flushes carry twice the
// signatures of 2, and its daemon CPU per round ranged over 5% of its
// median instead of 30%. A fresh segment's 9 s window serves about 200
// rounds and is one slice.
var specs = []spec{
	{name: "repeat", conns: 2, slice: 1500 * time.Millisecond, traceRounds: 64, ledger: true, why: "2 connections, each re-sending its W,Z: compute.verify_local_hit_ratio and compute.plan_cache_hit_ratio are 1 (~0.1 and 0 on fresh), so the per-request path dominates"},
	{name: "fresh", conns: 4, fresh: true, slice: 9 * time.Second, traceRounds: 3, why: "4 connections re-drawing every w_i each round: compute.verify_local_hit_ratio ~0.1 and compute.plan_cache_hit_ratio 0 (both 1 on repeat), so ed25519, dlt and the verify coalescer dominate"},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// stream is one connection's deterministic request sequence.
type stream struct {
	hello wire.Hello
	net   *dlt.Network
	rng   *xrand.Rand
	fresh bool
	seq   uint64
}

// newStreams derives every connection's request stream from the seed.
func newStreams(s spec, seed uint64) []*stream {
	rs := xrand.New(seed).Streams(s.conns)
	out := make([]*stream, s.conns)
	for i, r := range rs {
		net := workload.Chain(r.Split(), workload.DefaultChainSpec(m))
		out[i] = &stream{
			hello: wire.Hello{Tenant: fmt.Sprintf("perf-%d", i), Size: net.Size(), Seed: r.Uint64()},
			net:   net,
			rng:   r,
			fresh: s.fresh,
		}
	}
	return out
}

// next returns the stream's next round request.
func (st *stream) next() wire.Round {
	st.seq++
	w := st.net.W
	if st.fresh {
		w = make([]float64, len(st.net.W))
		for i, v := range st.net.W {
			w[i] = v * st.rng.Uniform(0.5, 1.5)
		}
	}
	cfg := core.DefaultConfig()
	return wire.Round{
		Seq:       st.seq,
		Seed:      st.rng.Uint64(),
		W:         w,
		Z:         st.net.Z,
		Fine:      cfg.Fine,
		AuditProb: cfg.AuditProb,
		TimeoutNs: int64(roundTimeout),
		Retries:   roundRetries,
		Backoff:   roundBackoff,
	}
}

// kept is a served round retained for the replay check.
type kept struct {
	hello  wire.Hello
	rq     wire.Round
	served []byte // wire encoding of the served RoundResult
}

// tally is one connection's record of a measured window.
type tally struct {
	lat       []float64 // ms
	attempted int
	failed    int
	firstErr  error
	kept      []kept
	seen      int         // rounds offered to the reservoir
	pick      *xrand.Rand // the reservoir's seeded choices
}

// newTallies makes one tally per connection, with seeded replay picks.
func newTallies(conns int, seed uint64) []*tally {
	out := make([]*tally, conns)
	for i, r := range xrand.New(seed ^ 0x5245504c /* "REPL" */).Streams(conns) {
		out[i] = &tally{pick: r}
	}
	return out
}

// checkResult reports why a served round is not acceptable, or nil.
func checkResult(rq wire.Round, rr wire.RoundResult) error {
	switch {
	case rr.Seq != rq.Seq:
		return fmt.Errorf("round %d answered as %d", rq.Seq, rr.Seq)
	case !rr.Completed:
		return fmt.Errorf("round %d incomplete: %s", rq.Seq, rr.TermReason)
	case !rr.NetZero:
		return fmt.Errorf("round %d does not conserve money", rq.Seq)
	}
	return nil
}

// keep offers a served round to the connection's replay reservoir, a
// seeded uniform sample of replayPerConn rounds.
func (t *tally) keep(hello wire.Hello, rq wire.Round, rr wire.RoundResult) {
	t.seen++
	slot := t.seen - 1
	if slot >= replayPerConn {
		slot = t.pick.Intn(t.seen)
		if slot >= replayPerConn {
			return
		}
	}
	k := kept{hello: hello, rq: rq, served: wire.AppendRoundResult(nil, rr)}
	if slot < len(t.kept) {
		t.kept[slot] = k
	} else {
		t.kept = append(t.kept, k)
	}
}

// serve sends one round and checks the answer.
func (t *tally) serve(c *server.Client, hello wire.Hello, rq wire.Round) (time.Time, error) {
	t.attempted++
	rr, err := c.Round(rq)
	done := time.Now()
	if err == nil {
		err = checkResult(rq, rr)
	}
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return done, err
	}
	t.keep(hello, rq, rr)
	return done, nil
}

// loop drives a closed loop over the connected clients: each connection
// sends its next round as soon as the previous one is answered, until the
// given time. Every round is checked; with measure set, each also adds a
// latency sample to its connection's tally. A canceled ctx closes the
// connections, so blocked rounds return at once.
func loop(ctx context.Context, until time.Time, measure bool, cl []*server.Client, streams []*stream, tallies []*tally) {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			closeAll(cl)
		case <-stop:
		}
	}()
	var wg sync.WaitGroup
	for i, t := range tallies {
		if t.firstErr != nil {
			continue // the connection failed in an earlier loop
		}
		wg.Add(1)
		go func(i int, t *tally) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					t.failed++
					t.firstErr = fmt.Errorf("connection %d: panic: %v", i, r)
				}
			}()
			c, st := cl[i], streams[i]
			for ctx.Err() == nil && time.Now().Before(until) {
				rq := st.next()
				sent := time.Now()
				done, err := t.serve(c, st.hello, rq)
				if err != nil {
					return
				}
				if measure {
					t.lat = append(t.lat, ms(done.Sub(sent)))
				}
			}
		}(i, t)
	}
	wg.Wait()
}

// dialWarm opens every connection and serves its warm-up rounds, checking
// each result. On error the connections opened so far are closed.
func dialWarm(ctx context.Context, addr string, streams []*stream) ([]*server.Client, error) {
	cl := make([]*server.Client, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st *stream) {
			defer wg.Done()
			c, err := server.Dial(addr, st.hello)
			if err != nil {
				errs[i] = fmt.Errorf("dial connection %d: %w", i, err)
				return
			}
			c.Timeout = clientTimeout
			cl[i] = c
			for r := 0; r < warmRounds && ctx.Err() == nil; r++ {
				rq := st.next()
				rr, err := c.Round(rq)
				if err == nil {
					err = checkResult(rq, rr)
				}
				if err != nil {
					errs[i] = fmt.Errorf("warm-up round on connection %d: %w", i, err)
					return
				}
			}
		}(i, st)
	}
	wg.Wait()
	err := errors.Join(append(errs, ctx.Err())...)
	if err != nil {
		closeAll(cl)
		return nil, err
	}
	return cl, nil
}

func closeAll(cl []*server.Client) {
	for _, c := range cl {
		if c != nil {
			c.Close()
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

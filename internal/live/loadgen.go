package live

import (
	"bufio"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"psclock/internal/register"
	"psclock/internal/simtime"
	"psclock/internal/stats"
	"psclock/internal/ta"
)

// LoadConfig describes the client population pscserve runs against the
// live registers. Every client is the same pipelined loop; Pipeline ≤ 1 is
// depth one, which is a closed loop (one operation in flight, §6.1's
// client), and K > 1 is an open-loop client that keeps up to K operations
// in flight across zipf-distributed registers.
type LoadConfig struct {
	// Clients is the number of concurrent clients; client i drives node
	// i mod nodes.
	Clients int
	// Duration bounds the run in wall time.
	Duration time.Duration
	// Rate caps each client at this many operations per second (0 = as
	// fast as the loop allows). A closed-loop client issues its next
	// operation one pace after it issued the last one, or when that one
	// returns, whichever is later. Pipelined clients pace on an absolute
	// open-loop schedule: an op is issued at its scheduled instant whether
	// or not earlier ops have completed, up to the Pipeline bound.
	Rate float64
	// WriteRatio is the probability an operation is a WRITE.
	WriteRatio float64
	// Pipeline is the per-client bound on operations in flight. ≤ 1 is a
	// closed loop; with K > 1 throughput scales as in-flight ops / per-op
	// latency instead of 1 / per-op latency.
	Pipeline int
	// Registers is the number of register instances the server hosts
	// (defaults to 1). Clients spread operations across them.
	Registers int
	// ZipfS shapes the pipelined clients' zipfian register selection
	// (P(k) ∝ 1/(v+k)^s). S ≤ 1 selects uniform, and a closed loop is
	// always uniform, so tiered latency comparisons sample every register;
	// the offset v is Registers/2, which flattens the head so the hottest
	// register stays under its per-key alternation throughput ceiling
	// (≈ nodes / per-op latency).
	ZipfS float64
	// Seed derives per-client rngs; written values are unique per
	// execution (writer = client's node, per-client sequence), satisfying
	// the §3 uniqueness assumption.
	Seed int64
	// Tiers is the per-register consistency tier map the server was
	// configured with (nil = all lin): clients stamp each read with its
	// register's tier byte, and latencies are additionally recorded into
	// per-tier reservoirs so the report can price the seq tier's read
	// discount against the lin tier on the same run.
	Tiers []register.Tier
	// Stop, when non-nil and closed, ends the run before Duration: clients
	// stop issuing, drain their in-flight tails, and return normal results.
	// This is how SIGINT/SIGTERM turns into a clean early report instead
	// of a torn-down one.
	Stop <-chan struct{}
}

// tierOf returns the register's configured tier.
func (cfg *LoadConfig) tierOf(reg int) register.Tier {
	if cfg.Tiers == nil {
		return register.TierLin
	}
	return cfg.Tiers[reg]
}

// TierLoad is one consistency tier's slice of a LoadResult.
type TierLoad struct {
	Ops, Reads, Writes int
	// ReadLat and WriteLat summarize this tier's client-observed latencies
	// from seeded reservoirs, alongside the aggregate ones.
	ReadLat, WriteLat stats.Summary
}

// LoadResult aggregates the load generator's view of a run.
type LoadResult struct {
	Ops, Reads, Writes int
	// ReadLat and WriteLat summarize client-observed latencies, issue to
	// response, from a seeded reservoir sample (percentiles over the full
	// run in bounded memory).
	ReadLat, WriteLat stats.Summary
	// Late summarizes the generator's own lateness: the instant each
	// completed operation was issued minus the instant it was scheduled
	// for — the absolute schedule for open-loop clients; for a closed loop,
	// one pace after the previous issue or the previous response, whichever
	// is later. It is what separates load the generator failed to offer
	// from load the system failed to serve.
	Late stats.Summary
	// Tier splits the run by consistency tier (indexed by register.Tier)
	// when cfg.Tiers was set; both entries are zero otherwise.
	Tier [2]TierLoad
	// PerReg counts completed operations per register instance (nil for
	// single-register runs).
	PerReg []int
	// Depth samples the clients' in-flight occupancy at each issue instant;
	// Depth.Mean() is the effective pipeline depth, the concurrency term in
	// ops/s ≈ depth × clients / latency.
	Depth stats.IntStream
	// Errors counts client-side failures (dial, write, read); a clean
	// run has zero.
	Errors int
}

// RunLoad drives the register server at addrs until the duration elapses,
// then waits for outstanding operations to complete. Client i drives node
// i mod len(addrs) over one TCP connection; all its in-flight requests
// multiplex that connection tagged with correlation IDs. A connection
// that cannot be made, or breaks, ends its client and counts as an error.
func RunLoad(addrs []string, cfg LoadConfig) LoadResult {
	if cfg.Clients <= 0 {
		cfg.Clients = len(addrs)
	}
	return runLoad(func(c int) (string, ta.NodeID) {
		return addrs[c%len(addrs)], ta.NodeID(c % len(addrs))
	}, false, cfg)
}

// RunLoadDynamic drives the same clients against endpoints that move:
// resolve maps a client to its current server address ("" while the node
// is down or repairing) and the node ID to stamp written values with.
// Clients re-resolve and re-dial whenever the connection breaks or the
// address changes — a fleet run's nodes crash, restart at fresh ports, and
// only republish once serviceable, and the load generator is expected to
// follow them rather than die with them.
//
// Operations in flight on a severed connection are neither counted nor
// timed: their invocations reached the server's recorder and complete as
// pending operations in the checker, while the client just moves on.
// Disconnections during chaos are expected, so they are retried, not
// counted as Errors; Errors stays reserved for failures with nowhere to
// retry (the run ending with a client never having connected).
func RunLoadDynamic(resolve func(client int) (addr string, node ta.NodeID), cfg LoadConfig) LoadResult {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	return runLoad(resolve, true, cfg)
}

func runLoad(resolve func(int) (string, ta.NodeID), follow bool, cfg LoadConfig) LoadResult {
	if cfg.Registers <= 0 {
		cfg.Registers = 1
	}
	rec := &loadRecorders{
		read:  stats.NewReservoir(4096, cfg.Seed*7+1),
		write: stats.NewReservoir(4096, cfg.Seed*7+2),
		late:  stats.NewReservoir(4096, cfg.Seed*7+7),
	}
	if cfg.Tiers != nil {
		for t := range rec.tierRead {
			rec.tierRead[t] = stats.NewReservoir(4096, cfg.Seed*7+3+int64(t))
			rec.tierWrite[t] = stats.NewReservoir(4096, cfg.Seed*7+5+int64(t))
		}
	}
	agg := LoadResult{PerReg: make([]int, cfg.Registers)}
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(c, &cfg, deadline, rec)
			cl.run(resolve, follow)
			res := &cl.res
			rec.mu.Lock()
			agg.Ops += res.Ops
			agg.Reads += res.Reads
			agg.Writes += res.Writes
			agg.Errors += res.Errors
			for t := range res.Tier {
				agg.Tier[t].Ops += res.Tier[t].Ops
				agg.Tier[t].Reads += res.Tier[t].Reads
				agg.Tier[t].Writes += res.Tier[t].Writes
			}
			for r, k := range res.PerReg {
				agg.PerReg[r] += k
			}
			agg.Depth.Merge(res.Depth)
			rec.mu.Unlock()
		}()
	}
	wg.Wait()
	agg.ReadLat = rec.read.Summary()
	agg.WriteLat = rec.write.Summary()
	agg.Late = rec.late.Summary()
	if cfg.Tiers != nil {
		for t := range rec.tierRead {
			agg.Tier[t].ReadLat = rec.tierRead[t].Summary()
			agg.Tier[t].WriteLat = rec.tierWrite[t].Summary()
		}
	}
	if cfg.Registers == 1 {
		agg.PerReg = nil
	}
	return agg
}

// loadRecorders is the clients' shared recording state: the aggregate
// reservoirs, the per-tier reservoirs (allocated only when the run is
// tiered), and the mutex serializing them.
type loadRecorders struct {
	mu          sync.Mutex
	read, write *stats.Reservoir
	late        *stats.Reservoir
	tierRead    [2]*stats.Reservoir
	tierWrite   [2]*stats.Reservoir
}

// record files one completed operation under the lock; its lateness only
// if the run is paced, so that there was a schedule to be late against. A
// latency or lateness that does not convert (negative: the wall clock
// stepped) is left out.
func (rec *loadRecorders) record(op pendingOp, done time.Time, paced bool) {
	lat, lerr := simtime.FromWall(done.Sub(op.start))
	late, terr := simtime.FromWall(op.late)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if terr == nil && paced {
		rec.late.Add(late)
	}
	if lerr != nil {
		return
	}
	all, tiered := rec.read, rec.tierRead[op.tier]
	if op.write {
		all, tiered = rec.write, rec.tierWrite[op.tier]
	}
	all.Add(lat)
	if tiered != nil {
		tiered.Add(lat)
	}
}

// pendingOp is one issued-but-unanswered request.
type pendingOp struct {
	start time.Time
	late  time.Duration // start minus the scheduled instant
	write bool
	reg   int
	tier  register.Tier
}

// client is one load-generating client. Its state outlives connections:
// the rng, the written-value sequence and the correlation IDs carry across
// a redial, so a client that follows its node through a restart keeps
// issuing the operations its seed determines and never reuses a value.
type client struct {
	id       int
	cfg      *LoadConfig
	deadline time.Time
	rec      *loadRecorders
	res      LoadResult

	depth int           // operations in flight, at most
	pace  time.Duration // 0 = unpaced
	rng   *rand.Rand
	zipf  *rand.Zipf
	wseq  int
	reqID uint64
}

func newClient(id int, cfg *LoadConfig, deadline time.Time, rec *loadRecorders) *client {
	c := &client{
		id: id, cfg: cfg, deadline: deadline, rec: rec,
		depth: max(cfg.Pipeline, 1),
		rng:   rand.New(rand.NewSource(cfg.Seed*611953 + int64(id))),
	}
	c.res.PerReg = make([]int, cfg.Registers)
	if cfg.Rate > 0 {
		c.pace = time.Duration(float64(time.Second) / cfg.Rate)
	}
	if c.depth > 1 && cfg.Registers > 1 && cfg.ZipfS > 1 {
		v := max(float64(cfg.Registers)/2, 1)
		c.zipf = rand.NewZipf(c.rng, cfg.ZipfS, v, uint64(cfg.Registers-1))
	}
	return c
}

// over reports whether the run has ended: Stop closed (a nil Stop never
// is) or the deadline passed.
func (c *client) over() bool {
	select {
	case <-c.cfg.Stop:
		return true
	default:
		return !time.Now().Before(c.deadline)
	}
}

// run connects to wherever resolve says the client's node is and drives
// sessions until the run is over. Without follow, the first failure to
// connect or broken connection ends the client with an error; with it,
// both are retried at the node's next address, and the only error is
// never having connected at all.
func (c *client) run(resolve func(int) (string, ta.NodeID), follow bool) {
	connected := false
	for {
		if addr, node := resolve(c.id); addr == "" {
			// Node down or repairing: hold position until it republishes.
			time.Sleep(20 * time.Millisecond)
		} else if conn, err := net.Dial("tcp", addr); err == nil {
			connected = true
			err = c.session(conn, node, func() bool {
				a, _ := resolve(c.id)
				return a != addr
			})
			if err == nil {
				return // the run is over and the in-flight tail has drained
			}
			if !follow {
				c.res.Errors++
				return
			}
		} else if follow {
			time.Sleep(50 * time.Millisecond)
		} else {
			c.res.Errors++
			return
		}
		if c.over() {
			break
		}
	}
	if !connected {
		c.res.Errors++
	}
}

var (
	errMoved = errors.New("live: client's node moved")
	errLost  = errors.New("live: response lost")
)

// session drives one connection: a sender (this goroutine) that issues
// requests as the schedule and the pipeline bound allow, and a receiver
// that matches responses by correlation ID and frees their slots.
// Throughput comes from overlap: with K ops in flight at mean latency L
// the client completes ≈ K/L ops per second, while each individual port
// still sees at most one outstanding op (the server's alternation
// discipline). It returns nil when the run is over and the in-flight tail
// has drained, errMoved when moved reports the node has a new address, and
// the failure when the connection breaks; in the last two cases the
// operations still in flight are abandoned, neither counted nor timed.
func (c *client) session(conn net.Conn, node ta.NodeID, moved func() bool) error {
	var (
		pmu     sync.Mutex
		pending = make(map[uint64]pendingOp, c.depth)
		// free holds one token per unused pipeline slot, stamped with the
		// instant the slot's last response arrived (zero if never used).
		free    = make(chan time.Time, c.depth)
		drained atomic.Bool // every op is answered: the next read error is the sender's wake-up
		rerr    error       // the receiver's exit status, set before rdead closes
		rdead   = make(chan struct{})
	)
	for i := 0; i < c.depth; i++ {
		free <- time.Time{}
	}
	go func() {
		defer close(rdead)
		br := bufio.NewReaderSize(conn, 16<<10)
		for {
			resp, err := readWireResp(br)
			if err != nil {
				if !drained.Load() {
					rerr = err
				}
				return
			}
			now := time.Now()
			pmu.Lock()
			op, ok := pending[resp.ID]
			delete(pending, resp.ID)
			pmu.Unlock()
			if ok {
				c.complete(op, now)
			}
			// Every response answers one sent request; free its slot.
			select {
			case free <- now:
			default:
			}
		}
	}()
	// end closes the connection and joins the receiver.
	end := func(err error) error {
		conn.Close()
		<-rdead
		return err
	}

	// Requests buffer in bw and flush only when the sender is about to
	// block (pipeline full, pacing sleep, or drain), so a burst of issues
	// costs one write syscall; the flush-before-block ordering makes the
	// buffer deadlock-free — nothing ever waits on a request still sitting
	// in it.
	bw := bufio.NewWriterSize(conn, 16<<10)
	var sbuf []byte
	next := time.Now() // the next issue's scheduled instant (paced runs)
	for {
		// Bound the pipeline: take a free slot, flushing before blocking.
		var freed time.Time
		select {
		case freed = <-free:
		default:
			if err := bw.Flush(); err != nil {
				return end(err)
			}
			select {
			case freed = <-free:
			case <-rdead:
				return end(rerr)
			}
		}
		sched := next
		if c.pace > 0 {
			if c.depth == 1 && freed.After(sched) {
				sched = freed // closed loop: never before the last response
			}
			if !sched.Before(c.deadline) {
				break
			}
			if rest := time.Until(sched); rest > 0 {
				if err := bw.Flush(); err != nil {
					return end(err)
				}
				time.Sleep(rest)
			}
		}
		if c.over() {
			break
		}
		if moved() {
			return end(errMoved)
		}
		start := time.Now()
		if c.depth == 1 {
			next = start.Add(c.pace) // closed loop: a pace after this issue
		} else {
			next = next.Add(c.pace) // open loop: the absolute schedule
		}

		reg := 0
		if c.cfg.Registers > 1 {
			if c.zipf != nil {
				reg = int(c.zipf.Uint64())
			} else {
				reg = c.rng.Intn(c.cfg.Registers)
			}
		}
		c.reqID++
		tier := c.cfg.tierOf(reg)
		req := wireReq{ID: c.reqID, Reg: reg, Op: register.ActRead, Tier: tier}
		isWrite := c.rng.Float64() < c.cfg.WriteRatio
		if isWrite {
			req.Op = register.ActWrite
			req.Val = register.Value{Writer: node, Seq: c.id*1_000_000 + c.wseq}
			c.wseq++
		}
		pmu.Lock()
		c.res.Depth.Add(len(pending))
		pending[c.reqID] = pendingOp{start: start, late: start.Sub(sched), write: isWrite, reg: reg, tier: tier}
		pmu.Unlock()
		sbuf = appendWireReq(sbuf[:0], req)
		if _, err := bw.Write(sbuf); err != nil {
			return end(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return end(err)
	}
	// Drain: the sender left the loop holding one slot, and the in-flight
	// tail is answered once it holds them all (bounded, so a lost response
	// cannot hang the client). Then expire the read deadline so the idle
	// receiver's blocked read returns.
	timeout := time.After(10 * time.Second)
	for held := 1; held < c.depth; held++ {
		select {
		case <-free:
		case <-rdead:
			return end(rerr)
		case <-timeout:
			return end(errLost)
		}
	}
	drained.Store(true)
	conn.SetReadDeadline(time.Now())
	return end(nil)
}

// complete counts one answered operation. Receiver goroutine only; the
// session joins it before the client's result is read.
func (c *client) complete(op pendingOp, done time.Time) {
	c.res.Ops++
	c.res.PerReg[op.reg]++
	t := &c.res.Tier[op.tier]
	t.Ops++
	if op.write {
		c.res.Writes++
		t.Writes++
	} else {
		c.res.Reads++
		t.Reads++
	}
	c.rec.record(op, done, c.pace > 0)
}

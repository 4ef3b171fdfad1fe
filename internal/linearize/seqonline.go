package linearize

import (
	"fmt"

	"psclock/internal/simtime"
	"psclock/internal/ta"
)

// This file implements the online (streaming, windowed) checker for
// sequential consistency — the weaker condition of Attiya and Welch [2]
// that the paper's algorithm L provides, and the specification the keyed
// store's seq tier is verified against. The batch entry point
// (CheckSequentiallyConsistent) replays a history through it, so both
// paths share one engine and return identical Results, exactly as the
// linearizability checker's batch wrappers replay through Online.
//
// # Cluster graph
//
// Sequential consistency asks for ONE total order of all operations that
// (1) preserves every node's program order and (2) satisfies register
// semantics — no real-time constraint. Under the §3 uniqueness assumption
// (each value written at most once, and never the initial value), the
// total order decomposes into segments: the segment of value v opens with
// write(v) and contains exactly the reads returning v. Call the segment's
// operations the *cluster* of v; the initial value v0 owns the implicit
// first segment (no write). A valid total order exists if and only if
//
//   - no read of v precedes write(v) in its own node's program order
//     (the read would have to follow the write in the total order, against
//     program order — checked when the write arrives);
//   - no operation of any other cluster precedes a read of v0 in program
//     order (v0's segment is first, so such an edge is a contradiction);
//   - the directed graph on clusters, with an edge u → v whenever some
//     operation in cluster u precedes some operation in cluster v in a
//     node's program order (u ≠ v), is acyclic.
//
// Sufficiency: order segments by any topological order (v0 first; it never
// has in-edges); inside a segment the write goes first and reads follow in
// per-node program order — acyclicity forces each node's operations within
// one cluster to be consecutive in that node's program order, so no intra-
// segment conflict remains. Necessity: segments of a witness order are
// contiguous (uniqueness), so program order between clusters induces the
// edge relation on segment positions, which is therefore acyclic. This
// replaces the exponential interleaving search with incremental graph
// maintenance: O(1) amortized per operation plus edge-degree work.
//
// # Watermarks, staleness, and garbage collection
//
// Pure sequential consistency has no real-time component, so nothing ever
// provably settles: a read returning ancient v may arrive arbitrarily late
// and still be legal (ordered early in the total order). A streaming
// monitor therefore checks the Θ-bounded variant (MaxStale), in the
// specify-precisely-then-check methodology of partition consistency
// (Cheng/Higham/Kawash, arXiv 1306.0077): sequential consistency AND
//
//   - a read returning v must respond after write(v) was invoked (reads
//     observe only sent values — true of any real system);
//   - once a superseding write w' completes — one invoked more than Θ
//     after write(v) responded — reads of v must be invoked within Θ of
//     w' responding.
//
// Θ prices the end-to-end staleness of algorithm L: a value stops being
// readable once a newer update has been applied everywhere, which lags the
// newer write's response by at most c + δ + 2ε + ℓ (UPDATE application
// time vs write response, Figure 3, plus clock offset and timer lateness);
// the Θ margin on the superseding side likewise absorbs tag inversion
// between writes within 2ε. With MaxStale set, a cluster's deadline is
// min over superseding writes of res(w') + Θ; when the watermark (adjusted
// for open invocations, as in Online) passes the deadline the cluster is
// settled — no future read may join it without violating the staleness
// bound — and a settled cluster whose in-edges all come from committed
// clusters commits: it is placed in the growing total-order prefix and
// freed. Steady-state memory is O(live values per key), not O(history).
// MaxStale = 0 disables settling entirely: the engine checks pure
// sequential consistency and frees state only at Finish — the batch mode.
type SeqOnline struct {
	opt      SeqOptions
	finished bool
	final    Result

	clusters map[string]*seqCluster
	open     map[ta.NodeID][]simtime.Time
	lastOp   map[ta.NodeID]Op          // last non-dropped op, for overlap reporting
	prevC    map[ta.NodeID]*seqCluster // cluster of the node's last graph-participating op
	pends    []seqPend                 // Finish-time pending writes, fate unresolved

	committed int // clusters placed in the total-order prefix

	// Failure slots, reported at Finish with the batch checker's precedence:
	// program-order overlap, then duplicate write, then no-total-order (or
	// staleness, in the Θ-bounded mode). hardFail stops graph maintenance;
	// a duplicate write alone keeps the overlap scan running, because the
	// batch checker reports any overlap ahead of any duplicate.
	hardFail   bool
	overlapErr string
	dupErr     string
	orderErr   string
}

// SeqOptions tunes the sequential-consistency checker.
type SeqOptions struct {
	// Initial is the register's initial value v0. Written values must be
	// unique and distinct from it (§3); a write of the initial value is
	// reported as a duplicate.
	Initial string
	// MaxStale is Θ, the staleness bound enabling window garbage
	// collection: with it set, the engine checks Θ-bounded sequential
	// consistency (see the package comment above) and commits clusters as
	// the watermark passes their deadlines. Zero checks pure sequential
	// consistency with no mid-stream settling — required for batch parity,
	// unbounded-memory in the worst case. The Θ-bounded mode additionally
	// assumes written values are unique (the §3 assumption the monitored
	// workloads guarantee): a duplicate is detected only while the first
	// write's cluster is still within the window, since remembering every
	// committed value would defeat the garbage collection.
	MaxStale simtime.Duration
	// Yield, when non-nil, is called after each Advance's settle/commit
	// sweep; live monitors sharing a core with the system under test set it
	// to runtime.Gosched. No effect on the verdict.
	Yield func()
}

// Automaton is the single-key streaming-checker surface shared by the
// linearizability engine (Online) and the sequential-consistency engine
// (SeqOnline). Sharded splits a keyed stream into per-key Automata; the
// ShardedOptions.New hook selects which engine each key gets — the tiered
// store routes lin-tier keys to Online and seq-tier keys to SeqOnline.
type Automaton interface {
	// Begin declares an in-flight invocation, holding the processing bound.
	Begin(node ta.NodeID, inv simtime.Time)
	// Add submits a completed (or Finish-time pending) operation, in the
	// canonical per-node program order.
	Add(op Op)
	// Advance supplies the low-watermark: no operation will be invoked
	// before it.
	Advance(watermark simtime.Time)
	// Finish settles everything and returns the verdict. Idempotent.
	Finish() Result
}

var (
	_ Automaton = (*Online)(nil)
	_ Automaton = (*SeqOnline)(nil)
)

// seqCluster is one value's segment-in-progress: its write (once arrived),
// its reader nodes, and its edges in the cluster graph.
type seqCluster struct {
	value     string
	isInitial bool

	hasWrite  bool
	writeNode ta.NodeID
	writeRes  simtime.Time // response of the write; 0 for v0, Never when forced pending

	firstReadRes simtime.Time // earliest completed-read response (writer-unseen bound)
	readers      []ta.NodeID  // deduplicated reader nodes (intra-cluster check)

	succs    []*seqCluster // deduplicated out-edges
	preds    []*seqCluster // deduplicated in-edges
	blockers int           // uncommitted in-edge sources

	deadline  simtime.Time // staleness deadline (Never until superseded)
	settled   bool
	committed bool
}

// seqPend is a stashed Finish-time pending write: kept only if some
// completed read observed its value (then it must have taken effect),
// dropped otherwise — the same fate resolution as the batch checker's.
// Pending operations must be each node's final operation (the monitor
// submits them only at Finish), so a stashed write has no program-order
// successors and dropping it removes constraints only.
type seqPend struct {
	node  ta.NodeID
	value string
	prev  *seqCluster
}

// NewSeqOnline returns an online sequential-consistency checker.
func NewSeqOnline(opt SeqOptions) *SeqOnline {
	s := &SeqOnline{
		opt:      opt,
		clusters: make(map[string]*seqCluster),
		open:     make(map[ta.NodeID][]simtime.Time),
		lastOp:   make(map[ta.NodeID]Op),
		prevC:    make(map[ta.NodeID]*seqCluster),
	}
	// v0's cluster: conceptually written before the run began.
	s.clusters[opt.Initial] = &seqCluster{
		value: opt.Initial, isInitial: true,
		hasWrite: true, writeNode: ta.NoNode, writeRes: 0,
		firstReadRes: simtime.Never, deadline: simtime.Never,
	}
	return s
}

// Begin implements Automaton: declare an in-flight invocation on node at
// inv, holding the staleness watermark there until Add resolves it.
func (s *SeqOnline) Begin(node ta.NodeID, inv simtime.Time) {
	if s.finished {
		return
	}
	s.open[node] = append(s.open[node], inv)
}

// Add implements Automaton. Operations must arrive in per-node program
// order (invocation order — the alternation condition makes it well
// defined); pending operations are meant to be submitted just before
// Finish and must be their node's final operation.
func (s *SeqOnline) Add(op Op) {
	if s.finished {
		return
	}
	if invs := s.open[op.Node]; len(invs) > 0 {
		for i, t := range invs {
			if t == op.Inv {
				invs[i] = invs[len(invs)-1]
				invs = invs[:len(invs)-1]
				break
			}
		}
		if len(invs) == 0 {
			delete(s.open, op.Node)
		} else {
			s.open[op.Node] = invs
		}
	}
	if s.hardFail {
		return
	}
	if op.Pending() && op.Kind == Read {
		return // a pending read returned nothing: dropped before any check
	}
	// Program-order overlap: invoked before the node's previous operation
	// responded. Identical message to the batch checker's.
	if last, ok := s.lastOp[op.Node]; ok && op.Inv < last.Res && !last.Pending() {
		if s.overlapErr == "" {
			s.overlapErr = fmt.Sprintf(
				"linearize: node %d operations overlap (%v then %v): program order undefined",
				op.Node, last, op)
		}
		s.fail()
		return
	}
	s.lastOp[op.Node] = op
	if op.Kind == Write {
		if c := s.clusters[op.Value]; (c != nil && c.hasWrite) || s.pendHas(op.Value) {
			if s.dupErr == "" {
				s.dupErr = fmt.Sprintf("linearize: value %q written twice", op.Value)
			}
			return
		}
	}
	if s.dupErr != "" {
		return // verdict decided; keep consuming only for the overlap scan
	}
	if op.Pending() {
		s.pends = append(s.pends, seqPend{node: op.Node, value: op.Value, prev: s.prevC[op.Node]})
		return
	}
	c := s.cluster(op.Value)
	if op.Kind == Read {
		if c.settled {
			// The cluster's staleness deadline passed every open invocation,
			// so this read was invoked beyond Θ of the superseding write.
			if s.orderErr == "" {
				s.orderErr = fmt.Sprintf(
					"linearize: read of %q at node %d invoked past its staleness deadline (Θ=%v)",
					op.Value, op.Node, s.opt.MaxStale)
			}
			s.fail()
			return
		}
		if op.Res < c.firstReadRes {
			c.firstReadRes = op.Res
		}
		s.addReader(c, op.Node)
	} else {
		c.hasWrite = true
		c.writeNode = op.Node
		c.writeRes = op.Res
		if s.readerHas(c, op.Node) {
			// A read of this value precedes its own write in program order.
			s.noOrder()
			return
		}
		if s.opt.MaxStale > 0 {
			// This write supersedes every value whose write responded more
			// than Θ before it was invoked (the Θ margin absorbs write-tag
			// inversion within 2ε): their reads must now arrive within Θ.
			for _, d := range s.clusters {
				if d == c || !d.hasWrite || d.writeRes == simtime.Never {
					continue
				}
				if d.writeRes.Add(s.opt.MaxStale) < op.Inv {
					if dl := op.Res.Add(s.opt.MaxStale); dl < d.deadline {
						d.deadline = dl
					}
				}
			}
		}
	}
	s.link(s.prevC[op.Node], c)
	if s.hardFail {
		return
	}
	s.prevC[op.Node] = c
}

// cluster returns (creating if needed) the value's cluster.
func (s *SeqOnline) cluster(v string) *seqCluster {
	if c, ok := s.clusters[v]; ok {
		return c
	}
	c := &seqCluster{value: v, firstReadRes: simtime.Never, deadline: simtime.Never}
	s.clusters[v] = c
	return c
}

func (s *SeqOnline) pendHas(v string) bool {
	for i := range s.pends {
		if s.pends[i].value == v {
			return true
		}
	}
	return false
}

func (s *SeqOnline) addReader(c *seqCluster, n ta.NodeID) {
	if !s.readerHas(c, n) {
		c.readers = append(c.readers, n)
	}
}

func (s *SeqOnline) readerHas(c *seqCluster, n ta.NodeID) bool {
	for _, r := range c.readers {
		if r == n {
			return true
		}
	}
	return false
}

// link adds the program-order edge prev → c to the cluster graph. An edge
// into v0's cluster contradicts its mandatory first position; an edge from
// an already-committed cluster is satisfied by construction (the source is
// already placed in the prefix).
func (s *SeqOnline) link(prev, c *seqCluster) {
	if prev == nil || prev == c || prev.committed {
		return
	}
	if c.isInitial {
		s.noOrder()
		return
	}
	for _, e := range prev.succs {
		if e == c {
			return
		}
	}
	prev.succs = append(prev.succs, c)
	c.preds = append(c.preds, prev)
	c.blockers++
}

// noOrder records the generic no-total-order failure.
func (s *SeqOnline) noOrder() {
	if s.orderErr == "" {
		s.orderErr = "no sequentially consistent total order exists"
	}
	s.fail()
}

// fail makes the verdict sticky and frees the graph.
func (s *SeqOnline) fail() {
	s.hardFail = true
	s.clusters, s.prevC, s.pends = nil, nil, nil
}

// Advance implements Automaton: in the Θ-bounded mode, settle clusters
// whose staleness deadline the watermark has passed, commit every settled
// cluster whose in-edges are all committed, and fail on a definitely stuck
// settled component (a cycle). Pure mode (MaxStale = 0) is a no-op: pure
// sequential consistency never settles early. Watermarks need not be
// monotone; a stale bound settles nothing new.
func (s *SeqOnline) Advance(watermark simtime.Time) {
	if s.finished || s.hardFail || s.opt.MaxStale == 0 {
		return
	}
	b := watermark
	for _, invs := range s.open {
		for _, inv := range invs {
			if inv < b {
				b = inv
			}
		}
	}
	stuck := false
	for _, c := range s.clusters {
		if !c.settled && c.deadline <= b {
			c.settled = true
		}
		// A value read but never written: once no invocation before the
		// first observing read's response can still be open, the write can
		// no longer arrive (in the Θ-bounded spec reads observe only sent
		// values, and a write responds after it is invoked).
		if !c.hasWrite && c.firstReadRes < b {
			if s.orderErr == "" {
				s.orderErr = fmt.Sprintf(
					"linearize: value %q read but never written within the staleness window", c.value)
			}
			s.fail()
			return
		}
	}
	s.commitDrain()
	for _, c := range s.clusters {
		if c.settled && !c.committed {
			stuck = true
			break
		}
	}
	if stuck && s.definitelyStuck() {
		s.noOrder()
		return
	}
	if s.opt.Yield != nil {
		s.opt.Yield()
	}
}

// commitDrain commits every cluster that is settled, has its write, and
// has no uncommitted in-edges, repeatedly: committing one may unblock its
// successors. Committed clusters leave the map; edges from them are
// satisfied by construction. A writeless cluster never commits — its reads
// returned a value nobody (yet) wrote — so at Finish it is a leftover
// (failure), and mid-stream a read arriving after its value's cluster
// committed recreates a writeless ghost that correctly fails rather than
// silently re-committing.
func (s *SeqOnline) commitDrain() {
	progress := true
	for progress {
		progress = false
		for v, c := range s.clusters {
			if !c.settled || !c.hasWrite || c.committed || c.blockers > 0 {
				continue
			}
			c.committed = true
			s.committed++
			delete(s.clusters, v)
			for _, e := range c.succs {
				e.blockers--
			}
			progress = true
		}
	}
}

// definitelyStuck reports whether some settled, uncommitted cluster can
// never commit: every path of uncommitted blockers above it stays within
// settled clusters, which (the drain having converged) implies a cycle.
// Clusters with an unsettled blocker — whose deadline has not passed — are
// excused, transitively: their blocker may still commit later.
func (s *SeqOnline) definitelyStuck() bool {
	excused := make(map[*seqCluster]bool)
	progress := true
	for progress {
		progress = false
		for _, c := range s.clusters {
			if c.committed || excused[c] {
				continue
			}
			for _, p := range c.preds {
				if p.committed {
					continue
				}
				if !p.settled || excused[p] {
					excused[c] = true
					progress = true
					break
				}
			}
		}
	}
	for _, c := range s.clusters {
		if c.settled && !c.committed && !excused[c] {
			return true
		}
	}
	return false
}

// Finish implements Automaton: resolve pending writes (forced when some
// completed read observed the value, dropped otherwise), settle and commit
// everything, and report. Leftover clusters mean a cycle or a read of a
// never-written value — no total order. Identical to the batch checker on
// the same per-node operation sequences; idempotent.
func (s *SeqOnline) Finish() Result {
	if s.finished {
		return s.final
	}
	s.finished = true
	if !s.hardFail && s.dupErr == "" {
		for _, p := range s.pends {
			c, ok := s.clusters[p.value]
			if !ok {
				continue // unobserved: the write never took effect
			}
			c.hasWrite = true
			c.writeNode = p.node
			c.writeRes = simtime.Never
			if s.readerHas(c, p.node) {
				s.noOrder()
				break
			}
			s.link(p.prev, c)
			if s.hardFail {
				break
			}
		}
	}
	if !s.hardFail && s.dupErr == "" {
		for _, c := range s.clusters {
			c.settled = true
		}
		s.commitDrain()
		if len(s.clusters) > 0 {
			// Cycles, or reads of values never written (and not initial).
			if s.orderErr == "" {
				s.orderErr = "no sequentially consistent total order exists"
			}
		}
	}
	switch {
	case s.overlapErr != "":
		s.final = Result{OK: false, Reason: s.overlapErr}
	case s.dupErr != "":
		s.final = Result{OK: false, Reason: s.dupErr}
	case s.orderErr != "":
		s.final = Result{OK: false, Reason: s.orderErr}
	default:
		// States counts clusters committed — the incremental engine's unit
		// of work, deterministic for a given set of per-node sequences and
		// independent of Advance slicing (failed runs report zero).
		s.final = Result{OK: true, States: s.committed}
	}
	s.clusters, s.open, s.lastOp, s.prevC, s.pends = nil, nil, nil, nil, nil
	return s.final
}

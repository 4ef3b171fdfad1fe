package live

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"psclock/internal/register"
	"psclock/internal/ta"
)

// wireReq is one client request to the register server. ID is a
// client-chosen correlation tag echoed on the response, which is what
// lets a connection pipeline many requests; Reg selects the register
// instance.
type wireReq struct {
	ID  uint64
	Reg int
	// Op is register.ActRead or register.ActWrite.
	Op  string
	Val register.Value // the written value; ignored for reads
	// Tier is the consistency tier the read selects on the wire: the op
	// byte is 'r' for a lin-tier read, 's' for a seq-tier read. The server
	// validates it against the register's configured tier — a read naming
	// the wrong tier would be charged one price and verified at another,
	// so a mismatch tears the connection down. Writes cost the same on
	// both tiers and carry no tier byte.
	Tier register.Tier
}

// wireResp is the server's answer: RETURN with the read value, or ACK,
// tagged with the request's correlation ID.
type wireResp struct {
	ID  uint64
	Op  string
	Val register.Value
}

// The client-server wire format is hand-rolled varints rather than gob:
// at pipelined rates the codec runs a hundred thousand times a second on
// a host the system under test shares, and gob's per-message reflection
// was a measurable slice of the core. Requests are (uvarint id,
// uvarint reg, op byte, value for writes), responses (uvarint id,
// op byte, value for returns); values are signed varints since the
// initial value's writer is ta.NoNode = −1. Every field is
// self-delimiting, so messages need no length prefix.

func appendWireReq(dst []byte, r wireReq) []byte {
	dst = binary.AppendUvarint(dst, r.ID)
	dst = binary.AppendUvarint(dst, uint64(r.Reg))
	switch {
	case r.Op == register.ActWrite:
		dst = append(dst, 'w')
		dst = binary.AppendVarint(dst, int64(r.Val.Writer))
		dst = binary.AppendVarint(dst, int64(r.Val.Seq))
	case r.Tier == register.TierSeq:
		dst = append(dst, 's')
	default:
		dst = append(dst, 'r')
	}
	return dst
}

func readWireReq(br *bufio.Reader) (wireReq, error) {
	var r wireReq
	id, err := binary.ReadUvarint(br)
	if err != nil {
		return r, err
	}
	reg, err := binary.ReadUvarint(br)
	if err != nil {
		return r, err
	}
	op, err := br.ReadByte()
	if err != nil {
		return r, err
	}
	r.ID, r.Reg = id, int(reg)
	switch op {
	case 'r':
		r.Op = register.ActRead
	case 's':
		r.Op = register.ActRead
		r.Tier = register.TierSeq
	case 'w':
		r.Op = register.ActWrite
		w, err := binary.ReadVarint(br)
		if err != nil {
			return r, err
		}
		seq, err := binary.ReadVarint(br)
		if err != nil {
			return r, err
		}
		r.Val = register.Value{Writer: ta.NodeID(w), Seq: int(seq)}
	default:
		return r, fmt.Errorf("live: bad request op %q", op)
	}
	return r, nil
}

func appendWireResp(dst []byte, r wireResp) []byte {
	dst = binary.AppendUvarint(dst, r.ID)
	if r.Op == register.ActReturn {
		dst = append(dst, 'R')
		dst = binary.AppendVarint(dst, int64(r.Val.Writer))
		dst = binary.AppendVarint(dst, int64(r.Val.Seq))
	} else {
		dst = append(dst, 'A')
	}
	return dst
}

func readWireResp(br *bufio.Reader) (wireResp, error) {
	var r wireResp
	id, err := binary.ReadUvarint(br)
	if err != nil {
		return r, err
	}
	op, err := br.ReadByte()
	if err != nil {
		return r, err
	}
	r.ID = id
	switch op {
	case 'R':
		r.Op = register.ActReturn
		w, err := binary.ReadVarint(br)
		if err != nil {
			return r, err
		}
		seq, err := binary.ReadVarint(br)
		if err != nil {
			return r, err
		}
		r.Val = register.Value{Writer: ta.NodeID(w), Seq: int(seq)}
	case 'A':
		r.Op = register.ActAck
	default:
		return r, fmt.Errorf("live: bad response op %q", op)
	}
	return r, nil
}

// Server exposes the live registers over TCP: one listener per node, a
// varint-framed stream of wireReq/wireResp per connection, any number of
// register instances behind each node. Each (node, register) port has a worker
// goroutine that admits one operation at a time — the alternation
// condition of §6.1, enforced per port, which the monitor checks and the
// online checker's windows rely on. A connection may pipeline requests
// across ports freely: requests to different ports proceed concurrently,
// requests to one port queue on its worker, and responses return on the
// connection tagged with the request's ID in completion order.
//
// Each port worker owns a dedicated recorder ring (registered before the
// runtime starts), so the invocation-side recording path is lock-free
// end to end.
type Server struct {
	rt    *Runtime
	lns   []net.Listener
	addrs []string
	ports []*svcPort
	tiers []register.Tier // per-register tiers; nil means all lin

	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	conns  map[*svcConn]struct{}
	closed bool
}

// svcPort is one (node, register) service port: a queue of admitted
// requests, the single worker draining it, and the response slot the
// runtime's output dispatch fills.
type svcPort struct {
	node ta.NodeID
	reg  int
	reqs chan portReq
	resp chan wireResp
	prod *producer
}

// portReq is one admitted request plus the connection to answer on.
type portReq struct {
	id      uint64
	op      string
	payload any
	conn    *svcConn
}

// svcConn is one client connection's shared state: the response writer
// queue and the teardown signal both the reader and writer observe.
type svcConn struct {
	writeCh chan wireResp
	done    chan struct{}
	once    sync.Once
	conn    net.Conn
}

func (c *svcConn) close() {
	c.once.Do(func() {
		close(c.done)
		c.conn.Close()
	})
}

// portQueueDepth bounds the requests admitted but not yet invoked at one
// port; a client pipelining deeper than this into a single port blocks in
// its connection reader — TCP backpressure, not an error.
const portQueueDepth = 256

// NewServer opens one loopback listener per node and registers the
// response dispatch on rt. Must be called before rt.Start (it installs
// the runtime's OnOutput hook and the per-port recorder rings).
func NewServer(rt *Runtime) (*Server, error) {
	n, r := rt.opts.N, rt.opts.Registers
	s := &Server{
		rt:    rt,
		lns:   make([]net.Listener, n),
		addrs: make([]string, n),
		ports: make([]*svcPort, n*r),
		conns: make(map[*svcConn]struct{}),
		done:  make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		if !rt.hostsNode(i) {
			continue // a fleet daemon serves clients only for its own node
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("live: server listen for node %d: %w", i, err)
		}
		s.lns[i] = ln
		s.addrs[i] = ln.Addr().String()
	}
	for reg := 0; reg < r; reg++ {
		for i := 0; i < n; i++ {
			if !rt.hostsNode(i) {
				continue
			}
			s.ports[reg*n+i] = &svcPort{
				node: ta.NodeID(i),
				reg:  reg,
				reqs: make(chan portReq, portQueueDepth),
				resp: make(chan wireResp, 1),
				prod: rt.producer(),
			}
		}
	}
	rt.OnOutput(s.dispatch)
	return s, nil
}

// SetTiers installs the per-register consistency tiers the wire protocol
// validates reads against: a read must name its register's tier ('r' for
// lin, 's' for seq) or the connection is closed. nil (the default) means
// every register is lin-tier, the stack's historical behavior. Must be
// called before Start; len(tiers) must equal the runtime's register count.
func (s *Server) SetTiers(tiers []register.Tier) {
	s.tiers = tiers
}

// Addrs returns the per-node client-facing addresses.
func (s *Server) Addrs() []string {
	out := make([]string, len(s.addrs))
	copy(out, s.addrs)
	return out
}

// dispatch routes register responses to the waiting port worker. It runs
// on the emitting node's goroutine and must not block: the response slot
// has capacity one and the port worker guarantees one outstanding
// operation, so the buffered send always succeeds.
func (s *Server) dispatch(nodeID ta.NodeID, reg int, name string, payload any) {
	if name != register.ActReturn && name != register.ActAck {
		return
	}
	r := wireResp{Op: name}
	if v, ok := payload.(register.Value); ok {
		r.Val = v
	}
	p := s.ports[reg*s.rt.opts.N+int(nodeID)]
	if p == nil {
		return // response at a node this process doesn't serve clients for
	}
	p.resp <- r
}

// Start begins accepting client connections and launches the port
// workers. Call after rt.Start.
func (s *Server) Start() {
	for _, p := range s.ports {
		if p == nil {
			continue
		}
		p := p
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.portLoop(p)
		}()
	}
	for i, ln := range s.lns {
		if ln == nil {
			continue
		}
		i, ln := i, ln
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					s.serve(ta.NodeID(i), conn)
				}()
			}
		}()
	}
}

// portLoop is a port's worker: admit one request, invoke it (recording
// through the port's dedicated ring), wait for the register's response,
// answer the issuing connection. One request in flight per port, always.
func (s *Server) portLoop(p *svcPort) {
	for {
		var req portReq
		select {
		case req = <-p.reqs:
		case <-s.done:
			return
		}
		if err := s.rt.invoke(p.prod, p.node, p.reg, req.op, req.payload); err != nil {
			// Runtime shut down beneath us; the connection gets no answer,
			// which only teardown produces.
			return
		}
		var resp wireResp
		select {
		case resp = <-p.resp:
		case <-s.done:
			return
		}
		resp.ID = req.id
		select {
		case req.conn.writeCh <- resp:
		case <-req.conn.done:
			// Client left; the operation still completed and was recorded.
		case <-s.done:
			return
		}
	}
}

// serve handles one client connection against one node: a reader that
// validates and routes requests to port queues, and a writer that
// serializes responses back. Either side's failure tears both down.
func (s *Server) serve(nodeID ta.NodeID, conn net.Conn) {
	c := &svcConn{
		writeCh: make(chan wireResp, portQueueDepth),
		done:    make(chan struct{}),
		conn:    conn,
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		c.close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer c.close()
		// Responses coalesce: encode everything already queued into one
		// buffer and write it in a single syscall once the queue
		// momentarily drains, so a deeply pipelined connection costs one
		// write per burst rather than one per response.
		buf := make([]byte, 0, 16<<10)
		for {
			var resp wireResp
			select {
			case resp = <-c.writeCh:
			case <-c.done:
				return
			case <-s.done:
				return
			}
			buf = appendWireResp(buf[:0], resp)
		drain:
			for {
				select {
				case resp = <-c.writeCh:
					buf = appendWireResp(buf, resp)
				default:
					break drain
				}
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	br := bufio.NewReaderSize(conn, 16<<10)
	nReg := s.rt.opts.Registers
	for {
		req, err := readWireReq(br)
		if err != nil {
			return
		}
		if req.Reg < 0 || req.Reg >= nReg {
			return
		}
		if req.Op == register.ActRead {
			want := register.TierLin
			if s.tiers != nil {
				want = s.tiers[req.Reg]
			}
			if req.Tier != want {
				return // tier mismatch: wrong price, wrong checker
			}
		}
		var payload any
		if req.Op == register.ActWrite {
			payload = req.Val
		}
		select {
		case s.ports[req.Reg*s.rt.opts.N+int(nodeID)].reqs <- portReq{id: req.ID, op: req.Op, payload: payload, conn: c}:
		case <-s.done:
			return
		}
	}
}

// Close stops accepting and unblocks every port worker and connection.
// Call before rt.Stop so the server's recorder producers are quiescent
// when the runtime flushes the recorder.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.done)
	for c := range s.conns {
		c.close()
	}
	s.mu.Unlock()
	for _, ln := range s.lns {
		if ln != nil {
			ln.Close()
		}
	}
	s.wg.Wait()
}

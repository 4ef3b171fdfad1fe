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
// register instances behind each node. The server is only the wire: a
// connection's reader validates each request and puts it on its node's
// inbox, and the node — which owns every (node, register) service port as
// data, see port in runtime.go — admits one operation per port at a time
// (§6.1's alternation, which the monitor checks and the online checker's
// windows rely on), stamps it, runs it, and tells the connection the
// response. A connection may pipeline requests across ports freely:
// requests to different ports proceed concurrently, requests to one port
// wait at it in arrival order, and responses return tagged with the
// request's ID in completion order. The server's goroutines are one
// acceptor per listener and a reader and a writer per connection.
type Server struct {
	rt    *Runtime
	lns   []net.Listener
	addrs []string
	// tiers[reg] is register reg's tier, which a read must name ('r' for
	// lin, 's' for seq), and its length is how many of the runtime's
	// instances clients may address: 0 … len(tiers)−1. A request that
	// names another instance (a fleet daemon's detector) or the wrong tier
	// closes its connection.
	tiers []register.Tier

	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[*svcConn]struct{}
	closed bool
}

// svcConn is one client connection's shared state: the response queue its
// writer drains, the in-flight bound, and the teardown signal the reader
// and writer observe.
//
// The node loop sends responses on writeCh and must never block there: a
// client that stops reading would stall every timer of the node. So the
// reader takes a slot before it hands a request to the node and the writer
// gives one back for each response it dequeues; writeCh holds as many as
// there are slots, so the node's send always finds room. A client
// pipelining deeper blocks the reader on a slot — TCP backpressure, not an
// error.
type svcConn struct {
	writeCh chan wireResp
	slots   chan struct{}
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

// connInflight bounds one connection's requests handed to the node and not
// yet dequeued by its writer.
const connInflight = 256

// NewServer opens one loopback listener per hosted node and serves every
// register instance of rt, lin-tier; Deploy narrows that to the registers
// and their tiers.
func NewServer(rt *Runtime) (*Server, error) {
	n := rt.opts.N
	s := &Server{
		rt:    rt,
		lns:   make([]net.Listener, n),
		addrs: make([]string, n),
		tiers: make([]register.Tier, rt.opts.Registers),
		conns: make(map[*svcConn]struct{}),
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
	return s, nil
}

// Addrs returns the per-node client-facing addresses.
func (s *Server) Addrs() []string {
	out := make([]string, len(s.addrs))
	copy(out, s.addrs)
	return out
}

// Start begins accepting client connections. Call after rt.Start.
func (s *Server) Start() {
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

// serve handles one client connection against one node: a reader that
// validates requests and hands them to the node, and a writer that
// serializes the node's responses back. Either side's failure tears both
// down.
func (s *Server) serve(nodeID ta.NodeID, conn net.Conn) {
	c := &svcConn{
		writeCh: make(chan wireResp, connInflight),
		slots:   make(chan struct{}, connInflight),
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
			}
			buf = buf[:0]
			for more := true; more; {
				<-c.slots // the reader's, taken before this response's request was handed over
				buf = appendWireResp(buf, resp)
				select {
				case resp = <-c.writeCh:
				default:
					more = false
				}
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()
	br := bufio.NewReaderSize(conn, 16<<10)
	for {
		req, err := readWireReq(br)
		if err != nil {
			return
		}
		if req.Reg < 0 || req.Reg >= len(s.tiers) {
			return // not a register this server serves
		}
		if req.Op == register.ActRead && req.Tier != s.tiers[req.Reg] {
			return // tier mismatch: wrong price, wrong checker
		}
		inv := invocation{reg: req.Reg, name: req.Op, id: req.ID, to: c.writeCh}
		if req.Op == register.ActWrite {
			inv.payload = req.Val
		}
		select {
		case c.slots <- struct{}{}:
		case <-c.done:
			return
		}
		if s.rt.invoke(nodeID, inv) != nil {
			return // runtime shut down beneath us
		}
	}
}

// Close stops accepting and tears down every connection. Operations
// already at a node run on and are recorded: the node loops, not the
// server, are the recorder's producers, so Runtime.Stop need not wait.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
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

package fed

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/rpc"
	"slices"
	"sync"

	"github.com/mach-fl/mach/internal/codec"
)

// This file is fed's RPC layer (DESIGN.md §6): hand-framed messages, a
// client with one call in flight, and a server that runs one in-order loop
// per connection. Every request and response is one frame,
//
//	u32 length of the rest | u64 seq | method (request) or error (response) | body
//
// little-endian, the string uvarint-prefixed, and the body the message's
// fields as its wire method codes them; an error response has no body. A
// client sends wirePreamble with its first request; a server that does not
// see it serves the connection with net/rpc's gob codec and answers only
// Ping, for stock clients such as the benchmark harness's
// fed.rpc_roundtrip_us probe (rpc.Dial).
//
// Frame lifetime: a server reads each request into its connection's frame
// buffer and decodes the args into the connection's own args value, their
// codec blobs in place — Blob.Data aliases the frame until the next request
// is read. So a handler reads its arg blobs but never keeps them. The reply
// is the connection's too, reused request after request. A client copies
// reply blobs into the capacity the caller's reply already holds.

const (
	wirePreamble = "machrpc\x01"
	// maxFrame caps the bytes after a frame's length: 256 MiB holds a raw
	// (8 B/param) model of 32M parameters.
	maxFrame = 1 << 28
	// frameChunk bounds how far a frame's buffer grows ahead of the bytes
	// that have arrived, so a length that lies costs no more than is sent.
	frameChunk = 1 << 16
)

// wireMethods are the RPCs fed serves, the names each role's serve switches
// on; TestWireSamplesCoverEveryMethod holds the frame samples to them.
var wireMethods = [...]string{
	"Device.Ping", "Device.Estimate", "Device.TrainMany", "Device.GetBase", "Device.CloudRound",
	"Edge.Ping", "Edge.Comm", "Edge.Step",
}

// wireMsg is a message fed sends: every arg and reply type of protocol.go,
// by pointer. Its wire method names its fields once, in order, for both
// directions, so encoder and decoder cannot disagree.
type wireMsg interface{ wire(w *wirer) }

// wirer encodes or decodes messages one field at a time. Encoding appends to
// buf. Decoding consumes buf: the first malformed field sets err, and the
// fields after it are left as they were, so wire methods run straight through
// and the caller checks once. A decoded codec payload aliases buf, or with own
// set is copied into the capacity the destination blob already holds.
type wirer struct {
	buf []byte
	dec bool
	own bool
	err error
}

// frame appends one frame to buf: the header, then msg (none when nil). name
// is the method of a request or the error of a response.
//
//machlint:allocfree
func (w *wirer) frame(seq uint64, name string, msg wireMsg) {
	at := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0)
	w.u64(&seq)
	w.str(&name)
	if msg != nil {
		msg.wire(w)
	}
	binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
}

// readFrame reads one frame into buf, grown as needed, and returns it
// without its length prefix. A frame over maxFrame is refused; under it the
// buffer grows at most frameChunk (or its own length) ahead of the bytes
// read.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	head, err := r.Peek(4)
	if err != nil {
		return buf, err
	}
	n := int(binary.LittleEndian.Uint32(head))
	r.Discard(4) //machlint:allow errdrop discarding bytes Peek has buffered cannot fail
	if n > maxFrame {
		return buf, fmt.Errorf("fed: wire: frame of %d bytes over the %d-byte cap", n, maxFrame)
	}
	buf = buf[:0]
	for len(buf) < n {
		at, more := len(buf), n-len(buf)
		if cap(buf) < n {
			more = min(more, max(at, frameChunk))
		}
		buf = slices.Grow(buf, more)[:at+more]
		if _, err := io.ReadFull(r, buf[at:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// openFrame starts decoding a frame read by readFrame: it returns the
// header's seq and name and a wirer at the body.
func openFrame(frame []byte, own bool) (seq uint64, name []byte, w wirer) {
	w = wirer{buf: frame, dec: true, own: own}
	w.u64(&seq)
	w.bytes(&name)
	return seq, name, w
}

// finish decodes msg from the rest of the frame, which it must consume.
func (w *wirer) finish(msg wireMsg) error {
	msg.wire(w)
	if w.err == nil && len(w.buf) != 0 {
		w.fail("body: trailing bytes")
	}
	return w.err
}

func (w *wirer) fail(what string) {
	if w.err == nil {
		w.err = fmt.Errorf("fed: wire: malformed %s", what)
	}
	w.buf = nil
}

func (w *wirer) next(n int, what string) []byte {
	if w.err != nil || n > len(w.buf) {
		w.fail(what)
		return nil
	}
	p := w.buf[:n:n]
	w.buf = w.buf[n:]
	return p
}

// uvarint decodes a uvarint in its shortest form.
func (w *wirer) uvarint() uint64 {
	if w.err != nil {
		return 0
	}
	v, n := binary.Uvarint(w.buf)
	if n <= 0 || n > 1 && w.buf[n-1] == 0 { // overflow, truncated or not shortest
		w.fail("varint")
		return 0
	}
	w.buf = w.buf[n:]
	return v
}

// count writes n, or reads a count of elements that take at least size bytes
// each, refusing one the rest of the frame cannot hold before anything is
// sized by it.
func (w *wirer) count(n, size int) int {
	if !w.dec {
		w.buf = binary.AppendUvarint(w.buf, uint64(n))
		return n
	}
	if c := w.uvarint(); c <= uint64(len(w.buf)/size) {
		return int(c)
	}
	w.fail("count")
	return 0
}

// u64 is eight little-endian bytes.
func (w *wirer) u64(p *uint64) {
	if !w.dec {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, *p)
	} else if b := w.next(8, "fixed64"); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

func (w *wirer) f64(p *float64) {
	u := math.Float64bits(*p)
	w.u64(&u)
	*p = math.Float64frombits(u)
}

// id is a uvarint.
func (w *wirer) id(p *uint64) {
	if !w.dec {
		w.buf = binary.AppendUvarint(w.buf, *p)
	} else {
		*p = w.uvarint()
	}
}

// i64 is a zigzag varint, binary.AppendVarint's format.
func (w *wirer) i64(p *int64) {
	u := uint64(*p<<1) ^ uint64(*p>>63)
	w.id(&u)
	*p = int64(u>>1) ^ -int64(u&1)
}

func (w *wirer) int(p *int) {
	v := int64(*p)
	w.i64(&v)
	*p = int(v)
}

func (w *wirer) u8(p *uint8) {
	if !w.dec {
		w.buf = append(w.buf, *p)
	} else if b := w.next(1, "byte"); b != nil {
		*p = b[0]
	}
}

// flag is one byte, 0 or 1.
func (w *wirer) flag(p *bool) {
	var b uint8
	if *p {
		b = 1
	}
	w.u8(&b)
	if b > 1 {
		w.fail("bool")
	}
	*p = b == 1
}

// bytes is a counted byte string; decoded, it aliases the frame, or is nil
// when empty.
func (w *wirer) bytes(p *[]byte) {
	n := w.count(len(*p), 1)
	if !w.dec {
		w.buf = append(w.buf, *p...)
	} else if *p = w.next(n, "bytes"); n == 0 {
		*p = nil
	}
}

func (w *wirer) str(p *string) {
	n := w.count(len(*p), 1)
	if !w.dec {
		w.buf = append(w.buf, *p...)
	} else {
		*p = string(w.next(n, "string"))
	}
}

// wireSlice is a counted slice of elements of at least size bytes each, each
// coded by elem; decoding reuses the slice's capacity.
func wireSlice[T any](w *wirer, p *[]T, size int, elem func(*wirer, *T)) {
	n := w.count(len(*p), size)
	if w.dec {
		*p = slices.Grow((*p)[:0], n)[:n]
	}
	for i := range *p {
		elem(w, &(*p)[i])
	}
}

func (w *wirer) ints(p *[]int)       { wireSlice(w, p, 1, (*wirer).int) }
func (w *wirer) floats(p *[]float64) { wireSlice(w, p, 8, (*wirer).f64) }

func (w *wirer) blob(b *codec.Blob) {
	w.u8((*uint8)(&b.Scheme))
	w.id(&b.Baseline)
	w.int(&b.Count)
	data := b.Data
	w.bytes(&data)
	if w.own {
		b.Data = append(b.Data[:0], data...)
	} else {
		b.Data = data
	}
}

func (*PingArgs) wire(*wirer)        {}
func (m *PingReply) wire(w *wirer)   { w.str(&m.Role) }
func (*CloudRoundReply) wire(*wirer) {}
func (*CommArgs) wire(*wirer)        {}

func (m *EstimateArgs) wire(w *wirer) {
	w.int(&m.Step)
	w.ints(&m.Devices)
	w.u64(&m.Span.Parent)
}

func (m *EstimateReply) wire(w *wirer) {
	w.floats(&m.Estimates)
	w.ints(&m.Sizes)
}

func (m *TrainManyArgs) wire(w *wirer) {
	w.int(&m.Step)
	w.int(&m.Edge)
	w.ints(&m.Devices)
	w.floats(&m.Weights)
	w.id(&m.BaseID)
	w.flag(&m.HasBase)
	w.blob(&m.Base)
	w.u8((*uint8)(&m.Scheme))
	w.int(&m.Hyper.LocalEpochs)
	w.int(&m.Hyper.BatchSize)
	w.f64(&m.Hyper.LearningRate)
	w.id(&m.NextID)
	w.u64(&m.Span.Parent)
}

func (m *TrainManyReply) wire(w *wirer) {
	w.blob(&m.Sum)
	w.flag(&m.HasSum)
}

func (m *GetBaseArgs) wire(w *wirer) {
	w.int(&m.Edge)
	w.id(&m.ID)
	w.u64(&m.Span.Parent)
}

func (m *GetBaseReply) wire(w *wirer) { w.blob(&m.Model) }

func (m *CloudRoundArgs) wire(w *wirer) {
	w.int(&m.Step)
	w.u64(&m.Span.Parent)
}

func (m *EdgeStepArgs) wire(w *wirer) {
	w.int(&m.Step)
	w.ints(&m.Members)
	w.f64(&m.Capacity)
	w.u8((*uint8)(&m.Scheme))
	w.blob(&m.Model)
	w.id(&m.ModelID)
	w.flag(&m.HasModel)
	w.flag(&m.WantModel)
	w.u64(&m.Span.Parent)
}

func (m *EdgeStepReply) wire(w *wirer) {
	w.blob(&m.Model)
	w.flag(&m.HasModel)
	w.int(&m.Sampled)
}

func (m *CommReply) wire(w *wirer) {
	w.i64(&m.UplinkBytes)
	w.i64(&m.DownlinkBytes)
	w.i64(&m.Uploads)
	w.i64(&m.Downloads)
}

// client is fed's end of a connection to a fed server, with one call in
// flight: send writes a request and holds the client until recv has read
// its reply into the caller's value. A fan-out sends on several clients,
// then receives from each in call order. It cannot deadlock: a connection
// has at most one request outstanding, so its server is reading when the
// request arrives.
type client struct {
	mu   sync.Mutex // held from a request's send to its reply's recv
	conn io.ReadWriteCloser
	r    *bufio.Reader
	out  wirer  // the request frame being written
	in   []byte // the reply frame being read
	body wirer  // at the body of in
	seq  uint64 // the request in flight's, or the next one's; 0 carries the preamble
}

func newClient(conn io.ReadWriteCloser) *client {
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

// call makes one RPC: method with args, its result decoded into reply.
func (c *client) call(method string, args, reply wireMsg) error {
	if err := c.send(method, args); err != nil {
		return err
	}
	return c.recv(reply)
}

// send writes a request; unless it fails, the client is held for recv.
func (c *client) send(method string, args wireMsg) error {
	c.mu.Lock()
	c.out.buf = c.out.buf[:0]
	if c.seq == 0 {
		c.out.buf = append(c.out.buf, wirePreamble...)
	}
	at := len(c.out.buf)
	c.out.frame(c.seq, method, args)
	if n := len(c.out.buf) - at - 4; n > maxFrame {
		c.mu.Unlock()
		return fmt.Errorf("fed: wire: %s request of %d bytes over the %d-byte cap", method, n, maxFrame)
	}
	if _, err := c.conn.Write(c.out.buf); err != nil {
		return c.fail(err)
	}
	return nil
}

// recv reads the reply to the request send wrote, and releases the client.
// A reply that is not that request's closes the connection.
func (c *client) recv(reply wireMsg) error {
	var err error
	if c.in, err = readFrame(c.r, c.in); err != nil {
		return c.fail(err)
	}
	seq, errMsg, body := openFrame(c.in, true)
	switch c.body = body; {
	case body.err != nil:
		return c.fail(body.err)
	case seq != c.seq:
		return c.fail(fmt.Errorf("fed: wire: reply %d to request %d", seq, c.seq))
	}
	c.seq++
	defer c.mu.Unlock()
	if len(errMsg) != 0 {
		return errors.New(string(errMsg))
	}
	return c.body.finish(reply)
}

// fail closes the connection after err left it out of step, and releases
// the client: every later call fails.
func (c *client) fail(err error) error {
	c.conn.Close() //machlint:allow errdrop the call already failed with err; the close only stops later calls
	c.mu.Unlock()
	return err
}

// close closes the connection, failing a call in flight.
func (c *client) close() error { return c.conn.Close() }

// A server is what a listener serves. serve decodes a framed request for
// method from body into the connection's msgs, runs the handler and returns
// the reply, which the connection writes and reuses. A stock client reaches
// only ping.
type server interface {
	serve(m *msgs, method []byte, body *wirer) (wireMsg, error)
	ping(*PingArgs, *PingReply) error
}

// msgs is one framed connection's args and replies, one of each per RPC,
// reused request after request.
type msgs struct {
	ping      PingReply
	estimate  EstimateArgs
	estimates EstimateReply
	train     TrainManyArgs
	trained   TrainManyReply
	getBase   GetBaseArgs
	base      GetBaseReply
	round     CloudRoundArgs
	comm      CommReply
	step      EdgeStepArgs
	stepped   EdgeStepReply
}

// handle decodes args from body and, when they decode, serves them with h
// into reply.
func handle[A, R wireMsg](body *wirer, args A, reply R, h func(A, R) error) (wireMsg, error) {
	if err := body.finish(args); err != nil {
		return nil, err
	}
	return reply, h(args, reply)
}

// stockPing is all of a fed server that a stock net/rpc client reaches.
type stockPing func(*PingArgs, *PingReply) error

// Ping answers a stock client's Device.Ping or Edge.Ping.
func (p stockPing) Ping(args PingArgs, reply *PingReply) error { return p(&args, reply) }

// rpcListener is a TCP listener serving a server. It tracks the connections
// it accepted, so that Close stops serving them too.
type rpcListener struct {
	net.Listener
	srv   server
	stock *rpc.Server // srv's Ping under the role's name, for stock clients
	mu    sync.Mutex
	conns map[net.Conn]bool // the connections being served; nil once closed
}

// listen serves srv, whose stock clients call it role ("Device" or "Edge"),
// on a TCP listener at addr until Close.
func listen(srv server, role, addr string) (*rpcListener, error) {
	stock := rpc.NewServer()
	if err := stock.RegisterName(role, stockPing(srv.ping)); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &rpcListener{Listener: ln, srv: srv, stock: stock, conns: map[net.Conn]bool{}}
	go l.acceptLoop()
	return l, nil
}

// acceptLoop serves every connection l accepts until l closes.
func (l *rpcListener) acceptLoop() {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		closed := l.conns == nil
		if !closed {
			l.conns[conn] = true
		}
		l.mu.Unlock()
		if closed {
			conn.Close() //machlint:allow errdrop accepted as the listener closed; never served
			return
		}
		go func() {
			l.serveConn(conn)
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}()
	}
}

// Close stops the listener and closes the connections still being served,
// reporting the listener's error.
func (l *rpcListener) Close() error {
	err := l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for conn := range l.conns {
		conn.Close() //machlint:allow errdrop the server is going away; the peer sees the close
	}
	l.conns = nil
	return err
}

// serveConn serves one connection: with the frame codec when it opens with
// wirePreamble, else with net/rpc's gob codec (a stock client).
func (l *rpcListener) serveConn(conn net.Conn) {
	r := bufio.NewReader(conn)
	head, err := r.Peek(len(wirePreamble))
	switch {
	case err != nil: // the peer left before its first request
	case string(head) != wirePreamble:
		l.stock.ServeConn(struct {
			io.Reader
			io.Writer
			io.Closer
		}{r, conn, conn})
		return
	default:
		r.Discard(len(wirePreamble)) //machlint:allow errdrop discarding bytes Peek has buffered cannot fail
		serveFrames(l.srv, r, conn)
	}
	conn.Close() //machlint:allow errdrop the peer left or the connection failed; no one to report to
}

// serveFrames serves srv's requests from r in order, each read into one
// frame buffer and answered on w before the next is read. A request whose
// body does not decode, or whose method srv does not serve, gets an error
// response; a frame that does not parse, or a failed write, ends the
// connection.
func serveFrames(srv server, r *bufio.Reader, w io.Writer) {
	var frame, method []byte
	var seq uint64
	var out, body wirer
	var m msgs
	for {
		var err error
		if frame, err = readFrame(r, frame); err != nil {
			return
		}
		if seq, method, body = openFrame(frame, false); body.err != nil {
			return
		}
		reply, err := srv.serve(&m, method, &body)
		var errMsg string
		if err != nil {
			errMsg, reply = err.Error(), nil
		}
		out.buf = out.buf[:0]
		out.frame(seq, errMsg, reply)
		if _, err := w.Write(out.buf); err != nil {
			return
		}
	}
}

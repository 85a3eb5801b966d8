package fed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"net/rpc"
	"slices"
	"sync"

	"github.com/mach-fl/mach/internal/codec"
)

// This file is fed's wire format (DESIGN.md §6): net/rpc's dispatch over a
// hand-framed codec. Every request and response is one frame,
//
//	u32 length of the rest | u64 seq | method (request) or error (response) | body
//
// little-endian, the string uvarint-prefixed, and the body the message's
// fields as its wire method codes them. A client sends wirePreamble with its
// first request; a server that does not see it serves the connection with
// net/rpc's gob codec, for stock clients such as the benchmark harness's
// fed.rpc_roundtrip_us probe (rpc.Dial).
//
// Frame lifetime: a server reads each request into a pooled frame, decodes
// the args' codec blobs in place — Blob.Data aliases the frame — and returns
// the frame to the pool when it writes the response with that seq. So a
// handler reads its arg blobs but never keeps them. A client copies reply
// blobs into the reply's own capacity and reuses its read frame.

const (
	wirePreamble = "machrpc\x01"
	// maxFrame caps the bytes after a frame's length: 256 MiB holds a raw
	// (8 B/param) model of 32M parameters.
	maxFrame = 1 << 28
	// frameChunk bounds how far a frame's buffer grows ahead of the bytes
	// that have arrived, so a length that lies costs no more than is sent.
	frameChunk = 1 << 16
)

// wireMethods are the RPCs fed serves; the server names a request's method
// with these strings instead of allocating one per request.
var wireMethods = [...]string{
	"Device.Ping", "Device.Estimate", "Device.TrainMany", "Device.GetBase", "Device.CloudRound",
	"Edge.Ping", "Edge.Comm", "Edge.Step",
}

// framePool holds the servers' request frames, blobPool the codec payload
// buffers of outgoing models (TrainMany sums, the bases TrainMany carries),
// floatPool the estimates Estimate replies with.
var (
	framePool = sync.Pool{New: func() any { return new([]byte) }}
	blobPool  = sync.Pool{New: func() any { return new([]byte) }}
	floatPool = sync.Pool{New: func() any { return new([]float64) }}
)

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

// finish decodes body, a message pointer (nil skips it: an error response,
// or a request net/rpc cannot serve), from the rest of the frame, which it
// must consume.
func (w *wirer) finish(body any) error {
	if body == nil {
		return nil
	}
	msg, ok := body.(wireMsg)
	if !ok {
		return fmt.Errorf("fed: wire: %T is not a message pointer", body)
	}
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

func (m *EstimateReply) wire(w *wirer) { w.floats(&m.Estimates) }

func (m *TrainManyArgs) wire(w *wirer) {
	w.int(&m.Step)
	w.int(&m.Edge)
	w.ints(&m.Devices)
	w.id(&m.BaseID)
	w.flag(&m.HasBase)
	w.blob(&m.Base)
	w.u8((*uint8)(&m.Scheme))
	w.int(&m.Hyper.LocalEpochs)
	w.int(&m.Hyper.BatchSize)
	w.f64(&m.Hyper.LearningRate)
	w.flag(&m.Advance)
	w.id(&m.NextID)
	w.u64(&m.Span.Parent)
}

func (m *TrainManyReply) wire(w *wirer) {
	w.blob(&m.Sum)
	w.flag(&m.HasSum)
}

// lent is a reply's buffer, a slice pointer borrowed from pool, which
// wireDone returns once the server codec has copied the reply into its frame.
type lent struct {
	pool *sync.Pool
	buf  any
}

func (l *lent) wireDone() {
	if l.pool != nil {
		l.pool.Put(l.buf)
		*l = lent{}
	}
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

// clientCodec is the client half: net/rpc serializes WriteRequest calls, and
// its one input goroutine reads the responses.
type clientCodec struct {
	conn    io.ReadWriteCloser
	r       *bufio.Reader
	enc     wirer  // the request frame being written
	rbuf    []byte // the response frame being read
	body    wirer  // at the unread body of rbuf
	greeted bool   // the preamble has gone out
}

// newClient opens a fed RPC client over conn. Its calls pass args and reply
// by pointer.
func newClient(conn io.ReadWriteCloser) *rpc.Client {
	return rpc.NewClientWithCodec(&clientCodec{conn: conn, r: bufio.NewReader(conn)})
}

func (c *clientCodec) WriteRequest(req *rpc.Request, body any) error {
	msg, ok := body.(wireMsg)
	if !ok {
		return fmt.Errorf("fed: wire: %T is not a message pointer", body)
	}
	c.enc.buf = c.enc.buf[:0]
	if !c.greeted {
		c.enc.buf = append(c.enc.buf, wirePreamble...)
	}
	at := len(c.enc.buf)
	c.enc.frame(req.Seq, req.ServiceMethod, msg)
	if n := len(c.enc.buf) - at - 4; n > maxFrame {
		return fmt.Errorf("fed: wire: %s request of %d bytes over the %d-byte cap", req.ServiceMethod, n, maxFrame)
	}
	c.greeted = true
	_, err := c.conn.Write(c.enc.buf)
	return err
}

func (c *clientCodec) ReadResponseHeader(resp *rpc.Response) error {
	var err error
	if c.rbuf, err = readFrame(c.r, c.rbuf); err != nil {
		return err
	}
	var msg []byte
	resp.Seq, msg, c.body = openFrame(c.rbuf, true)
	resp.Error = string(msg)
	return c.body.err
}

func (c *clientCodec) ReadResponseBody(body any) error { return c.body.finish(body) }

func (c *clientCodec) Close() error { return c.conn.Close() }

// serverCodec is the server half. net/rpc calls the Read methods from one
// goroutine and WriteResponse from the handlers' goroutines, one at a time.
type serverCodec struct {
	conn io.ReadWriteCloser
	r    *bufio.Reader
	enc  wirer // the response frame being written
	body wirer // at the unread body of the last request

	mu      sync.Mutex
	pending map[uint64]*[]byte // seq → request frame, until its response is written
}

func (c *serverCodec) ReadRequestHeader(req *rpc.Request) error {
	fp := framePool.Get().(*[]byte)
	var err error
	if *fp, err = readFrame(c.r, *fp); err != nil {
		framePool.Put(fp)
		return err
	}
	var method []byte
	req.Seq, method, c.body = openFrame(*fp, false)
	c.mu.Lock()
	_, dup := c.pending[req.Seq]
	if c.body.err == nil && !dup {
		c.pending[req.Seq] = fp
	}
	c.mu.Unlock()
	switch {
	case c.body.err != nil:
		err = c.body.err
	case dup:
		err = fmt.Errorf("fed: wire: request %d is already in flight", req.Seq)
	default:
		req.ServiceMethod = methodName(method)
		return nil
	}
	framePool.Put(fp)
	return err
}

// methodName is the method a request names, one of wireMethods' strings when
// it is one.
func methodName(p []byte) string {
	for _, m := range wireMethods {
		if string(p) == m {
			return m
		}
	}
	return string(p)
}

func (c *serverCodec) ReadRequestBody(body any) error { return c.body.finish(body) }

func (c *serverCodec) WriteResponse(resp *rpc.Response, body any) error {
	c.mu.Lock()
	fp := c.pending[resp.Seq]
	delete(c.pending, resp.Seq)
	c.mu.Unlock()
	if fp != nil {
		framePool.Put(fp) // the handler has returned: nothing reads its args
	}
	msg, _ := body.(wireMsg)
	errMsg := resp.Error
	if errMsg == "" && msg == nil {
		errMsg = fmt.Sprintf("fed: wire: %T is not a message pointer", body)
	}
	if errMsg != "" {
		msg = nil
	}
	c.enc.buf = c.enc.buf[:0]
	c.enc.frame(resp.Seq, errMsg, msg)
	if d, ok := body.(interface{ wireDone() }); ok {
		d.wireDone()
	}
	_, err := c.conn.Write(c.enc.buf)
	return err
}

func (c *serverCodec) Close() error { return c.conn.Close() }

// rpcListener is a TCP listener serving an RPC server. It tracks the
// connections it accepted, so that Close stops serving them too.
type rpcListener struct {
	net.Listener
	mu    sync.Mutex
	conns map[net.Conn]bool // the connections being served; nil once closed
}

// listen serves srv on a TCP listener at addr until Close.
func listen(srv *rpc.Server, addr string) (*rpcListener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &rpcListener{Listener: ln, conns: map[net.Conn]bool{}}
	go l.acceptLoop(srv)
	return l, nil
}

// acceptLoop serves srv on every connection l accepts until l closes.
func (l *rpcListener) acceptLoop(srv *rpc.Server) {
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
			serveConn(srv, conn)
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
func serveConn(srv *rpc.Server, conn net.Conn) {
	r := bufio.NewReader(conn)
	head, err := r.Peek(len(wirePreamble))
	if err != nil {
		conn.Close() //machlint:allow errdrop the peer left before its first request; no one to report to
		return
	}
	if string(head) != wirePreamble {
		srv.ServeConn(struct {
			io.Reader
			io.Writer
			io.Closer
		}{r, conn, conn})
		return
	}
	r.Discard(len(wirePreamble)) //machlint:allow errdrop discarding bytes Peek has buffered cannot fail
	srv.ServeCodec(&serverCodec{conn: conn, r: r, pending: map[uint64]*[]byte{}})
}

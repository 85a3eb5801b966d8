package fed

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mach-fl/mach/internal/codec"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzFrame from frameSeeds")

// wireSample is one message of the protocol, sent under method as a request
// (its args) or a response (its reply); tag tells apart two samples of one
// message.
type wireSample struct {
	method string
	reply  bool
	msg    wireMsg
	tag    string
}

func (s wireSample) name() string {
	if s.reply {
		return s.method + "-reply" + s.tag
	}
	return s.method + "-args" + s.tag
}

// header is the string a frame of the sample carries: the method of a
// request, the empty error of a response.
func (s wireSample) header() string {
	if s.reply {
		return ""
	}
	return s.method
}

// frame is the sample's frame as the codecs write it.
func (s wireSample) frame() []byte { return encodeFrame(7, s.header(), s.msg) }

// encodeFrame is one frame as the codecs write it.
func encodeFrame(seq uint64, name string, msg wireMsg) []byte {
	var w wirer
	w.frame(seq, name, msg)
	return w.buf
}

// wireSamples lists every RPC's args and reply with every field set; the
// order is fixed, since FuzzFrame's msg byte indexes it.
func wireSamples(t testing.TB) []wireSample {
	t.Helper()
	model := make([]float64, 40)
	for i := range model {
		model[i] = math.Sin(float64(i)) / 3
	}
	blob, err := codec.Encode(codec.SchemeDelta, model, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob.Baseline = 3 // as if encoded against global 3
	span := SpanContext{Parent: 0x9E3779B97F4A7C15}
	pairs := []struct {
		method      string
		args, reply wireMsg
	}{
		{"Device.Ping", &PingArgs{}, &PingReply{Role: "device-host"}},
		{"Device.Estimate", &EstimateArgs{Step: 12, Devices: []int{5, 0, 300}, Span: span},
			&EstimateReply{Estimates: []float64{1.5, math.Inf(1), math.Copysign(0, -1)}, Sizes: []int{40, 1, 1 << 20}}},
		{"Device.TrainMany", &TrainManyArgs{
			Step: 12, Edge: 2, Devices: []int{5, 1}, Weights: []float64{0.25, 0.75}, BaseID: 41, Scheme: codec.SchemeFloat32,
			Hyper: testHyper, NextID: 1 << 40, Span: span,
		}, &TrainManyReply{Sum: blob, HasSum: true}},
		{"Device.GetBase", &GetBaseArgs{Edge: 2, ID: 42, Span: span}, &GetBaseReply{Model: blob}},
		{"Device.CloudRound", &CloudRoundArgs{Step: 15, Span: span}, &CloudRoundReply{}},
		{"Edge.Ping", &PingArgs{}, &PingReply{Role: "edge-2"}},
		{"Edge.Comm", &CommArgs{}, &CommReply{UplinkBytes: 1 << 33, DownlinkBytes: 29009403, Uploads: 506, Downloads: 482}},
		{"Edge.Step", &EdgeStepArgs{
			Step: -1, Members: []int{0, 3, 5}, Capacity: 2.5, Scheme: codec.SchemeRaw,
			Model: blob, ModelID: 4, HasModel: true, WantModel: true, Span: span,
		}, &EdgeStepReply{Model: blob, HasModel: true, Sampled: 3}},
	}
	var samples []wireSample
	for _, p := range pairs {
		samples = append(samples, wireSample{p.method, false, p.args, ""}, wireSample{p.method, true, p.reply, ""})
	}
	return append(samples, wireSample{"Device.TrainMany", false, &TrainManyArgs{
		Step: 13, Edge: 2, Devices: []int{7}, Weights: []float64{1}, BaseID: 43, Base: blob, HasBase: true, Scheme: codec.SchemeDelta,
		Hyper: testHyper, Span: span,
	}, "-base"})
}

// rawFrame frames a hand-written body under seq 7 and method name.
func rawFrame(name string, body ...byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(8+1+len(name)+len(body)))
	b = binary.LittleEndian.AppendUint64(b, 7)
	b = append(binary.AppendUvarint(b, uint64(len(name))), name...)
	return append(b, body...)
}

// frameSeed is one FuzzFrame input: which sample's type decodes the body
// (plus 128 to decode as a client, copying blob bytes), and the frame.
type frameSeed struct {
	msg   uint8
	frame []byte
}

func (s frameSeed) corpusFile() string {
	return fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%q)\n", s.msg, s.frame)
}

// frameSeeds builds the committed seed corpus: every sample's frame, whole
// and cut in half, and the malformed shapes the reader must refuse.
func frameSeeds(t testing.TB) map[string]frameSeed {
	t.Helper()
	samples := wireSamples(t)
	index := map[string]uint8{}
	seeds := map[string]frameSeed{}
	for i, s := range samples {
		f := s.frame()
		index[s.name()] = uint8(i)
		seeds[s.name()] = frameSeed{uint8(i), f}
		seeds[s.name()+"-truncated"] = frameSeed{uint8(i), f[:len(f)/2]}
	}
	step := index["Device.CloudRound-args"]
	span := make([]byte, 8)
	seeds["client-Device.TrainMany-reply"] = frameSeed{128 + index["Device.TrainMany-reply"], samples[index["Device.TrainMany-reply"]].frame()}
	seeds["bad-varint-not-shortest"] = frameSeed{step, rawFrame("Device.CloudRound", append([]byte{0x80, 0x00}, span...)...)}
	seeds["bad-varint-overflow"] = frameSeed{step, rawFrame("Device.CloudRound", append(bytes.Repeat([]byte{0xFF}, 10), append([]byte{0x01}, span...)...)...)}
	seeds["bad-trailing-byte"] = frameSeed{step, rawFrame("Device.CloudRound", append([]byte{0x02}, append(span, 0)...)...)}
	seeds["bad-count-past-frame"] = frameSeed{index["Device.Estimate-args"], rawFrame("Device.Estimate", 0x02, 0xE8, 0x07, 0x01, 0x02)}
	seeds["bad-float-count-past-frame"] = frameSeed{index["Device.Estimate-reply"], rawFrame("", 0x02, 1, 2, 3, 4, 5, 6, 7, 8)}
	seeds["bad-bool"] = frameSeed{index["Edge.Step-reply"], rawFrame("", 0, 0, 0, 0, 2, 0)}
	seeds["bad-length-over-cap"] = frameSeed{step, binary.LittleEndian.AppendUint32(nil, maxFrame+1)}
	seeds["bad-length-lies"] = frameSeed{step, append(binary.LittleEndian.AppendUint32(nil, 1<<24), make([]byte, 20)...)}
	seeds["bad-name-past-frame"] = frameSeed{step, append(binary.LittleEndian.AppendUint32(nil, 10), append(make([]byte, 8), 0x05, 'E')...)}
	return seeds
}

// TestFrameCorpusIsCurrent keeps the committed FuzzFrame corpus equal to what
// frameSeeds builds, and round-trips every sample: its frame decodes, as a
// server and as a client, into a value equal to the one encoded. Regenerate
// with `go test ./internal/fed -run TestFrameCorpusIsCurrent -update-corpus`.
func TestFrameCorpusIsCurrent(t *testing.T) {
	for _, s := range wireSamples(t) {
		for _, own := range []bool{false, true} {
			body, err := readFrame(bufio.NewReader(bytes.NewReader(s.frame())), nil)
			if err != nil {
				t.Fatal(err)
			}
			seq, name, r := openFrame(body, own)
			got := reflect.New(reflect.TypeOf(s.msg).Elem()).Interface().(wireMsg)
			if err := r.finish(got); err != nil {
				t.Fatalf("%s: %v", s.name(), err)
			}
			if seq != 7 || string(name) != s.header() {
				t.Fatalf("%s: header seq %d name %q", s.name(), seq, name)
			}
			if !bytes.Equal(encodeFrame(7, string(name), got), s.frame()) || !reflect.DeepEqual(got, s.msg) {
				t.Fatalf("%s (own %v): decoded %+v, want %+v", s.name(), own, got, s.msg)
			}
		}
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzFrame")
	seeds := frameSeeds(t)
	samples := wireSamples(t)
	for name, s := range seeds {
		_, _, _, _, err := decodeSeed(samples, s.msg, s.frame)
		if bad := strings.HasPrefix(name, "bad-") || strings.HasSuffix(name, "-truncated"); bad != (err != nil) {
			t.Errorf("seed %s: decode error %v", name, err)
		}
	}
	if *updateCorpus {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, s := range seeds {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(s.corpusFile()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var have []string
	for _, e := range entries {
		have = append(have, e.Name())
		s, ok := seeds[e.Name()]
		if !ok {
			continue // a crasher `go test -fuzz` saved here stays as a regression input
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != s.corpusFile() {
			t.Errorf("corpus file %s is stale; rerun with -update-corpus", e.Name())
		}
	}
	sort.Strings(have)
	for name := range seeds {
		if i := sort.SearchStrings(have, name); i == len(have) || have[i] != name {
			t.Errorf("corpus file %s is missing; rerun with -update-corpus", name)
		}
	}
}

// TestWireSamplesCoverEveryMethod: the frame samples, and so FuzzFrame's
// corpus, cover every RPC fed serves, in wireMethods' order.
func TestWireSamplesCoverEveryMethod(t *testing.T) {
	var methods []string
	for _, s := range wireSamples(t) {
		if !slices.Contains(methods, s.method) {
			methods = append(methods, s.method)
		}
	}
	if !slices.Equal(methods, wireMethods[:]) {
		t.Fatalf("the samples cover %v, fed serves %v", methods, wireMethods)
	}
}

// FuzzFrame feeds the frame reader and every message's wire method hostile
// bytes. Whatever the bytes: no panic; heap growth bounded by a constant plus
// a multiple of the bytes supplied, never by the lengths and counts they
// claim; and a frame that decodes re-encodes to exactly the bytes it came
// from.
func FuzzFrame(f *testing.F) {
	samples := wireSamples(f)
	f.Fuzz(func(t *testing.T, msg uint8, frame []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seq, name, dst, n, err := decodeSeed(samples, msg, frame)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(40*len(frame)+1<<18); grew > limit {
			t.Fatalf("decoding a %d-byte input allocated %d bytes (limit %d)", len(frame), grew, limit)
		}
		if err != nil {
			return
		}
		if again := encodeFrame(seq, string(name), dst); !bytes.Equal(again, frame[:n]) {
			t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", again, frame[:n])
		}
	})
}

// decodeSeed decodes a FuzzFrame input as a codec does: one frame off the
// bytes, its header, then its body into a new value of the sample type msg
// picks, as a client when msg ≥ 128. n is the frame's length on the wire.
func decodeSeed(samples []wireSample, msg uint8, frame []byte) (seq uint64, name []byte, dst wireMsg, n int, err error) {
	dst = reflect.New(reflect.TypeOf(samples[int(msg&127)%len(samples)].msg).Elem()).Interface().(wireMsg)
	body, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	seq, name, r := openFrame(body, msg >= 128)
	return seq, name, dst, 4 + len(body), r.finish(dst)
}

// TestStockClientsServed: a stock net/rpc client — rpc.Dial, gob — reaches
// both kinds of server next to fed's own clients. The benchmark harness's
// fed.rpc_roundtrip_us probe dials a device host that way; it is why servers
// keep net/rpc's gob codec for connections that open without the preamble.
func TestStockClientsServed(t *testing.T) {
	d := deploy(t, 4, 1, 1, 1, codec.SchemeDelta)
	defer d.close()
	for _, c := range []struct {
		method, addr, role string
	}{
		{"Device.Ping", d.devices[0].listener.Addr().String(), "device-host"},
		{"Edge.Ping", d.edges[0].listener.Addr().String(), "edge-0"},
	} {
		stock, err := rpc.Dial("tcp", c.addr)
		if err != nil {
			t.Fatal(err)
		}
		var read, wrote atomic.Int64
		framed, err := dialCounting(c.addr, &read, &wrote)
		if err != nil {
			t.Fatal(err)
		}
		for _, client := range []struct {
			call  func(method string, args, reply any) error
			close func() error
		}{
			{stock.Call, stock.Close},
			{func(method string, args, reply any) error {
				return framed.call(method, args.(wireMsg), reply.(wireMsg))
			}, framed.close},
		} {
			var rep PingReply
			if err := client.call(c.method, &PingArgs{}, &rep); err != nil {
				t.Fatalf("%s: %v", c.method, err)
			}
			if rep.Role != c.role {
				t.Fatalf("%s: role %q, want %q", c.method, rep.Role, c.role)
			}
			if err := client.close(); err != nil {
				t.Fatal(err)
			}
		}
		// The preamble, then one frame each way: length, seq, the method or
		// an empty error, and the body.
		if want := int64(len(wirePreamble) + 4 + 8 + 1 + len(c.method)); wrote.Load() != want {
			t.Fatalf("%s: the framed client wrote %d bytes, want %d", c.method, wrote.Load(), want)
		}
		if want := int64(4 + 8 + 1 + 1 + len(c.role)); read.Load() != want {
			t.Fatalf("%s: the framed client read %d bytes, want %d", c.method, read.Load(), want)
		}
	}
}

// TestSameSeedSameWireBytes: the frames are a pure function of the run, so
// two same-seed deployments measure the same bytes on every counter.
func TestSameSeedSameWireBytes(t *testing.T) {
	_, _, a := runDeployment(t, 2, codec.SchemeDelta, 6)
	_, _, b := runDeployment(t, 2, codec.SchemeDelta, 6)
	if a != b {
		t.Fatalf("same-seed deployments measured %+v and %+v", a, b)
	}
}

// TestServerRefusesMalformedFrames: a request whose body does not decode, or
// whose method the server does not serve — an unknown one, or another
// role's — is answered with an error and the connection keeps serving; a
// frame longer than the cap closes the connection before anything is
// allocated for it.
func TestServerRefusesMalformedFrames(t *testing.T) {
	d := deploy(t, 2, 1, 1, 1, codec.SchemeDelta)
	defer d.close()
	dial := func(addr string) (call func(frame []byte) (seq uint64, errMsg string, body wirer), conn net.Conn) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(wirePreamble)); err != nil {
			t.Fatal(err)
		}
		in := bufio.NewReader(conn)
		return func(frame []byte) (uint64, string, wirer) {
			t.Helper()
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			resp, err := readFrame(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			seq, msg, body := openFrame(resp, true)
			return seq, string(msg), body
		}, conn
	}
	for _, srv := range []struct {
		addr, ping, role string
		refused          [][]byte
	}{
		{d.devices[0].listener.Addr().String(), "Device.Ping", "device-host", [][]byte{
			rawFrame("Device.CloudRound", append([]byte{0x02}, make([]byte, 9)...)...), // a trailing byte
			rawFrame("Device.Nope"),
			encodeFrame(7, "Edge.Step", &EdgeStepArgs{Members: []int{0}}),
		}},
		{d.edges[0].listener.Addr().String(), "Edge.Ping", "edge-0", [][]byte{
			rawFrame("Edge.Nope"),
			encodeFrame(7, "Device.Estimate", &EstimateArgs{Devices: []int{0}}),
		}},
	} {
		call, _ := dial(srv.addr)
		for _, frame := range srv.refused {
			if seq, msg, _ := call(frame); seq != 7 || msg == "" {
				t.Fatalf("%s refused %x: seq %d, error %q", srv.role, frame, seq, msg)
			}
			var rep PingReply
			if _, msg, body := call(encodeFrame(8, srv.ping, &PingArgs{})); msg != "" || body.finish(&rep) != nil || rep.Role != srv.role {
				t.Fatalf("%s stopped serving after refusing %x: error %q, reply %+v", srv.role, frame, msg, rep)
			}
		}
	}
	_, conn := dial(d.devices[0].listener.Addr().String())
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after a frame over the cap: read %v, want EOF", err)
	}
}

// TestClientRefusesForeignSeq: a reply whose seq is not the request in
// flight's fails the call and closes the connection.
func TestClientRefusesForeignSeq(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	eof := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			eof <- err
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		if _, err := r.Discard(len(wirePreamble)); err != nil {
			eof <- err
			return
		}
		req, err := readFrame(r, nil)
		if err != nil {
			eof <- err
			return
		}
		seq, _, _ := openFrame(req, false)
		if _, err := conn.Write(encodeFrame(seq+1, "", &PingReply{Role: "impostor"})); err != nil {
			eof <- err
			return
		}
		_, err = r.ReadByte()
		eof <- err
	}()
	c := dialClient(t, ln.Addr().String())
	var rep PingReply
	if err := c.call("Device.Ping", &PingArgs{}, &rep); err == nil || rep.Role != "" {
		t.Fatalf("a reply to another seq: err = %v, reply %+v", err, rep)
	}
	select {
	case err := <-eof:
		if err != io.EOF {
			t.Fatalf("server side after the refused reply: %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the client kept the connection open")
	}
}

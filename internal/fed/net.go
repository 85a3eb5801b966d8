package fed

import (
	"net"
	"sync/atomic"
)

// countingConn wraps a net.Conn and tallies the bytes that actually cross
// it. Sitting under the frame codec (wire.go), it measures the true wire cost
// of the protocol — preamble, frame headers and field encodings included —
// rather than an analytic bytes-per-parameter estimate.
type countingConn struct {
	net.Conn
	read  *atomic.Int64
	wrote *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wrote.Add(int64(n))
	return n, err
}

// dialCounting opens an RPC client whose connection counts inbound bytes
// into read and outbound bytes into wrote.
func dialCounting(addr string, read, wrote *atomic.Int64) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(&countingConn{Conn: conn, read: read, wrote: wrote}), nil
}

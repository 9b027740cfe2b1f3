package transport

import (
	"jumpstart/internal/jumpstart"
	"jumpstart/internal/netsim"
)

// SimConn runs the protocol over the simulated network: every RPC is
// sampled through the netsim fabric at the current virtual time, and
// the virtual clock advances by the drawn latency (or by the per-RPC
// timeout when the fabric drops the message). The server itself is
// invoked directly — only the network between client and store is
// simulated.
type SimConn struct {
	srv     *Server
	fab     *netsim.Fabric
	link    string
	clock   *netsim.VirtualClock
	stream  *netsim.Stream
	timeout float64
}

// NewSimConn wires a client-side connection over the fabric. link
// labels the client's side of the network (fault windows can target
// it); stream supplies the connection's fault/latency draws; timeout
// is the per-RPC deadline in virtual seconds.
func NewSimConn(srv *Server, fab *netsim.Fabric, link string,
	clock *netsim.VirtualClock, stream *netsim.Stream, timeout float64) *SimConn {
	if timeout <= 0 {
		timeout = DefaultClientConfig().RPCTimeout
	}
	return &SimConn{srv: srv, fab: fab, link: link, clock: clock, stream: stream, timeout: timeout}
}

// rpc samples one round trip, advancing the virtual clock, and
// reports whether the message got through.
func (c *SimConn) rpc() error {
	v := c.fab.Sample(c.link, c.clock.Now(), c.stream)
	if v.Drop || v.Latency >= c.timeout {
		// Lost, or slower than the client is willing to wait: the
		// caller burns its full timeout before concluding anything.
		c.clock.Sleep(c.timeout)
		return ErrTimeout
	}
	c.clock.Sleep(v.Latency)
	if v.Err {
		return ErrRPC
	}
	return nil
}

// Manifest implements Conn.
func (c *SimConn) Manifest(region, bucket int, rnd uint64, exclude []jumpstart.PackageID) (*Manifest, error) {
	if err := c.rpc(); err != nil {
		return nil, err
	}
	return c.srv.Manifest(region, bucket, rnd, exclude)
}

// Chunk implements Conn.
func (c *SimConn) Chunk(id jumpstart.PackageID, idx int) ([]byte, error) {
	if err := c.rpc(); err != nil {
		return nil, err
	}
	b, err := c.srv.Chunk(id, idx)
	if err != nil {
		return nil, err
	}
	return wireRoundTrip(b, c.srv.chunkSize)
}

// Publish implements Conn.
func (c *SimConn) Publish(region, bucket int, revision uint64, data []byte) (jumpstart.PackageID, error) {
	if err := c.rpc(); err != nil {
		return 0, err
	}
	return c.srv.Publish(region, bucket, revision, data), nil
}

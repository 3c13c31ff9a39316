package federation

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"time"

	"transproc/internal/metrics"
)

// ErrVoided is returned by an invocation-class call whose transport
// retry budget ran out and whose Cancel certified the request never
// executed at the hub — the node takes the invocation-failure path.
var ErrVoided = errors.New("federation: request voided after transport retry exhaustion")

// ErrHubRestart is returned when the hub bounces a frame with StStale:
// the hub incarnation the client believed in is gone (restart after a
// kill, or the node's own lease expired and it was declared dead). The
// node must re-hello — which teaches the client the new epoch — and
// re-attach its in-flight processes before retrying anything.
var ErrHubRestart = errors.New("federation: hub incarnation changed (stale epoch); re-attach required")

// ErrLost is what a Transport returns for a delivery attempt it knows
// was lost without the connection being at fault (a fault model's
// simulated drop or lost reply). The client retries at once under the
// same request id; the attempt still counts against the budget. Real
// I/O errors take the reconnect-backoff path instead.
var ErrLost = errors.New("federation: delivery attempt lost")

// Transport carries one request frame to the hub and brings back its
// response. It is the seam a fault model wraps from outside the package
// (Config.WrapTransport); the only product implementation is the TCP
// connection below.
type Transport interface {
	RoundTrip(*Frame) (*Frame, error)
	Close()
}

// tcpTransport is a lazily dialed TCP connection to the hub that drops
// the connection on any I/O error, so the next round trip redials.
type tcpTransport struct {
	addr string
	conn net.Conn
	rd   *bufio.Reader
}

// Dial returns the TCP transport to the hub at addr; the connection is
// established on first use.
func Dial(addr string) Transport { return &tcpTransport{addr: addr} }

// Close severs the connection.
func (t *tcpTransport) Close() {
	if t.conn != nil {
		t.conn.Close()
		t.conn, t.rd = nil, nil
	}
}

// RoundTrip sends one frame and reads one response, which must echo the
// request id.
func (t *tcpTransport) RoundTrip(f *Frame) (*Frame, error) {
	if t.conn == nil {
		conn, err := net.Dial("tcp", t.addr)
		if err != nil {
			return nil, err
		}
		t.conn, t.rd = conn, bufio.NewReader(conn)
	}
	if err := WriteFrame(t.conn, f); err != nil {
		t.Close()
		return nil, err
	}
	resp, err := ReadFrame(t.rd)
	if err != nil {
		t.Close()
		return nil, err
	}
	if resp.Req != f.Req {
		t.Close()
		return nil, fmt.Errorf("federation: response for request %d, expected %d", resp.Req, f.Req)
	}
	return resp, nil
}

const (
	// backoffTick is the first reconnect sleep; it doubles per
	// consecutive failure up to backoffCap. 100µs–6.4ms is long enough to
	// ride out a hub reopen (close, recover, rebind) without a busy spin,
	// short enough to keep torture runs fast.
	backoffTick = 100 * time.Microsecond
	backoffCap  = 64 * backoffTick
	// controlBudget bounds transport attempts of control RPCs. It must
	// outlast any partition window a fault model opens (windows are
	// finite attempt counts, so control RPCs always land).
	controlBudget = 1 << 20
	// reconnectAttempts bounds consecutive connection failures before a
	// call is abandoned, sized to outlast a hub reopen under the backoff
	// schedule.
	reconnectAttempts = 256
)

// Client is a node's RPC endpoint over a Transport: it numbers
// requests, stamps them with the hub epoch, retries lost attempts under
// the same request id within a budget (the hub's dedup table makes the
// retry exactly-once), backs off across real connection failures, and
// resolves an exhausted invocation through fetch-or-void.
type Client struct {
	node uint32
	name string
	tr   Transport
	reg  *metrics.Registry

	req uint64 // request-id counter

	// dispatchBudget bounds transport attempts of invocation-class RPCs
	// (MsgDispatch) before the Cancel flow.
	dispatchBudget int

	// epoch is the hub incarnation learned from the last hello; every
	// frame is stamped with it, so a restarted hub bounces the client
	// (StStale → ErrHubRestart) until the node re-hellos.
	epoch uint32
}

// NewClient prepares a client over the transport (dispatchBudget 0 =
// default 4096).
func NewClient(node uint32, name string, tr Transport, dispatchBudget int, reg *metrics.Registry) *Client {
	if dispatchBudget <= 0 {
		dispatchBudget = 4096
	}
	return &Client{node: node, name: name, tr: tr, reg: reg, dispatchBudget: dispatchBudget}
}

// Close severs the transport.
func (c *Client) Close() { c.tr.Close() }

// backoffSleep sleeps before reconnect attempt k (1-based): exponential
// with a jitter factor in [0.5, 1) that is a fixed function of the node
// name and k, so a cluster's redial storm after a hub kill repeats run
// to run yet is de-synchronized across nodes.
func (c *Client) backoffSleep(k int) {
	d := backoffCap
	if k < 7 {
		d = backoffTick << (k - 1)
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%d", c.name, k)
	time.Sleep(d/2 + d/2*time.Duration(h.Sum32()%1024)/1024)
}

// Call performs one RPC. invocation marks the dispatch-class calls that
// may be voided; control calls retry until they land.
func (c *Client) Call(f *Frame, invocation bool) (*Frame, error) {
	f.Node = c.node
	f.Epoch = c.epoch
	c.req++
	f.Req = c.req
	budget := controlBudget
	if invocation {
		budget = c.dispatchBudget
	}
	resp, err := c.attemptLoop(f, budget)
	if err == nil {
		if f.Type == MsgHello {
			c.epoch = resp.Epoch // a hello adopts the current incarnation
		}
		if resp.Status == StStale {
			return resp, ErrHubRestart
		}
		return resp, nil
	}
	if !invocation {
		return nil, fmt.Errorf("federation: control RPC %v exhausted its budget: %w", f.Type, err)
	}
	// Fetch-or-void: ask the hub what became of the original request.
	cancel := &Frame{Type: MsgCancel, Node: c.node, Proc: f.Proc, Gen: int64(f.Req), Epoch: c.epoch}
	c.req++
	cancel.Req = c.req
	cresp, cerr := c.attemptLoop(cancel, controlBudget)
	if cerr != nil {
		return nil, fmt.Errorf("federation: cancel of request %d failed: %w", f.Req, cerr)
	}
	if cresp.Status == StStale {
		return cresp, ErrHubRestart
	}
	if cresp.Flag2 {
		return cresp, nil // the original executed; this is its response
	}
	return nil, ErrVoided
}

// attemptLoop delivers f within budget attempts. A lost attempt is
// retried at once; a connection failure sleeps on the backoff schedule
// first and gives up after reconnectAttempts of them in the call.
func (c *Client) attemptLoop(f *Frame, budget int) (*Frame, error) {
	var lastErr error
	ioFailures := 0
	for try := 0; try < budget; try++ {
		resp, err := c.tr.RoundTrip(f)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if errors.Is(err, ErrLost) {
			c.reg.Inc(metrics.FedRPCRetries)
			continue
		}
		ioFailures++
		if ioFailures > reconnectAttempts {
			break
		}
		c.backoffSleep(ioFailures)
	}
	return nil, lastErr
}

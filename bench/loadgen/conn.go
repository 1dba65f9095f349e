package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// opDeadline bounds every HTTP exchange the generator makes: a server
// that stops answering fails the op instead of hanging the run.
const opDeadline = 10 * time.Second

// Conn is one keep-alive HTTP/1.1 connection to a server process. The
// generator owns exactly two of them per run (nproc = 2), so the request
// is written by hand and only the response goes through net/http's
// parser: the generator shares the box's two cores with the servers, and
// every microsecond it spends is a microsecond the measured system does
// not get.
//
// A Conn is used by one goroutine at a time. The slice returned by Do is
// reused by the next call.
type Conn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

// NewConn returns a connection to addr (host:port); it dials lazily.
func NewConn(addr string) *Conn {
	return &Conn{addr: addr}
}

// Addr returns the host:port the connection talks to.
func (c *Conn) Addr() string { return c.addr }

// Close drops the underlying socket; the next Do dials again.
func (c *Conn) Close() {
	if c.c != nil {
		c.c.Close()
		c.c, c.br = nil, nil
	}
}

func (c *Conn) dial(ctx context.Context) error {
	d := net.Dialer{Timeout: opDeadline}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		if err := tc.SetNoDelay(true); err != nil {
			nc.Close()
			return err
		}
	}
	c.c, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	return nil
}

// Do sends one request and reads the whole response. path includes the
// query string; a nil reqBody sends no body. Any transport error closes
// the connection so the next call starts clean.
func (c *Conn) Do(ctx context.Context, method, path string, reqBody []byte) (status int, body []byte, err error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if c.c == nil {
		if err := c.dial(ctx); err != nil {
			return 0, nil, err
		}
	}
	b := c.req[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	if reqBody != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(reqBody)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, reqBody...)
	c.req = b

	if err := c.c.SetDeadline(time.Now().Add(opDeadline)); err != nil {
		c.Close()
		return 0, nil, err
	}
	if _, err := c.c.Write(b); err != nil {
		c.Close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.Close()
		return 0, nil, err
	}
	c.body, err = readAllInto(c.body[:0], resp.Body)
	resp.Body.Close()
	if err != nil {
		c.Close()
		return 0, nil, err
	}
	if resp.Close {
		c.Close()
	}
	return resp.StatusCode, c.body, nil
}

// readAllInto is io.ReadAll appending into a caller-owned buffer.
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// Get is Do for a body-less GET that must answer 200.
func (c *Conn) Get(ctx context.Context, path string) ([]byte, error) {
	status, body, err := c.Do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: status %d: %s", c.addr, path, status, firstLine(body))
	}
	return body, nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// shardTransport adapts a Conn to dist.Transport, so writes and the
// stats op travel through dist.RemoteBackend — the repo's own shard RPC
// client — while staying on the generator's connection.
type shardTransport struct{ c *Conn }

// Do implements dist.Transport. addr is the backend's base URL; the
// Conn is already bound to that node.
func (t shardTransport) Do(ctx context.Context, addr string, body []byte) ([]byte, error) {
	status, out, err := t.c.Do(ctx, http.MethodPost, "/v1/shard", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("shard RPC to %s: status %d: %s", addr, status, firstLine(out))
	}
	return out, nil
}

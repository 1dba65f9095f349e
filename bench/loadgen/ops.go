package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"lbsq"
	"lbsq/internal/dist"
)

// opKind is what one simulated client asks of the server.
type opKind uint8

const (
	opNN opKind = iota
	opWindow
	opMove
	opInsert
	opDelete
)

// op is one generated request. Generators fill it in place, so the hot
// loop allocates nothing for it.
type op struct {
	kind   opKind
	p      lbsq.Point // query point, window focus or new position
	k      int
	qx, qy float64
	client *fleetClient // opMove: the session that moves
	item   lbsq.Item    // opInsert / opDelete
}

// fleetClient is one simulated thin client of a continuous-query
// session. It is pinned to one connection, so its fields are only ever
// touched by that connection's goroutine.
type fleetClient struct {
	id     string     // server-issued session id
	window bool       // window session (else NN)
	home   lbsq.Point // centre of the neighbourhood the client roams
	path   []lbsq.Point
	step   int
	dir    int    // +1 / -1: the path is walked back and forth
	held   []byte // latest result payload received, as a thin client would keep it
}

// advance returns the client's next position.
func (c *fleetClient) advance() lbsq.Point {
	if c.step+c.dir < 0 || c.step+c.dir >= len(c.path) {
		c.dir = -c.dir
	}
	c.step += c.dir
	return c.path[c.step]
}

// sampleEvery is the oracle's sampling stride: every 50th response of a
// connection is kept and verified after the phase.
const sampleEvery = 50

// sample is one kept response, verified against brute force once the
// phase is over so that checking never competes with the servers for CPU
// while they are being timed.
type sample struct {
	op         op
	sent, recv time.Duration
	body       []byte // response body (NN/window) or the payload a move left current
}

// writeRec is one acknowledged write with its in-flight interval.
type writeRec struct {
	insert     bool
	item       lbsq.Item
	sent, recv time.Duration
}

// executor runs ops on one connection.
type executor struct {
	conn    *Conn
	backend *dist.RemoteBackend // writes, through the repo's shard RPC client
	path    []byte
	body    []byte
}

func newExecutor(conn *Conn, universe lbsq.Rect) *executor {
	return &executor{
		conn:    conn,
		backend: dist.NewRemoteBackend("http://"+conn.Addr(), universe, shardTransport{conn}),
	}
}

func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// hitPrefix is how the server's JSON encoder starts a region-hit move
// answer. It is only a fast path: anything else is decoded in full, so a
// server that orders its fields differently is still read correctly.
var hitPrefix = []byte(`{"hit":true`)

type moveAnswer struct {
	Hit     bool   `json:"hit"`
	Payload []byte `json:"payload"`
}

// run executes o and reports the response body size and whether the
// server answered it successfully. received is stamped when the last
// response byte has been read, before any decoding.
func (e *executor) run(ctx context.Context, o *op, received *time.Time) (wire int, ok bool) {
	switch o.kind {
	case opNN:
		b := append(e.path[:0], "/v1/nn?x="...)
		b = appendFloat(b, o.p.X)
		b = append(b, "&y="...)
		b = appendFloat(b, o.p.Y)
		b = append(b, "&k="...)
		b = strconv.AppendInt(b, int64(o.k), 10)
		e.path = b
		status, body, err := e.conn.Do(ctx, http.MethodGet, string(b), nil)
		*received = time.Now()
		return len(body), err == nil && status == http.StatusOK
	case opWindow:
		b := append(e.path[:0], "/v1/window?x="...)
		b = appendFloat(b, o.p.X)
		b = append(b, "&y="...)
		b = appendFloat(b, o.p.Y)
		b = append(b, "&qx="...)
		b = appendFloat(b, o.qx)
		b = append(b, "&qy="...)
		b = appendFloat(b, o.qy)
		e.path = b
		status, body, err := e.conn.Do(ctx, http.MethodGet, string(b), nil)
		*received = time.Now()
		return len(body), err == nil && status == http.StatusOK
	case opMove:
		b := append(e.path[:0], "/v1/session/"...)
		b = append(b, o.client.id...)
		b = append(b, "/move"...)
		e.path = b
		rb := append(e.body[:0], `{"x":`...)
		rb = appendFloat(rb, o.p.X)
		rb = append(rb, `,"y":`...)
		rb = appendFloat(rb, o.p.Y)
		rb = append(rb, '}')
		e.body = rb
		status, body, err := e.conn.Do(ctx, http.MethodPost, string(b), rb)
		*received = time.Now()
		if err != nil || status != http.StatusOK {
			return len(body), false
		}
		if bytes.HasPrefix(body, hitPrefix) {
			return len(body), true
		}
		var ans moveAnswer
		if json.Unmarshal(body, &ans) != nil {
			return len(body), false
		}
		if !ans.Hit {
			if len(ans.Payload) == 0 {
				return len(body), false // left the region but got no new result
			}
			o.client.held = ans.Payload
		}
		return len(body), true
	case opInsert:
		err := e.backend.Insert(ctx, o.item)
		*received = time.Now()
		return len(e.conn.body), err == nil
	case opDelete:
		found, err := e.backend.Delete(ctx, o.item)
		*received = time.Now()
		return len(e.conn.body), err == nil && found
	}
	return 0, false
}

// lastBody returns the response body of the op just run (valid until the
// next op on the connection).
func (e *executor) lastBody() []byte { return e.conn.body }

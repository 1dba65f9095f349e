package loadgen

import (
	"context"
	"sort"
	"sync"
	"syscall"
	"time"
)

// shedAfter is how late an open-phase op may start before it is given
// up as failed: a server that cannot keep up fails ops instead of
// stretching the run without bound.
const shedAfter = 5 * time.Second

// opSpan holds the four instants of one traced op, from the run's epoch.
// The span tree is derived from them: op = due→done ⊃ loadgen.wait =
// due→sent · http.roundtrip = sent→recv · loadgen.decode = recv→done.
type opSpan struct {
	due, sent, recv, done time.Duration
}

// phase is what one closed or open phase measured. A phase runs as
// several slices spread over the run (see rounds); join adds them up.
type phase struct {
	ops, failed int
	wire        int64         // response body bytes
	lat         []float64     // ms, sorted; open: due → last response byte, closed: send → last response byte
	done        []completion  // one connection's latencies in time order (runConn → run only)
	wins        [][]float64   // the sorted latencies of each full window, slice after slice
	lag         []float64     // ms, sorted; send − due (open phase only)
	elapsed     time.Duration // first send → last receipt, summed over the slices
	samples     []sample
	writes      []writeRec
	spans       []opSpan
}

// completion is one successful op: when it was due (open) or sent
// (closed), from its slice's start, and its latency.
type completion struct {
	at  time.Duration
	lat float64 // ms
}

// window is the width of the pieces a phase is cut into. Each reported
// timing is the median over a phase's windows of the per-window
// statistic, so a disturbance shorter than half the phase — a noisy
// neighbour on the box, a collector cycle of the generator — moves
// individual windows but not the reported number. Every reference rate
// is at least 1000 ops/s, so a window's 99th percentile has ten samples
// beyond it.
const window = time.Second

// cut groups the completions of a slice of length d into its consecutive
// full windows.
func cut(done []completion, d time.Duration) [][]float64 {
	out := make([][]float64, int(d/window))
	for _, c := range done {
		if w := int(c.at / window); w < len(out) {
			out[w] = append(out[w], c.lat)
		}
	}
	for _, w := range out {
		sort.Float64s(w)
	}
	return out
}

// join adds slice b to phase a.
func join(a, b phase) phase {
	a.ops += b.ops
	a.failed += b.failed
	a.wire += b.wire
	a.elapsed += b.elapsed
	a.wins = append(a.wins, b.wins...)
	a.samples = append(a.samples, b.samples...)
	a.writes = append(a.writes, b.writes...)
	a.spans = append(a.spans, b.spans...)
	a.lat = append(a.lat, b.lat...)
	a.lag = append(a.lag, b.lag...)
	sort.Float64s(a.lat)
	sort.Float64s(a.lag)
	return a
}

// windowPercentiles returns the pct-th latency percentile of each window.
func (p *phase) windowPercentiles(pct float64) []float64 {
	var out []float64
	for _, w := range p.wins {
		if len(w) > 0 {
			out = append(out, Percentile(w, pct))
		}
	}
	return out
}

// windowRates returns the successful ops per second of each window.
func (p *phase) windowRates() []float64 {
	var out []float64
	for _, w := range p.wins {
		out = append(out, float64(len(w))/window.Seconds())
	}
	return out
}

// driver runs phases over the run's two connections.
type driver struct {
	src   source
	seed  int64 // of the open phase's arrival times
	ex    []*executor
	epoch time.Time // all sample and write times count from here
}

// limit ends a closed phase: after ops per connection or after d,
// whichever is set.
type limit struct {
	ops int
	d   time.Duration
}

// closed runs the closed loop: each connection sends its next op when
// the previous one has returned.
func (dr *driver) closed(ctx context.Context, lim limit) phase {
	return dr.run(ctx, func(conn int) feed { return &closedFeed{src: dr.src, conn: conn, lim: lim} }, lim.d, false)
}

// open runs slice number round of the open loop at rate ops/s for d: ops
// are sent on a clock that does not wait for the server, and each is
// timed from its due time, so the wait a stall imposes on later ops is
// charged to them.
func (dr *driver) open(ctx context.Context, rate float64, d time.Duration, round int, trace bool) phase {
	plans := make([][]planned, len(dr.ex))
	for conn := range dr.ex {
		plans[conn] = plan(dr.src, stream(dr.seed, streamSchedule, 2*round+conn), conn, rate, d)
	}
	return dr.run(ctx, func(conn int) feed { return &openFeed{plan: plans[conn]} }, d, trace)
}

// feed hands a connection its ops in order.
type feed interface {
	// next returns the op to run and its due time from the phase start;
	// timed is false in the closed loop, where ops are due when the
	// connection is free.
	next(elapsed time.Duration) (o *op, due time.Duration, timed, ok bool)
}

type closedFeed struct {
	src  source
	conn int
	lim  limit
	n    int
	op   op
}

func (f *closedFeed) next(elapsed time.Duration) (*op, time.Duration, bool, bool) {
	if (f.lim.ops > 0 && f.n >= f.lim.ops) || (f.lim.d > 0 && elapsed >= f.lim.d) {
		return nil, 0, false, false
	}
	f.n++
	f.src.next(f.conn, false, &f.op)
	return &f.op, 0, false, true
}

type openFeed struct {
	plan []planned
	i    int
}

func (f *openFeed) next(time.Duration) (*op, time.Duration, bool, bool) {
	if f.i >= len(f.plan) {
		return nil, 0, false, false
	}
	p := &f.plan[f.i]
	f.i++
	return &p.op, p.due, true, true
}

// run drives one slice. d is its nominal length — ops are due, or start,
// within it — and is what gets cut into windows; a slice limited by an op
// count has none.
func (dr *driver) run(ctx context.Context, feeds func(conn int) feed, d time.Duration, trace bool) phase {
	parts := make([]phase, len(dr.ex))
	start := time.Now()
	var wg sync.WaitGroup
	for conn := range dr.ex {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			parts[conn] = dr.runConn(ctx, dr.ex[conn], feeds(conn), start, trace)
		}(conn)
	}
	wg.Wait()
	var total phase
	var done []completion
	for _, p := range parts {
		total.ops += p.ops
		total.failed += p.failed
		total.wire += p.wire
		done = append(done, p.done...)
		total.lag = append(total.lag, p.lag...)
		total.samples = append(total.samples, p.samples...)
		total.writes = append(total.writes, p.writes...)
		total.spans = append(total.spans, p.spans...)
		if p.elapsed > total.elapsed {
			total.elapsed = p.elapsed
		}
	}
	total.wins = cut(done, d)
	total.lat = make([]float64, len(done))
	for i, c := range done {
		total.lat[i] = c.lat
	}
	sort.Float64s(total.lat)
	sort.Float64s(total.lag)
	return total
}

// sleepUntil blocks until due has elapsed since start. It sleeps in the
// kernel, not in the Go runtime: runtime timers are served by an epoll
// wait whose timeout is in whole milliseconds, so a sub-millisecond
// time.Sleep on an otherwise idle process returns about a millisecond
// late — the same order as the latencies being measured. nanosleep
// overshoots by the kernel's 50 µs timer slack instead. (Lowering the
// slack with prctl was tried and dropped: the threads keep it, the Go
// runtime's own timed waits then wake more often, and the closed phase
// lost a fifth of its throughput.) Spinning would be exact but would take
// a core away from the servers under test.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		d := due - time.Since(start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR just shortens the sleep; the loop re-arms it.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (dr *driver) runConn(ctx context.Context, e *executor, f feed, start time.Time, trace bool) phase {
	var ph phase
	for ctx.Err() == nil {
		o, due, timed, ok := f.next(time.Since(start))
		if !ok {
			break
		}
		if timed {
			now := time.Since(start)
			if now < due {
				sleepUntil(start, due)
			} else if now-due > shedAfter {
				ph.ops++
				ph.failed++
				continue
			}
		}
		sentAt := time.Now()
		var recvAt time.Time
		wire, ok := e.run(ctx, o, &recvAt)
		sent, recv := sentAt.Sub(start), recvAt.Sub(start)
		if !timed {
			due = sent
		}
		ph.ops++
		ph.wire += int64(wire)
		ph.elapsed = recv
		if !ok {
			ph.failed++
			continue
		}
		ph.done = append(ph.done, completion{at: due, lat: ms(recv - due)})
		if timed {
			ph.lag = append(ph.lag, ms(sent-due))
		}
		offset := start.Sub(dr.epoch)
		switch o.kind {
		case opInsert, opDelete:
			ph.writes = append(ph.writes, writeRec{insert: o.kind == opInsert, item: o.item, sent: sent + offset, recv: recv + offset})
		default:
			if ph.ops%sampleEvery == 0 {
				s := sample{op: *o, sent: sent + offset, recv: recv + offset}
				if o.kind == opMove {
					s.body = o.client.held // replaced, never rewritten in place
				} else {
					s.body = append([]byte(nil), e.lastBody()...)
				}
				ph.samples = append(ph.samples, s)
			}
		}
		if trace {
			ph.spans = append(ph.spans, opSpan{due: due + offset, sent: sent + offset, recv: recv + offset, done: time.Since(dr.epoch)})
		}
	}
	return ph
}

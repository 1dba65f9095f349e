// Package session is the continuous-query session subsystem: the
// server-side half of the paper's mobile-client protocol. A stateless
// server hands a client a validity region and forgets it; a session
// keeps that region server-side, so the server can (a) answer a
// position update that stays inside the region with zero index work,
// (b) push an invalidation the moment an Insert/Delete punctures the
// region — something a stateless server cannot do at all — and
// (c) prefetch the next region along the client's trajectory before
// the client leaves the current one.
//
// Sessions are found by Insert/Delete events through a sharded spatial
// index of armed regions (a uniform grid over the universe), so a
// mutation tests only the sessions whose influence rectangle covers
// the mutated point — never a scan of all sessions.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lbsq/internal/core"
	"lbsq/internal/geom"
	"lbsq/internal/insq"
	"lbsq/internal/obs"
	"lbsq/internal/qexec"
	"lbsq/internal/rtree"
)

// Kind discriminates the continuous query a session maintains.
type Kind uint8

// Session kinds.
const (
	// NN is a continuous k-nearest-neighbor query.
	NN Kind = iota + 1
	// Window is a continuous window query of fixed extents centered at
	// the client's focus.
	Window
)

// Errors returned by session operations. The HTTP layer maps
// ErrNotFound to 404 (session_not_found) and ErrExpired to 410
// (session_expired).
var (
	// ErrNotFound reports a session id that was never issued (or is so
	// old its tombstone has been recycled).
	ErrNotFound = errors.New("session: not found")
	// ErrExpired reports a session that existed but is gone: closed by
	// the client or expired by the idle TTL.
	ErrExpired = errors.New("session: expired")
	// ErrLimit reports that opening one more session would exceed the
	// manager's MaxSessions cap.
	ErrLimit = errors.New("session: too many open sessions")
)

// Options configures a Manager.
type Options struct {
	// TTL expires sessions idle (no Move/Events activity) for longer
	// than this; zero keeps sessions until closed.
	TTL time.Duration
	// MaxSessions caps concurrently open sessions (0 selects 1<<20).
	MaxSessions int
	// PrefetchWorkers bounds the background pool computing predicted
	// next regions (0 selects 4; negative disables prefetch).
	PrefetchWorkers int
	// Strategy selects how NN sessions maintain their validity state
	// between full queries: StrategyTPKNN (default, also selected by
	// "") or StrategyINSQ. See ParseStrategy.
	Strategy string
	// Registry receives the session metrics (nil meters into a private
	// registry, keeping the hot path branch-free).
	Registry *obs.Registry
}

// defaults for Options zero values.
const (
	defaultMaxSessions     = 1 << 20
	defaultPrefetchWorkers = 4
)

// tombstoneCap bounds the closed/expired-id memory: ids older than the
// last tombstoneCap departures degrade from 410 to 404.
const tombstoneCap = 8192

// Manager tracks every open continuous-query session against one DB.
// All methods are safe for concurrent use.
type Manager struct {
	exec     *qexec.Executor
	universe geom.Rect
	strategy string

	ttl         time.Duration
	maxSessions int

	// epoch counts mutations, bumped on both sides of every
	// Insert/Delete (see MutationBegin). A region or prefetch computed
	// under epoch e is armed only if the epoch is still e — exactly the
	// validity-cache discipline of internal/qexec.
	epoch atomic.Uint64

	nextID atomic.Uint64

	mu        sync.RWMutex
	sessions  map[uint64]*Session
	tomb      map[uint64]struct{}
	tombOrder []uint64

	idx     *regionIndex
	pfSlots chan struct{} // prefetch slots; nil disables prefetch
	met     *metrics
}

// NewManager returns a session manager executing full queries through
// exec (which carries the DB's engine, cache and metrics registry).
// opts.Strategy must name a known strategy (callers validate with
// ParseStrategy; the facade rejects unknown names before reaching
// here).
func NewManager(exec *qexec.Executor, universe geom.Rect, opts Options) *Manager {
	strategy, err := ParseStrategy(opts.Strategy)
	if err != nil {
		panic(err)
	}
	m := &Manager{
		exec:        exec,
		universe:    universe,
		strategy:    strategy,
		ttl:         opts.TTL,
		maxSessions: opts.MaxSessions,
		sessions:    make(map[uint64]*Session),
		tomb:        make(map[uint64]struct{}),
		idx:         newRegionIndex(universe),
	}
	if m.maxSessions <= 0 {
		m.maxSessions = defaultMaxSessions
	}
	workers := opts.PrefetchWorkers
	if workers == 0 {
		workers = defaultPrefetchWorkers
	}
	if workers > 0 {
		m.pfSlots = make(chan struct{}, workers)
	}
	m.met = newMetrics(opts.Registry, m)
	return m
}

// Len returns the number of open sessions.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.sessions)
}

// Epoch returns the current mutation epoch (exposed for tests).
func (m *Manager) Epoch() uint64 { return m.epoch.Load() }

// Strategy returns the manager's normalized session strategy name.
func (m *Manager) Strategy() string { return m.strategy }

// PrefetchCounts returns the cumulative number of trajectory prefetches
// issued and of those discarded unused (the manager's
// lbsq_session_prefetch_total issued/waste series).
func (m *Manager) PrefetchCounts() (issued, wasted int64) {
	return m.met.pfIssued.Value(), m.met.pfWaste.Value()
}

// Session is one registered continuous query. Its identity (kind, k,
// extents) is immutable; the cached validity state is guarded by mu and
// re-armed on every re-execution.
type Session struct {
	id   uint64
	m    *Manager
	kind Kind
	k    int
	qx   float64
	qy   float64

	// active is the unix-nano timestamp of the last client activity,
	// read lock-free by TTL expiry checks.
	active atomic.Int64
	closed atomic.Bool

	// invalid is set by push invalidation (a mutation punctured the
	// armed region) and cleared when a fresh region is armed.
	invalid atomic.Bool
	// seq counts invalidations; the events long-poll hands it to
	// clients so none are lost across re-arms.
	seq atomic.Uint64

	notifyMu sync.Mutex
	notifyCh chan struct{}

	// armed is the entry currently registered in the region index (nil
	// while unarmed). Entries are immutable after publication.
	armed atomic.Pointer[armed]

	mu     sync.Mutex
	nn     *core.NNValidity
	win    *core.WindowValidity
	last   geom.Point
	pf     *prefetched
	pfBusy bool

	// ins is the INSQ influential set (insq strategy NN sessions only),
	// guarded by mu; log is its pending-mutation side channel, written
	// by OnInsert/OnDelete under its own mutex so the notification path
	// never blocks on a Move holding mu through a requery.
	ins *insq.Set
	log insqLog
}

// MoveResult is the answer to one Move (or Open, which behaves as a
// first Move that always re-queries). Exactly one of Hit, Prefetched,
// Repaired, Requeried is set. Validity objects may be shared with the
// DB's validity cache and other sessions; treat them as read-only.
type MoveResult struct {
	// Hit reports that the position stayed inside the armed region: the
	// cached answer is still exact and no index work was done.
	Hit bool
	// Prefetched reports that the position left the armed region but
	// landed inside a region prefetched along the predicted trajectory,
	// so no synchronous query was needed.
	Prefetched bool
	// Repaired reports that the insq strategy rebuilt the answer by
	// re-ranking its influential set — no index work, despite a region
	// exit or invalidation that would have forced tpknn to re-query.
	Repaired bool
	// Requeried reports that a full query re-executed.
	Requeried bool
	// Invalidated reports that the miss was caused by push invalidation
	// (an Insert/Delete punctured the region) rather than region exit.
	Invalidated bool
	// Seq is the session's invalidation sequence number at answer time.
	Seq uint64

	// NN is the current answer of an NN session.
	NN *core.NNValidity
	// Window is the current answer of a Window session.
	Window *core.WindowValidity
	// Cost is the index cost of this move (zero for Hit/Prefetched).
	Cost core.QueryCost
}

// ID returns the session's numeric id.
func (s *Session) ID() uint64 { return s.id }

// Kind returns the session's query kind.
func (s *Session) Kind() Kind { return s.kind }

// OpenNN registers a continuous k-NN session at start and returns it
// with the initial answer.
func (m *Manager) OpenNN(ctx context.Context, start geom.Point, k int) (*Session, *MoveResult, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("session: k %d, want ≥ 1", k)
	}
	s := &Session{m: m, kind: NN, k: k, notifyCh: make(chan struct{})}
	return m.open(ctx, s, start)
}

// OpenWindow registers a continuous window session of extents qx×qy
// centered at the focus and returns it with the initial answer.
func (m *Manager) OpenWindow(ctx context.Context, focus geom.Point, qx, qy float64) (*Session, *MoveResult, error) {
	if qx <= 0 || qy <= 0 {
		return nil, nil, fmt.Errorf("session: window extents %g×%g, want positive", qx, qy)
	}
	s := &Session{m: m, kind: Window, qx: qx, qy: qy, notifyCh: make(chan struct{})}
	return m.open(ctx, s, focus)
}

func (m *Manager) open(ctx context.Context, s *Session, start geom.Point) (*Session, *MoveResult, error) {
	if m.Len() >= m.maxSessions {
		return nil, nil, ErrLimit
	}
	epoch0 := m.epoch.Load()
	res, err := m.runQuery(ctx, s, start)
	if err != nil {
		return nil, nil, err
	}
	s.touch()
	s.last = start
	s.id = m.nextID.Add(1)
	m.mu.Lock()
	if len(m.sessions) >= m.maxSessions {
		m.mu.Unlock()
		return nil, nil, ErrLimit
	}
	m.sessions[s.id] = s
	m.mu.Unlock()
	s.mu.Lock()
	s.adoptLocked(res.NN, res.Window, epoch0)
	s.mu.Unlock()
	m.met.opens.Inc()
	res.Seq = s.seq.Load()
	return s, res, nil
}

// lookup resolves an id to its session, expiring it first if the idle
// TTL has elapsed.
//
//lbsq:hotpath
func (m *Manager) lookup(id uint64) (*Session, error) {
	m.mu.RLock()
	s := m.sessions[id]
	_, gone := m.tomb[id]
	m.mu.RUnlock()
	if s == nil {
		if gone {
			return nil, ErrExpired
		}
		return nil, ErrNotFound
	}
	if m.ttl > 0 && time.Since(time.Unix(0, s.active.Load())) > m.ttl {
		m.retire(s) //lbsq:nocheck hotpath — TTL expiry: a cold, once-per-session event
		return nil, ErrExpired
	}
	return s, nil
}

// retire removes a session (close or TTL expiry), leaving a tombstone
// so later references answer "gone" rather than "never existed".
func (m *Manager) retire(s *Session) {
	m.mu.Lock()
	if _, open := m.sessions[s.id]; !open {
		m.mu.Unlock()
		return
	}
	delete(m.sessions, s.id)
	m.tomb[s.id] = struct{}{}
	m.tombOrder = append(m.tombOrder, s.id)
	if len(m.tombOrder) > tombstoneCap {
		delete(m.tomb, m.tombOrder[0])
		m.tombOrder = m.tombOrder[1:]
	}
	m.mu.Unlock()

	s.closed.Store(true)
	s.mu.Lock()
	if a := s.armed.Swap(nil); a != nil {
		m.idx.disarm(a)
	}
	s.mu.Unlock()
	s.broadcast() // wake long-pollers so they observe the closure
	m.met.closes.Inc()
}

// Close closes the session with the given id.
func (m *Manager) Close(id uint64) error {
	s, err := m.lookup(id)
	if err != nil {
		return err
	}
	m.retire(s)
	return nil
}

// Move reports the client's new position and returns the current
// answer: from the armed region when the position is still inside it
// and no mutation punctured it (zero index accesses), from the
// prefetched next region when the predicted exit was right, and by
// re-executing the query otherwise.
func (m *Manager) Move(ctx context.Context, id uint64, p geom.Point) (*MoveResult, error) {
	res := new(MoveResult)
	if err := m.MoveInto(ctx, id, p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// MoveInto is Move writing the answer into a caller-supplied result,
// so a region hit — the steady state of a tracked client — performs no
// heap allocation at all (asserted by BenchmarkSessionMove).
//
//lbsq:hotpath
func (m *Manager) MoveInto(ctx context.Context, id uint64, p geom.Point, out *MoveResult) error {
	s, err := m.lookup(id)
	if err != nil {
		return err
	}
	s.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	delta := p.Sub(s.last)
	s.last = p

	if !s.invalid.Load() && s.coversLocked(p) {
		m.met.moveHit.Inc()
		s.resultInto(out)
		out.Hit = true
		m.maybePrefetch(s, p, delta)
		return nil
	}
	//lbsq:allowblock — per-session serialization by design: a session is a single moving client, and concurrent Moves on one session must not interleave requery with adopt
	return m.moveSlowLocked(ctx, s, p, delta, out) //lbsq:nocheck hotpath — miss path: the requery (or prefetch adoption) dominates, allocation here is immaterial
}

// moveSlowLocked handles the Move miss paths — prefetch adoption or a
// synchronous requery — with s.mu held.
func (m *Manager) moveSlowLocked(ctx context.Context, s *Session, p, delta geom.Point, out *MoveResult) error {
	if s.usesINSQ() {
		return m.insqSlowLocked(ctx, s, p, out)
	}
	invalidated := s.invalid.Load()

	// Region exit (or push invalidation): try the prefetched region
	// before paying for a synchronous query. The prefetch is usable
	// only if no mutation landed since it was computed.
	if pf := s.pf; pf != nil {
		s.pf = nil
		if !invalidated && pf.epoch == m.epoch.Load() && pf.covers(m.universe, p) {
			s.adoptLocked(pf.nn, pf.win, pf.epoch)
			m.met.movePrefetch.Inc()
			m.met.pfHit.Inc()
			s.resultInto(out)
			out.Prefetched = true
			m.maybePrefetch(s, p, delta)
			return nil
		}
		m.met.pfWaste.Inc()
	}

	epoch0 := m.epoch.Load()
	res, err := m.runQuery(ctx, s, p)
	if err != nil {
		return err
	}
	s.adoptLocked(res.NN, res.Window, epoch0)
	m.met.moveRequery.Inc()
	res.Invalidated = invalidated
	res.Seq = s.seq.Load()
	m.maybePrefetch(s, p, delta)
	*out = *res
	return nil
}

// insqSlowLocked is the miss path of insq-strategy NN sessions (s.mu
// held): drain the pending mutation log into the influential set and
// try to repair it at p — a re-ranking of at most k+slack points, zero
// index accesses — falling back to a full rebuild only when the set is
// gone (poisoned), the log overflowed, or p escaped the guard ellipse.
func (m *Manager) insqSlowLocked(ctx context.Context, s *Session, p geom.Point, out *MoveResult) error {
	invalidated := s.invalid.Load()
	epoch0 := m.epoch.Load()
	if s.ins != nil {
		overflow := s.log.drain(func(mu insqMut) {
			if mu.del {
				s.ins.ApplyDelete(mu.it.ID)
			} else {
				s.ins.ApplyInsert(mu.it)
			}
		})
		if !overflow && s.ins.Repair(p) {
			// The set is exact as of the drain; adoptLocked's epoch
			// discipline (with insqPoisonLocked on failure) covers
			// mutations racing the repair, exactly like a requery.
			s.adoptLocked(core.GuardedValidity(s.ins, m.universe), nil, epoch0)
			m.met.moveRepair.Inc()
			s.resultInto(out)
			out.Repaired = true
			out.Invalidated = invalidated
			return nil
		}
	}
	epoch1 := m.epoch.Load()
	res, err := m.runQuery(ctx, s, p)
	if err != nil {
		return err
	}
	s.adoptLocked(res.NN, nil, epoch1)
	m.met.moveRequery.Inc()
	res.Invalidated = invalidated
	res.Seq = s.seq.Load()
	*out = *res
	return nil
}

// runQuery executes the session's full query at p through the DB's
// batch/cache executor.
func (m *Manager) runQuery(ctx context.Context, s *Session, p geom.Point) (*MoveResult, error) {
	res := &MoveResult{Requeried: true}
	switch s.kind {
	case NN:
		if s.usesINSQ() {
			set, cost, err := m.exec.INSQSet(ctx, p, s.k, insq.DefaultSlack(s.k))
			if err != nil {
				return nil, err
			}
			// The query observed every mutation the pending log describes
			// (entries are appended only after the mutation is visible in
			// the index), so the log restarts empty with the new set.
			// Mutations racing the query are caught by the caller's epoch
			// check. On the error path above, set and log are untouched
			// and stay coherent.
			s.log.clear()
			s.ins = set
			res.NN, res.Cost = core.GuardedValidity(set, m.universe), cost
			return res, nil
		}
		v, cost, _, _, err := m.exec.NNCached(ctx, p, s.k)
		if err != nil {
			return nil, err
		}
		res.NN, res.Cost = v, cost
	case Window:
		wv, cost, _, _, err := m.exec.WindowCached(ctx, geom.RectCenteredAt(p, s.qx, s.qy))
		if err != nil {
			return nil, err
		}
		res.Window, res.Cost = wv, cost
	default:
		return nil, fmt.Errorf("session: unknown kind %d", s.kind)
	}
	return res, nil
}

// resultLocked snapshots the session's current answer (s.mu held).
func (s *Session) resultLocked() *MoveResult {
	res := new(MoveResult)
	s.resultInto(res)
	return res
}

// resultInto writes the session's current answer into out (s.mu held).
//
//lbsq:hotpath
func (s *Session) resultInto(out *MoveResult) {
	*out = MoveResult{NN: s.nn, Window: s.win, Seq: s.seq.Load()}
}

// coversLocked reports whether the armed answer is still exact at p
// (s.mu held). The NN half-plane test is bounded to the universe: the
// armed region polygon is universe-clipped, and so is the puncture
// test mutations run against it, so the two must agree.
func (s *Session) coversLocked(p geom.Point) bool {
	switch s.kind {
	case NN:
		if s.usesINSQ() {
			// Covers is exact everywhere by pure distance arithmetic —
			// no universe clipping involved on either side of the
			// arm/puncture protocol, so no universe bound is needed.
			return s.ins != nil && s.ins.Covers(p)
		}
		return s.nn != nil && s.m.universe.Contains(p) && s.nn.Valid(p)
	case Window:
		return s.win != nil && s.win.Valid(p)
	}
	return false
}

// adoptLocked installs a fresh answer and re-arms the region index
// with it (s.mu held). The region is armed only when no mutation
// landed since epoch0 — otherwise it may already be punctured, and the
// session conservatively stays invalid (every Move re-queries) until a
// quiet re-execution succeeds.
func (s *Session) adoptLocked(v *core.NNValidity, wv *core.WindowValidity, epoch0 uint64) {
	if a := s.armed.Swap(nil); a != nil {
		s.m.idx.disarm(a)
	}
	s.nn, s.win = v, wv
	s.pf = nil
	if s.closed.Load() || s.m.epoch.Load() != epoch0 {
		s.insqPoisonLocked()
		s.invalid.Store(true)
		return
	}
	a := buildArmed(s, v, wv)
	if a == nil {
		s.insqPoisonLocked()
		s.invalid.Store(true)
		return
	}
	s.m.idx.arm(a)
	s.armed.Store(a)
	s.invalid.Store(false)
	// A mutation may have slipped between the epoch check and the arm:
	// its puncture scan could have missed the entry, so re-check and
	// conservatively invalidate. (If the scan did see the entry this
	// double-invalidates, which is harmless.)
	if s.m.epoch.Load() != epoch0 {
		s.insqPoisonLocked()
		s.m.invalidate(s)
	}
}

// insqPoisonLocked discards the influential set when its pending log
// can no longer be proven complete (s.mu held): Insert/Delete
// notifications are logged only while an armed entry is published, so
// whenever a mutation may have landed across an unarmed window, a
// retained set could later be repaired into a stale answer. Dropping
// it forces the next slow path into a full rebuild. No-op for other
// strategies and kinds.
func (s *Session) insqPoisonLocked() {
	if s.usesINSQ() {
		s.ins = nil
		s.log.clear()
	}
}

// touch records client activity for the idle TTL.
func (s *Session) touch() { s.active.Store(time.Now().UnixNano()) }

// broadcast wakes every long-poller waiting on the session.
func (s *Session) broadcast() {
	s.notifyMu.Lock()
	close(s.notifyCh)
	s.notifyCh = make(chan struct{})
	s.notifyMu.Unlock()
}

func (s *Session) waitCh() <-chan struct{} {
	s.notifyMu.Lock()
	ch := s.notifyCh
	s.notifyMu.Unlock()
	return ch
}

// invalidate marks the session's armed region punctured and notifies
// long-pollers.
func (m *Manager) invalidate(s *Session) {
	s.seq.Add(1)
	if !s.invalid.Swap(true) {
		m.met.invalidations.Inc()
	}
	s.broadcast()
}

// Events blocks until the session has been invalidated more than
// `since` times (returning the new sequence number and true), or until
// ctx is done (returning the current sequence number and false — the
// long-poll timed out with nothing to report). A closed or expired
// session returns ErrExpired.
func (m *Manager) Events(ctx context.Context, id uint64, since uint64) (uint64, bool, error) {
	s, err := m.lookup(id)
	if err != nil {
		return 0, false, err
	}
	s.touch()
	for {
		if cur := s.seq.Load(); cur > since {
			return cur, true, nil
		}
		if s.closed.Load() {
			return s.seq.Load(), false, ErrExpired
		}
		ch := s.waitCh()
		// Re-check after capturing the channel: an invalidation between
		// the load and the capture would otherwise be missed.
		if cur := s.seq.Load(); cur > since {
			return cur, true, nil
		}
		select {
		case <-ctx.Done():
			return s.seq.Load(), false, nil
		case <-ch:
		}
	}
}

// MutationBegin must be called before every Insert/Delete mutates the
// index: the leading epoch bump makes concurrent region computations
// un-armable, exactly like the validity cache's double-bump discipline.
func (m *Manager) MutationBegin() { m.epoch.Add(1) }

// OnInsert must be called after an Insert is visible in the index: it
// bumps the epoch and invalidates every session whose armed region the
// new point punctures. The candidate set comes from the region index —
// only sessions whose influence rectangle covers the point are tested.
func (m *Manager) OnInsert(it rtree.Item) {
	m.epoch.Add(1)
	for _, a := range m.idx.collect(it.P) {
		if a.insq {
			// INSQ: an insert strictly inside the guard joins the
			// influential set — log it for the next repair and
			// invalidate (it may displace a member somewhere in the
			// region). At or beyond the guard it is provably harmless.
			if it.P.Dist(a.insAnchor) < a.insGuard {
				a.s.log.append(insqMut{it: it})
				m.invalidate(a.s)
			}
			continue
		}
		if a.puncturedByInsert(it.P) {
			m.invalidate(a.s)
		}
	}
}

// OnDelete must be called after a Delete is visible in the index: a
// deletion invalidates exactly the sessions whose cached result
// contains the removed item. Removing a non-member only ever grows
// validity regions, so cached regions stay correct (conservative).
func (m *Manager) OnDelete(it rtree.Item) {
	m.epoch.Add(1)
	for _, a := range m.idx.collect(it.P) {
		if a.insq {
			// INSQ: any in-set delete must reach the next repair (≤
			// catches a set element sitting exactly at the guard), but
			// only a member delete changes the served answer — ghosts
			// of non-member deletes merely keep Covers conservative.
			if it.P.Dist(a.insAnchor) <= a.insGuard {
				a.s.log.append(insqMut{del: true, it: it})
				if a.holdsMember(it.ID) {
					m.invalidate(a.s)
				}
			}
			continue
		}
		if a.holdsMember(it.ID) {
			m.invalidate(a.s)
		}
	}
}

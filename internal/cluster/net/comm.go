package net

import (
	"fmt"
	gonet "net"
	"os"
	"sync"
	"syscall"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/obs"
	"gbpolar/internal/wire"
)

// Options configures a worker-side connection.
type Options struct {
	// StallTimeout is the worker's per-collective stall budget; it is
	// shipped inside each deposit (the coordinator fails the round with
	// codeTimeout when the tightest budget expires) and backstopped by a
	// slightly looser local timer. 0 defaults to 2 minutes.
	StallTimeout time.Duration
	// DialTimeout bounds the whole connect-with-backoff loop (a rejoining
	// worker keeps retrying with exponential backoff until admitted or
	// this budget is spent). 0 defaults to 15s.
	DialTimeout time.Duration
	// Obs, when non-nil, receives this worker's counters and gauges.
	Obs *obs.Obs
	// ShipTelemetry streams this worker's observability state (trace
	// events plus metric deltas) to the coordinator as mTelemetry frames,
	// flushed at every collective boundary, on Bye, and on a periodic
	// ticker — so a SIGKILLed process has already shipped everything up
	// to its last completed collective. Requires Obs.
	ShipTelemetry bool
	// TelemetryInterval is the periodic flush period (0 = 1s).
	TelemetryInterval time.Duration

	// KillAtCollective is a chaos hook: when > 0, the process SIGKILLs
	// itself on entry to the Nth collective call (1-based) — a real,
	// unclean death for acceptance tests. Ignored in normal operation.
	KillAtCollective int
	// CloseAtCollective is the in-process variant for transport tests:
	// when > 0, the connection is abruptly closed on entry to the Nth
	// collective call, so a goroutine-hosted worker can simulate a crash
	// without taking the test process down.
	CloseAtCollective int
}

func (o Options) withDefaults() Options {
	if o.StallTimeout <= 0 {
		o.StallTimeout = 2 * time.Minute
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 15 * time.Second
	}
	return o
}

// Comm is the worker half of the TCP transport: it implements
// cluster.Transport so the rank bodies in internal/core run over sockets
// unchanged. A Comm is used by a single goroutine (the rank body), like
// every SPMD rank; only the background reader goroutine runs alongside.
type Comm struct {
	rank         int
	size         int
	threads      int
	opsPerSecond float64
	opts         Options
	fc           *frameConn
	start        time.Time
	// ship is the telemetry drainer (nil unless Options.ShipTelemetry).
	ship *obs.Shipper

	// Rejoin state from the welcome frame: how many collectives the run
	// had completed when this worker was admitted, and the last
	// Allreduce result (the seed a mid-protocol joiner resumes from).
	completedRounds int
	joinSeed        []float64

	mu          sync.Mutex
	events      []cluster.MemberEvent
	seq         uint64
	broken      error // sticky: set once the connection is unusable
	collectives int   // entries so far, for the chaos hooks

	roundCh    chan frame
	sendCh     chan frame
	inbox      chan relayed
	pending    []relayed // inbox messages not yet matched by Recv
	readerDone chan struct{}
}

var _ cluster.Transport = (*Comm)(nil)

type frame struct {
	typ  uint8
	body []byte
}

type relayed struct {
	src  int
	tag  int
	data []float64
}

// Dial connects rank to the coordinator at addr, retrying with
// exponential backoff and per-rank jitter until admitted or the dial
// budget is spent. For a founding member admission is immediate; for a
// rejoining worker it blocks until the survivors complete a collective
// (the admission boundary), so a successful Dial means the membership
// log already contains this rank's join event.
func Dial(addr string, rank int, opts Options) (*Comm, error) {
	opts = opts.withDefaults()
	deadline := time.Now().Add(opts.DialTimeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("net: rank %d: dial %s: budget spent (last: %v): %w",
				rank, addr, lastErr, cluster.ErrTimeout)
		}
		c, err := dialOnce(addr, rank, opts, deadline)
		if err == nil {
			return c, nil
		}
		lastErr = err
		time.Sleep(backoff(attempt, rank))
	}
}

func dialOnce(addr string, rank int, opts Options, deadline time.Time) (*Comm, error) {
	conn, err := gonet.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	fc := newFrameConn(conn)
	var hello wire.Writer
	hello.I32(int32(rank))
	if err := fc.writeFrame(mHello, hello.Bytes()); err != nil {
		fc.close()
		return nil, err
	}
	// Wait for the welcome. A rejoiner can wait a while (until the
	// survivors' next successful collective), so the read deadline is the
	// caller's whole dial budget, not a per-attempt constant.
	conn.SetReadDeadline(deadline)
	var typ uint8
	var body []byte
	for {
		typ, body, err = fc.readFrame()
		if err != nil {
			fc.close()
			return nil, err
		}
		if typ == mPing {
			if err := fc.writeFrame(mPong, pongBody(opts.Obs)); err != nil {
				fc.close()
				return nil, err
			}
			continue
		}
		break
	}
	conn.SetReadDeadline(time.Time{})
	if typ != mWelcome {
		fc.close()
		return nil, fmt.Errorf("net: rank %d: frame %d before welcome: %w", rank, typ, cluster.ErrProtocol)
	}
	r := wire.NewReader(body)
	size := int(r.I32())
	threads := int(r.I32())
	ops := r.F64()
	rounds := int(r.U32())
	events := decodeEvents(r)
	seed := r.F64s()
	if r.Err() != nil || size < 1 || rank >= size {
		fc.close()
		return nil, fmt.Errorf("net: rank %d: malformed welcome: %w", rank, cluster.ErrProtocol)
	}
	c := &Comm{
		rank:            rank,
		size:            size,
		threads:         threads,
		opsPerSecond:    ops,
		opts:            opts,
		fc:              fc,
		start:           time.Now(),
		completedRounds: rounds,
		joinSeed:        seed,
		events:          events,
		roundCh:         make(chan frame, 1),
		sendCh:          make(chan frame, 1),
		inbox:           make(chan relayed, 1024),
		readerDone:      make(chan struct{}),
	}
	if opts.ShipTelemetry && opts.Obs != nil {
		c.ship = opts.Obs.NewShipper()
	}
	go c.readLoop()
	if c.ship != nil {
		go c.telemetryLoop()
	}
	return c, nil
}

// pongBody carries the worker's trace clock (µs since its trace origin)
// so the coordinator can estimate the cross-process clock offset from
// the heartbeat RTT midpoint; empty — and ignored by the coordinator —
// when the worker runs without a trace.
func pongBody(o *obs.Obs) []byte {
	if o == nil || o.Trace == nil {
		return nil
	}
	var w wire.Writer
	w.F64(o.Trace.NowUS())
	return w.Bytes()
}

// telemetryLoop is the periodic telemetry flush: collective boundaries
// and Bye flush synchronously; the ticker covers a rank killed (or hung)
// mid-phase, bounding how much observability a hard death can lose.
func (c *Comm) telemetryLoop() {
	iv := c.opts.TelemetryInterval
	if iv <= 0 {
		iv = time.Second
	}
	tick := time.NewTicker(iv)
	defer tick.Stop()
	for {
		select {
		case <-c.readerDone:
			return
		case <-tick.C:
			c.flushTelemetry()
		}
	}
}

// flushTelemetry ships everything recorded since the previous flush.
// Best effort: a write error is already surfacing through the broken
// connection, and a frame lost with a dying socket only loses telemetry,
// never correctness.
func (c *Comm) flushTelemetry() {
	if c.ship == nil {
		return
	}
	payload := c.ship.Collect()
	if len(payload) == 0 {
		return
	}
	if o := c.opts.Obs; o != nil {
		// Named distinctly from the coordinator's net.telemetry.frames:
		// this very counter ships in the next batch and folds into the
		// coordinator's registry, so sender and receiver tallies must not
		// share a name.
		o.Counter("net.telemetry.flushes").Inc()
		o.Histogram("net.frame.telemetry_bytes").Observe(int64(len(payload)))
	}
	c.fc.writeFrame(mTelemetry, payload)
}

// CompletedRounds reports how many collectives the run had completed at
// admission: 0 for a founding member, >0 for a mid-protocol rejoiner
// (the rank body resumes at phase CompletedRounds+1).
func (c *Comm) CompletedRounds() int { return c.completedRounds }

// JoinSeed returns the last completed Allreduce result at admission —
// the state a mid-protocol rejoiner resumes from (nil for founders).
func (c *Comm) JoinSeed() []float64 { return c.joinSeed }

// readLoop is the connection's single reader: it answers heartbeats,
// routes round and send responses to their waiters, and queues relayed
// point-to-point messages. Any read error makes the Comm sticky-broken.
func (c *Comm) readLoop() {
	for {
		typ, body, err := c.fc.readFrame()
		if err != nil {
			c.markBroken(fmt.Errorf("net: rank %d: connection lost: %w", c.rank, cluster.ErrAborted))
			close(c.readerDone)
			return
		}
		switch typ {
		case mPing:
			if err := c.fc.writeFrame(mPong, pongBody(c.opts.Obs)); err != nil {
				c.markBroken(fmt.Errorf("net: rank %d: pong: %w", c.rank, cluster.ErrAborted))
				close(c.readerDone)
				return
			}
		case mRoundOK, mRoundFail:
			c.roundCh <- frame{typ, body}
		case mSendOK, mSendErr:
			c.sendCh <- frame{typ, body}
		case mRelayed:
			r := wire.NewReader(body)
			msg := relayed{src: int(r.I32()), tag: int(r.I32()), data: r.F64s()}
			if r.Err() == nil {
				c.inbox <- msg
			}
		default:
			// Tolerate unknown frame types for forward compatibility.
		}
	}
}

func (c *Comm) markBroken(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	c.mu.Unlock()
}

func (c *Comm) brokenErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// Bye leaves gracefully: flushes any remaining telemetry, tells the
// coordinator this rank finished its body (so its absence from later
// rounds is not a death) and closes. Frames are delivered in order, so
// the final telemetry batch is absorbed before the mBye is processed.
func (c *Comm) Bye() {
	c.flushTelemetry()
	c.fc.writeFrame(mBye, nil)
	c.fc.close()
}

// Close drops the connection without a goodbye; the coordinator will
// observe it as a death if the run is still in progress.
func (c *Comm) Close() { c.fc.close() }

// ---- Transport identity and accounting ----

func (c *Comm) Rank() int    { return c.rank }
func (c *Comm) Size() int    { return c.size }
func (c *Comm) Threads() int { return c.threads }

// Clock returns obs.NoVirtual: the real transport has no virtual clock —
// time passes by itself — so spans opened with it are wall-only, and the
// merged cross-process timeline aligns every rank on the coordinator's
// wall axis via the heartbeat offset estimates instead of per-process
// since-admission pseudo-clocks.
func (c *Comm) Clock() float64 { return obs.NoVirtual }

func (c *Comm) OpsPerSecond() float64 { return c.opsPerSecond }
func (c *Comm) Obs() *obs.Obs         { return c.opts.Obs }

// ChargeCompute/ChargeOps are accounting no-ops on the real transport —
// time passes by itself — but feed the worker's observer when present.
func (c *Comm) ChargeCompute(seconds float64) {}
func (c *Comm) ChargeOps(ops float64) {
	if o := c.opts.Obs; o != nil {
		o.Counter("net.kernel_ops").Add(int64(ops))
	}
}

func (c *Comm) TrackMemory(bytes int64) {
	if o := c.opts.Obs; o != nil {
		o.Gauge("net.rank_bytes").Set(float64(bytes))
	}
}

// NoteRecovery meters recovery work locally and forwards it to the
// coordinator's aggregated FaultReport (best effort — a lost stats frame
// only under-reports metering, never correctness).
func (c *Comm) NoteRecovery(rows int, seconds float64) {
	if o := c.opts.Obs; o != nil {
		o.Counter("cluster.recovered_rows").Add(int64(rows))
	}
	var w wire.Writer
	w.I64(int64(rows))
	w.F64(seconds)
	c.fc.writeFrame(mStats, w.Bytes())
}

// ---- Membership ----

func (c *Comm) MemberEvents() []cluster.MemberEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]cluster.MemberEvent(nil), c.events...)
}

func (c *Comm) DeadRanks() []int {
	return cluster.DeadFromEvents(c.size, c.MemberEvents())
}

// adoptEvents replaces the local membership view with the coordinator's
// authoritative log carried on a response.
func (c *Comm) adoptEvents(events []cluster.MemberEvent) {
	c.mu.Lock()
	c.events = events
	c.mu.Unlock()
}

// ---- Collectives ----

// hookCollective runs the chaos hooks on collective entry.
func (c *Comm) hookCollective() {
	c.mu.Lock()
	c.collectives++
	n := c.collectives
	c.mu.Unlock()
	if c.opts.KillAtCollective > 0 && n == c.opts.KillAtCollective {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable; SIGKILL cannot be caught
	}
	if c.opts.CloseAtCollective > 0 && n == c.opts.CloseAtCollective {
		c.fc.close()
	}
}

// kindName maps a wire collective kind onto the span names the modeled
// transport's rendezvous emits, so merged analytics attribute both
// transports' collectives identically.
func kindName(kind uint8) string {
	switch kind {
	case kindBarrier:
		return "barrier"
	case kindAllreduce:
		return "allreduce"
	case kindReduce:
		return "reduce"
	case kindBcast:
		return "bcast"
	case kindAllgatherv:
		return "allgatherv"
	}
	return "collective"
}

// collective runs one deposit/response exchange. On success it adopts
// the response's event log (which may have grown by joins admitted at
// this boundary) and returns the combined result; on failure it adopts
// the log (grown by deaths) and returns the mapped sentinel. Each
// exchange emits a collective span (bytes, wait-vs-transfer split) and,
// because the round boundary is where every rank's state is consistent,
// triggers a telemetry flush on the way out.
func (c *Comm) collective(kind, op uint8, root int32, counts []int32, data []float64) (res []float64, err error) {
	c.hookCollective()
	if berr := c.brokenErr(); berr != nil {
		return nil, berr
	}
	o := c.opts.Obs
	sp := o.Begin(c.rank, "collective", kindName(kind), obs.NoVirtual)
	var nbytes, waitUS, xferUS float64
	defer func() {
		args := []obs.KV{obs.F("bytes", nbytes),
			obs.F("wait_us", waitUS), obs.F("xfer_us", xferUS)}
		if err != nil {
			args = append(args, obs.F("error", 1))
		}
		sp.End(obs.NoVirtual, args...)
		// Boundary flush: everything up to and including this collective
		// ships before the next phase starts.
		c.flushTelemetry()
	}()
	c.mu.Lock()
	c.seq++
	dep := deposit{
		seq:        c.seq,
		kind:       kind,
		op:         op,
		root:       root,
		seenEvents: uint32(len(c.events)),
		deadlineMS: uint32(c.opts.StallTimeout.Milliseconds()),
		counts:     counts,
		data:       data,
	}
	c.mu.Unlock()
	var w wire.Writer
	dep.append(&w)
	nbytes = float64(len(w.Bytes()))
	t0 := time.Now()
	werr := c.fc.writeFrame(mDeposit, w.Bytes())
	xferUS = float64(time.Since(t0)) / float64(time.Microsecond)
	if o != nil {
		o.Counter("net.frames.sent").Inc()
		o.Counter("net.bytes.sent").Add(int64(len(w.Bytes())))
		o.Histogram("net.frame.deposit_bytes").Observe(int64(len(w.Bytes())))
	}
	if werr != nil {
		err = fmt.Errorf("net: rank %d: deposit: %w", c.rank, cluster.ErrAborted)
		c.markBroken(err)
		return nil, err
	}
	tWait := time.Now()
	resp, aerr := c.await(c.roundCh, dep.seq, "collective")
	waitUS = float64(time.Since(tWait)) / float64(time.Microsecond)
	if aerr != nil {
		return nil, aerr
	}
	r := wire.NewReader(resp.body)
	seq := r.U64()
	if resp.typ == mRoundFail {
		code := r.U8()
		events := decodeEvents(r)
		if r.Err() != nil || seq != dep.seq {
			return nil, c.protoBroken("round failure")
		}
		c.adoptEvents(events)
		return nil, fmt.Errorf("net: rank %d: collective failed: %w",
			c.rank, codeToError(code, c.size, events))
	}
	events := decodeEvents(r)
	result := r.F64s()
	if r.Err() != nil || seq != dep.seq {
		return nil, c.protoBroken("round result")
	}
	c.adoptEvents(events)
	return result, nil
}

// await blocks for the matching response, bounded by the local stall
// backstop (looser than the deadline shipped in the deposit, so the
// coordinator's verdict normally arrives first and stays authoritative).
func (c *Comm) await(ch chan frame, seq uint64, what string) (frame, error) {
	timer := time.NewTimer(c.opts.StallTimeout + 5*time.Second)
	defer timer.Stop()
	select {
	case resp := <-ch:
		return resp, nil
	case <-c.readerDone:
		// select picks at random among ready cases: a response the reader
		// queued just before the connection dropped (the final mRoundOK of
		// a run) must win over the closed readerDone.
		select {
		case resp := <-ch:
			return resp, nil
		default:
		}
		return frame{}, c.brokenErr()
	case <-timer.C:
		err := fmt.Errorf("net: rank %d: %s stalled past %v: %w",
			c.rank, what, c.opts.StallTimeout, cluster.ErrTimeout)
		c.markBroken(err) // response stream is now ambiguous
		c.fc.close()
		return frame{}, err
	}
}

// protoBroken marks the connection unusable after a malformed response.
func (c *Comm) protoBroken(what string) error {
	err := fmt.Errorf("net: rank %d: malformed %s: %w", c.rank, what, cluster.ErrProtocol)
	c.markBroken(err)
	c.fc.close()
	return err
}

func (c *Comm) Barrier() error {
	_, err := c.collective(kindBarrier, 0, -1, nil, nil)
	return err
}

func (c *Comm) Allreduce(data []float64, op cluster.Op) ([]float64, error) {
	return c.collective(kindAllreduce, uint8(op), -1, nil, data)
}

func (c *Comm) Reduce(root int, data []float64, op cluster.Op) ([]float64, error) {
	if root < 0 || root >= c.size {
		return nil, fmt.Errorf("net: rank %d: reduce root %d: %w", c.rank, root, cluster.ErrInvalidRank)
	}
	return c.collective(kindReduce, uint8(op), int32(root), nil, data)
}

func (c *Comm) Bcast(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= c.size {
		return nil, fmt.Errorf("net: rank %d: bcast root %d: %w", c.rank, root, cluster.ErrInvalidRank)
	}
	var payload []float64
	if c.rank == root {
		payload = data
	}
	return c.collective(kindBcast, 0, int32(root), nil, payload)
}

func (c *Comm) Allgatherv(contrib []float64, counts []int) ([]float64, error) {
	if len(counts) != c.size {
		return nil, fmt.Errorf("net: rank %d: allgatherv counts length %d, want %d: %w",
			c.rank, len(counts), c.size, cluster.ErrProtocol)
	}
	if len(contrib) != counts[c.rank] {
		return nil, fmt.Errorf("net: rank %d: allgatherv contributes %d, counts say %d: %w",
			c.rank, len(contrib), counts[c.rank], cluster.ErrProtocol)
	}
	c32 := make([]int32, len(counts))
	for i, n := range counts {
		if n < 0 {
			return nil, fmt.Errorf("net: rank %d: allgatherv negative count: %w", c.rank, cluster.ErrProtocol)
		}
		c32[i] = int32(n)
	}
	return c.collective(kindAllgatherv, 0, -1, c32, contrib)
}

// ---- Point-to-point ----

func (c *Comm) Send(dst, tag int, data []float64) error {
	if err := c.brokenErr(); err != nil {
		return err
	}
	if dst == c.rank {
		return fmt.Errorf("net: rank %d: %w", c.rank, cluster.ErrSelfSend)
	}
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("net: rank %d: send to %d: %w", c.rank, dst, cluster.ErrInvalidRank)
	}
	// Fast path: the local log already knows the destination is dead.
	for _, d := range c.DeadRanks() {
		if d == dst {
			return fmt.Errorf("net: rank %d: send to %d: %w",
				c.rank, dst, &cluster.RankDeadError{Dead: c.DeadRanks()})
		}
	}
	c.mu.Lock()
	c.seq++
	seq := c.seq
	c.mu.Unlock()
	var w wire.Writer
	w.U64(seq)
	w.I32(int32(dst))
	w.I32(int32(tag))
	w.F64s(data)
	if err := c.fc.writeFrame(mRelay, w.Bytes()); err != nil {
		err = fmt.Errorf("net: rank %d: relay: %w", c.rank, cluster.ErrAborted)
		c.markBroken(err)
		return err
	}
	resp, err := c.await(c.sendCh, seq, "send")
	if err != nil {
		return err
	}
	r := wire.NewReader(resp.body)
	got := r.U64()
	if resp.typ == mSendErr {
		code := r.U8()
		events := decodeEvents(r)
		if r.Err() != nil || got != seq {
			return c.protoBroken("send failure")
		}
		c.adoptEvents(events)
		return fmt.Errorf("net: rank %d: send to %d: %w",
			c.rank, dst, codeToError(code, c.size, events))
	}
	if r.Err() != nil || got != seq {
		return c.protoBroken("send ack")
	}
	return nil
}

func (c *Comm) Recv(src, tag int) ([]float64, int, error) {
	matches := func(m relayed) bool {
		return (src == cluster.AnySource || m.src == src) && (tag == cluster.AnyTag || m.tag == tag)
	}
	// A message the reader queued before the connection dropped was
	// delivered, so the queue is consulted before the broken check.
	if m, ok := c.takeQueued(matches); ok {
		return m.data, m.src, nil
	}
	if err := c.brokenErr(); err != nil {
		return nil, 0, err
	}
	if src != cluster.AnySource && (src < 0 || src >= c.size) {
		return nil, 0, fmt.Errorf("net: rank %d: recv from %d: %w", c.rank, src, cluster.ErrInvalidRank)
	}
	timer := time.NewTimer(c.opts.StallTimeout + 5*time.Second)
	defer timer.Stop()
	for {
		select {
		case m := <-c.inbox:
			if matches(m) {
				return m.data, m.src, nil
			}
			c.pending = append(c.pending, m)
		case <-c.readerDone:
			// select picks at random among ready cases (see await): drain
			// what the reader queued before it exited.
			if m, ok := c.takeQueued(matches); ok {
				return m.data, m.src, nil
			}
			return nil, 0, c.brokenErr()
		case <-timer.C:
			err := fmt.Errorf("net: rank %d: recv stalled past %v: %w",
				c.rank, c.opts.StallTimeout, cluster.ErrTimeout)
			return nil, 0, err
		}
	}
}

// takeQueued returns the first matching message already received: from
// pending, then from a non-blocking drain of the inbox (non-matching
// messages move to pending). ok is false when none matches.
func (c *Comm) takeQueued(matches func(relayed) bool) (m relayed, ok bool) {
	for i, m := range c.pending {
		if matches(m) {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return m, true
		}
	}
	for {
		select {
		case m := <-c.inbox:
			if matches(m) {
				return m, true
			}
			c.pending = append(c.pending, m)
		default:
			return relayed{}, false
		}
	}
}

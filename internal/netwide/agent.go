package netwide

import (
	"fmt"
	"net"
	"time"

	"cocosketch/internal/core"
	"cocosketch/internal/flowkey"
	"cocosketch/internal/report"
	"cocosketch/internal/telemetry"
)

// DefaultSpoolLimit bounds the agent-side snapshot spool: at most this
// many undelivered epoch sketches are held before the overflow policy
// (coalesce or drop-oldest) kicks in.
const DefaultSpoolLimit = 8

// SpoolPolicy selects what a full spool does with one more epoch.
type SpoolPolicy int

const (
	// SpoolCoalesce merges the newest adjacent pair of spool entries
	// sealed by fingerprint-identical codecs with core.Merge: memory
	// stays bounded, no observation is lost, and estimates over the
	// union stay unbiased — the epochs just coarsen (the merged report
	// spans an epoch range). Coalescing compares report.Codec
	// Fingerprints, not names: entries sealed under different sealing
	// parameters (e.g. a mid-run -report-shrink change) have different
	// stage geometries and delta semantics, so they never merge; if a mixed-codec spool has no
	// mergeable adjacent pair at all, the oldest non-head entry is
	// shed instead, with its weight counted in
	// "netwide.dropped_weight" (exact accounting, like
	// SpoolDropOldest). The head of the spool is never coalesced or
	// shed when the limit is at least 2, because a head entry may
	// already have been received by the collector with its
	// acknowledgement lost, and re-sending it unmodified is what makes
	// the retry idempotent.
	SpoolCoalesce SpoolPolicy = iota
	// SpoolDropOldest sheds the oldest spool entry, counting its
	// weight in "netwide.dropped_weight" — bounded loss, exact
	// accounting.
	SpoolDropOldest
)

// spoolEntry is one undelivered report: the stage sealed by the
// epoch's codec and the contiguous epoch range it covers ([lo, hi],
// both inclusive; lo == hi until coalescing widens it). The sealing
// codec rides along so a spool that spans a SetCodec switch still
// flushes every entry through the encoder that understands it, and so
// coalescing only merges stages of the same codec (same geometry).
type spoolEntry struct {
	lo, hi uint32
	stage  *core.Basic[flowkey.FiveTuple]
	weight uint64
	// rawBytes is what a full snapshot of the sealed epoch would have
	// cost on the wire — the numerator of the compression ratio.
	rawBytes uint64
	codec    report.Codec[flowkey.FiveTuple]
}

// Agent is one vantage point: it measures local traffic into a basic
// CocoSketch and reports per epoch. Agents at different vantage points
// MUST share the same Config (geometry and seed) so the collector can
// merge their sketches; flows seen at multiple vantage points are
// counted once per observation, as in link-level measurement.
//
// Reporting is hardened for a collector that is slow, restarting or
// partitioned away: every report exchange runs under a write deadline
// (SetWriteTimeout), retries redial with capped jittered backoff
// (Backoff), and epochs the collector never acknowledged are sealed
// into a bounded spool (EndEpoch) that coalesces instead of blocking
// the ingest path — see DESIGN.md §12 for the full fault model.
//
// Agent is not safe for concurrent use (one dataplane thread per
// agent, as elsewhere in this repository).
type Agent struct {
	id     uint16
	cfg    core.Config
	sketch *core.Basic[flowkey.FiveTuple]
	epoch  uint32
	tel    agentTel
	// sketchTel is re-installed on each epoch's fresh sketch.
	sketchTel *telemetry.SketchMetrics

	clock        Clock
	writeTimeout time.Duration
	backoff      *Backoff
	spool        []spoolEntry
	spoolLimit   int
	spoolPolicy  SpoolPolicy

	// codec seals epochs from here on; encoders holds one live encoder
	// per codec ever used (delta state must survive codec switches for
	// entries already spooled under the old codec).
	codec    report.Codec[flowkey.FiveTuple]
	encoders map[report.Codec[flowkey.FiveTuple]]report.Encoder[flowkey.FiveTuple]
	// local is the fat stage of the most recently sealed epoch: with a
	// compressed codec only the small stage ships, and this keeps
	// full-resolution local queries possible (SF-sketch's split).
	local *core.Basic[flowkey.FiveTuple]
}

// agentTel groups the agent-side counters (all nil-safe; nil without
// SetTelemetry).
type agentTel struct {
	// observed accumulates the total weight measured into epochs (one
	// per unit-weight packet, w for Observe(k, w), the absorbed
	// sketch's weight for Absorb).
	observed *telemetry.Counter
	// reportsSent counts successfully acknowledged reports;
	// reportBytes their on-the-wire payload bytes; reportRawBytes what
	// the same reports would have cost as full snapshots (the codec
	// compression baseline); reportRatio the per-report raw/wire ratio
	// ×100; deliveredWeight the sketch weight those reports carried.
	reportsSent     *telemetry.Counter
	reportBytes     *telemetry.Counter
	reportRawBytes  *telemetry.Counter
	reportRatio     *telemetry.Histogram
	deliveredWeight *telemetry.Counter
	// absorbs counts external sketches merged in (sharded ingest).
	absorbs *telemetry.Counter
	// reconnects counts redials performed by the *WithRedial methods.
	reconnects *telemetry.Counter
	// spooledEpochs counts epochs sealed into the spool; spoolCoalesced
	// counts overflow merges; droppedWeight/droppedEpochs what the
	// drop-oldest policy shed. spoolDepth/spoolWeight gauge the spool.
	spooledEpochs  *telemetry.Counter
	spoolCoalesced *telemetry.Counter
	droppedWeight  *telemetry.Counter
	droppedEpochs  *telemetry.Counter
	spoolDepth     *telemetry.Gauge
	spoolWeight    *telemetry.Gauge
}

// SetTelemetry registers the agent's counters ("netwide."-prefixed)
// plus a sketch outcome group ("core."-prefixed) on r; a nil registry
// disables telemetry. Returns the agent for chaining.
//
// The counters form an exact conservation ledger, checked by the chaos
// suite: after EndEpoch (current sketch empty),
//
//	observed = delivered_weight + spool_weight + dropped_weight
//
// holds with equality — every observed unit of weight is either
// acknowledged by the collector, still spooled, or deliberately shed.
func (a *Agent) SetTelemetry(r *telemetry.Registry) *Agent {
	a.tel = agentTel{
		observed:        r.Counter("netwide.observed"),
		reportsSent:     r.Counter("netwide.reports_sent"),
		reportBytes:     r.Counter("netwide.report_bytes"),
		reportRawBytes:  r.Counter("netwide.report_raw_bytes"),
		reportRatio:     r.Histogram("netwide.report_ratio_x100"),
		deliveredWeight: r.Counter("netwide.delivered_weight"),
		absorbs:         r.Counter("netwide.absorbs"),
		reconnects:      r.Counter("netwide.reconnects"),
		spooledEpochs:   r.Counter("netwide.spooled_epochs"),
		spoolCoalesced:  r.Counter("netwide.spool_coalesced"),
		droppedWeight:   r.Counter("netwide.dropped_weight"),
		droppedEpochs:   r.Counter("netwide.dropped_epochs"),
		spoolDepth:      r.Gauge("netwide.spool_depth"),
		spoolWeight:     r.Gauge("netwide.spool_weight"),
	}
	a.sketchTel = telemetry.NewSketchMetrics(r, "core")
	a.sketch.SetTelemetry(a.sketchTel)
	return a
}

// NewAgent creates an agent with the shared sketch configuration, the
// system clock, the default backoff policy (seeded from the shared
// seed and the agent id, so co-failing agents jitter apart), no write
// timeout, and a DefaultSpoolLimit-entry coalescing spool.
func NewAgent(id uint16, cfg core.Config) *Agent {
	return &Agent{
		id:         id,
		cfg:        cfg,
		sketch:     core.NewBasic[flowkey.FiveTuple](cfg),
		clock:      SystemClock,
		backoff:    NewBackoff(DefaultBackoffBase, DefaultBackoffMax, cfg.Seed^(uint64(id)+1)*0x9e3779b97f4a7c15),
		spoolLimit: DefaultSpoolLimit,
		codec:      report.Full[flowkey.FiveTuple](flowkey.FiveTupleFromBytes),
		encoders:   make(map[report.Codec[flowkey.FiveTuple]]report.Encoder[flowkey.FiveTuple]),
	}
}

// SetCodec selects the report codec sealing epochs from now on (the
// default is report.Full, the pre-codec wire format). Epochs already
// spooled keep the codec that sealed them, so switching mid-stream is
// safe — the spool simply becomes mixed-codec until it drains (see
// SpoolPolicy for how coalescing treats that). The collector must run
// a decoder that understands the chosen codec (Collector.SetCodec);
// DESIGN.md §14 has the compatibility matrix. Returns the agent for
// chaining.
func (a *Agent) SetCodec(c report.Codec[flowkey.FiveTuple]) *Agent {
	a.codec = c
	return a
}

// Codec returns the codec currently sealing epochs.
func (a *Agent) Codec() report.Codec[flowkey.FiveTuple] { return a.codec }

// LocalStage returns the fat stage of the most recently sealed epoch
// (nil before the first EndEpoch or Report). With a compressed codec
// only the extracted small stage ships to the collector; the fat
// sketch stays here at full resolution for local queries, per
// SF-sketch's two-stage split. With the full codec the sealed sketch
// itself is returned. Callers must treat it as read-only.
func (a *Agent) LocalStage() *core.Basic[flowkey.FiveTuple] { return a.local }

// encoderFor returns the live encoder for a codec, creating it on
// first use. Encoders are per-codec because delta state is only
// meaningful within one codec's stage geometry.
func (a *Agent) encoderFor(c report.Codec[flowkey.FiveTuple]) report.Encoder[flowkey.FiveTuple] {
	enc, ok := a.encoders[c]
	if !ok {
		enc = c.NewEncoder()
		a.encoders[c] = enc
	}
	return enc
}

// seal converts the current epoch's fat sketch into its wire stage via
// the active codec, retaining the fat sketch for LocalStage. A codec
// that cannot stage this geometry falls back to the fat sketch itself:
// every codec's wire format is self-describing, so the report is then
// merely uncompressed, never wrong.
func (a *Agent) seal() *core.Basic[flowkey.FiveTuple] {
	stage, err := a.codec.Seal(a.sketch)
	if err != nil {
		stage = a.sketch
	}
	a.local = a.sketch
	return stage
}

// SetClock replaces the agent's time source (deadlines and backoff
// sleeps); the chaos suite installs faultnet's virtual clock here.
// Returns the agent for chaining.
func (a *Agent) SetClock(c Clock) *Agent {
	a.clock = c
	return a
}

// SetWriteTimeout bounds each report exchange (serialize, write, await
// ack): the connection deadline is armed writeTimeout from Now before
// every report and cleared after. Zero disables deadlines (the
// pre-hardening behavior: a stalled collector blocks the agent
// forever). Returns the agent for chaining.
func (a *Agent) SetWriteTimeout(d time.Duration) *Agent {
	a.writeTimeout = d
	return a
}

// SetBackoff replaces the redial backoff policy. Returns the agent for
// chaining.
func (a *Agent) SetBackoff(b *Backoff) *Agent {
	a.backoff = b
	return a
}

// SetSpool bounds the undelivered-epoch spool at limit entries with
// the given overflow policy. A limit of at least 2 is recommended with
// SpoolCoalesce so the possibly-transmitted head entry is never
// rewritten (see SpoolPolicy). Returns the agent for chaining.
func (a *Agent) SetSpool(limit int, policy SpoolPolicy) *Agent {
	a.spoolLimit = limit
	a.spoolPolicy = policy
	return a
}

// Observe records one packet of weight w.
func (a *Agent) Observe(key flowkey.FiveTuple, w uint64) {
	a.sketch.Insert(key, w)
	a.tel.observed.Add(w)
}

// ObserveBatch records a burst of unit-weight packets through the
// batched insert path (the path shard's replay loop and the OVS
// pipeline insert through).
func (a *Agent) ObserveBatch(keys []flowkey.FiveTuple) {
	a.sketch.InsertBatchUnit(keys)
	a.tel.observed.Add(uint64(len(keys)))
}

// Absorb merges an externally built sketch of the shared Config into
// the current epoch — the hand-off point for replay ingest:
// shard.ReplayPCAPBasic measures the epoch's capture across N receive
// queues, and its merged sketch lands here before Report ships it to
// the collector.
func (a *Agent) Absorb(s *core.Basic[flowkey.FiveTuple]) error {
	if err := a.sketch.Merge(s); err != nil {
		return err
	}
	a.tel.absorbs.Inc()
	a.tel.observed.Add(s.SumValues())
	return nil
}

// Epoch returns the current epoch number.
func (a *Agent) Epoch() uint32 { return a.epoch }

// PendingEpochs returns how many undelivered reports sit in the spool.
func (a *Agent) PendingEpochs() int { return len(a.spool) }

// PendingWeight returns the total sketch weight waiting in the spool.
func (a *Agent) PendingWeight() uint64 {
	var w uint64
	for i := range a.spool {
		w += a.spool[i].weight
	}
	return w
}

// EndEpoch seals the current epoch's sketch into the spool and opens a
// fresh epoch. It never touches the network and never blocks, so the
// ingest path stays live while the collector is unreachable; call
// Flush (or FlushWithRedial) to attempt delivery. Overflow beyond the
// spool limit is resolved by the configured SpoolPolicy.
func (a *Agent) EndEpoch() {
	e := spoolEntry{
		lo:       a.epoch,
		hi:       a.epoch,
		weight:   a.sketch.SumValues(),
		rawBytes: uint64(a.sketch.MarshaledSize()),
		codec:    a.codec,
	}
	e.stage = a.seal()
	a.epoch++
	a.sketch = core.NewBasic[flowkey.FiveTuple](a.cfg).SetTelemetry(a.sketchTel)
	a.spool = append(a.spool, e)
	a.tel.spooledEpochs.Inc()
	if a.spoolLimit > 0 && len(a.spool) > a.spoolLimit {
		a.shedOverflow()
	}
	a.updateSpoolTel()
}

// shedOverflow brings the spool back to its limit per the policy.
func (a *Agent) shedOverflow() {
	switch a.spoolPolicy {
	case SpoolDropOldest:
		head := a.spool[0]
		a.spool = append(a.spool[:0], a.spool[1:]...)
		a.tel.droppedWeight.Add(head.weight)
		a.tel.droppedEpochs.Add(uint64(head.hi-head.lo) + 1)
	default: // SpoolCoalesce
		// Coalescing is codec-aware: only adjacent entries whose
		// sealing codecs share a Fingerprint may merge. The fingerprint
		// — not the name — is the comparison, because "compressed" at
		// shrink 8 and at shrink 16 seal to different stage geometries;
		// a mid-run SetCodec shrink change must start a new coalescing
		// run, never fold a new-shrink stage into an old-shrink one.
		// Scan newest-first so a single-codec spool behaves exactly as
		// before — the two newest entries merge. The head (index 0)
		// stays untouched unless it is half of the only pair,
		// preserving retry idempotency (see SpoolPolicy).
		low := 1
		if len(a.spool) == 2 {
			low = 0
		}
		for i := len(a.spool) - 2; i >= low; i-- {
			j := i + 1
			if a.spool[i].codec.Fingerprint() != a.spool[j].codec.Fingerprint() {
				continue
			}
			// Merge validates compatibility before mutating, so a
			// failed pair can be skipped and the scan continued.
			if err := a.spool[i].stage.Merge(a.spool[j].stage); err != nil {
				continue
			}
			a.spool[i].hi = a.spool[j].hi
			a.spool[i].weight += a.spool[j].weight
			// The merged range's snapshot baseline is one snapshot,
			// not two: keep the larger of the pair.
			if a.spool[j].rawBytes > a.spool[i].rawBytes {
				a.spool[i].rawBytes = a.spool[j].rawBytes
			}
			a.spool = append(a.spool[:j], a.spool[j+1:]...)
			a.tel.spoolCoalesced.Inc()
			return
		}
		// No mergeable pair (a mixed-codec spool with alternating
		// seams): shed the oldest non-head entry with exact
		// accounting, keeping the possibly-transmitted head intact.
		drop := 1
		if len(a.spool) < 2 {
			drop = 0
		}
		d := a.spool[drop]
		a.spool = append(a.spool[:drop], a.spool[drop+1:]...)
		a.tel.droppedWeight.Add(d.weight)
		a.tel.droppedEpochs.Add(uint64(d.hi-d.lo) + 1)
	}
}

// updateSpoolTel refreshes the spool gauges.
func (a *Agent) updateSpoolTel() {
	a.tel.spoolDepth.Set(int64(len(a.spool)))
	a.tel.spoolWeight.Set(int64(a.PendingWeight()))
}

// Flush delivers spooled reports oldest-first over conn, stopping at
// the first transport error (delivered entries are retired either
// way). Each entry is encoded by the codec that sealed it; payloads
// are delta-encoded at flush time, against the last acknowledged
// report, so coalescing a spooled stage never invalidates a
// pre-computed delta. Any failed exchange resets that codec's delta
// base — the collector's receipt is then unknown, and the retry must
// be self-contained. Each exchange runs under the agent's write
// timeout. A nil return means the spool is empty.
func (a *Agent) Flush(conn net.Conn) error {
	for len(a.spool) > 0 {
		e := &a.spool[0]
		enc := a.encoderFor(e.codec)
		blob, err := enc.Encode(e.hi, e.stage)
		if err != nil {
			return err
		}
		if err := a.exchange(conn, Message{Type: MsgSketch, Epoch: e.hi, AgentID: a.id, Payload: blob}); err != nil {
			enc.Reset()
			return err
		}
		enc.Ack(e.hi, e.stage)
		a.tel.reportsSent.Inc()
		a.tel.reportBytes.Add(uint64(len(blob)))
		a.tel.reportRawBytes.Add(e.rawBytes)
		if len(blob) > 0 {
			a.tel.reportRatio.Observe(e.rawBytes * 100 / uint64(len(blob)))
		}
		a.tel.deliveredWeight.Add(e.weight)
		a.spool = append(a.spool[:0], a.spool[1:]...)
		a.updateSpoolTel()
	}
	return nil
}

// FlushWithRedial is Flush with the shared redial policy: on a
// transport error it closes the connection, sleeps the backoff delay,
// redials and resumes flushing, up to attempts redials. It returns the
// connection to use next (the last successfully dialed one) and the
// last error once attempts are exhausted.
func (a *Agent) FlushWithRedial(conn net.Conn, dial func() (net.Conn, error), attempts int) (net.Conn, error) {
	return a.withRedial(conn, dial, attempts, a.Flush)
}

// exchange runs one report round trip under the write timeout: write
// the message, await and validate the acknowledgement.
func (a *Agent) exchange(conn net.Conn, msg Message) error {
	if a.writeTimeout > 0 {
		if err := conn.SetDeadline(a.clock.Now().Add(a.writeTimeout)); err != nil {
			return fmt.Errorf("netwide: arming report deadline: %w", err)
		}
		defer conn.SetDeadline(time.Time{})
	}
	if err := WriteMessage(conn, msg); err != nil {
		return err
	}
	ack, err := ReadMessage(conn)
	if err != nil {
		return err
	}
	if ack.Type != MsgAck || ack.Epoch != msg.Epoch {
		return fmt.Errorf("netwide: unexpected ack (type %d, epoch %d)", ack.Type, ack.Epoch)
	}
	return nil
}

// Report ships the current epoch's sketch to the collector over conn
// through the active codec, waits for the acknowledgement, and resets
// local state for the next epoch. The spool is not involved: a failed
// Report leaves the epoch open for a direct retry (ReportWithRedial),
// which is the simple fail-fast mode of cmd/cocoagent without -spool.
// As in Flush, a failed exchange resets the codec's delta base so the
// retry is self-contained; sealing is deterministic, so the retried
// payload describes the identical stage.
func (a *Agent) Report(conn net.Conn) error {
	stage, err := a.codec.Seal(a.sketch)
	if err != nil {
		stage = a.sketch
	}
	enc := a.encoderFor(a.codec)
	blob, err := enc.Encode(a.epoch, stage)
	if err != nil {
		return err
	}
	w := a.sketch.SumValues()
	raw := uint64(a.sketch.MarshaledSize())
	if err := a.exchange(conn, Message{Type: MsgSketch, Epoch: a.epoch, AgentID: a.id, Payload: blob}); err != nil {
		enc.Reset()
		return err
	}
	enc.Ack(a.epoch, stage)
	a.local = a.sketch
	a.epoch++
	a.sketch = core.NewBasic[flowkey.FiveTuple](a.cfg).SetTelemetry(a.sketchTel)
	a.tel.reportsSent.Inc()
	a.tel.reportBytes.Add(uint64(len(blob)))
	a.tel.reportRawBytes.Add(raw)
	if len(blob) > 0 {
		a.tel.reportRatio.Observe(raw * 100 / uint64(len(blob)))
	}
	a.tel.deliveredWeight.Add(w)
	return nil
}

// ReportWithRedial ships the epoch like Report, but on a transport
// error it closes the connection, sleeps the shared backoff delay
// (capped exponential with seeded jitter — see Backoff), redials and
// retries, up to attempts redials; failed dials consume an attempt and
// keep retrying, so a collector restart longer than one backoff step
// is survived. Each successful redial is counted in the
// "netwide.reconnects" telemetry counter. It returns the connection to
// use for the next epoch and the last error once attempts are
// exhausted.
//
// The epoch sketch is only reset after a successful acknowledgement,
// so a retried report re-sends the same epoch; the collector's
// duplicate detection makes that idempotent.
func (a *Agent) ReportWithRedial(conn net.Conn, dial func() (net.Conn, error), attempts int) (net.Conn, error) {
	return a.withRedial(conn, dial, attempts, a.Report)
}

// withRedial runs op over conn, and on failure loops close → backoff
// sleep → redial → retry until op succeeds or attempts redials are
// spent. The returned conn is the live connection when err is nil and
// the last (closed or dead) one otherwise.
func (a *Agent) withRedial(conn net.Conn, dial func() (net.Conn, error), attempts int, op func(net.Conn) error) (net.Conn, error) {
	err := op(conn)
	for try := 0; err != nil && try < attempts; try++ {
		conn.Close()
		a.clock.Sleep(a.backoff.Delay(try))
		next, derr := dial()
		if derr != nil {
			err = fmt.Errorf("netwide: redial after %q: %w", err, derr)
			continue
		}
		conn = next
		a.tel.reconnects.Inc()
		err = op(conn)
	}
	return conn, err
}

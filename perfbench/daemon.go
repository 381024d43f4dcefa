package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"sync"
	"time"

	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/stream"
	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

// The daemon workload: half covert (2.4 MS/s), half keylog (240 kS/s)
// streams fed by one producer goroutine in fixed chunks into a
// stream.Daemon that checkpoints every few chunks, as the supervised
// deployment does.
const (
	saturatedStreams   = 8 // half covert, half keylog
	pacedStreams       = 4 // 2 × 2.4 MS/s + 2 × 240 kS/s = 5.28 MS/s offered
	capturesPerKind    = 2 // stream i replays capture i mod 2 of its kind
	chunkSamples       = 65536
	queueChunks        = 8
	checkpointEvery    = 8
	daemonKeylogChars  = 17 // about 3 words, ~4.5 s of typing
	tracedSessions     = 3  // sessions per stream in each --trace 1 saturated pass
	pacedShareOfRun    = 0.4
	pacedShareOfTraced = 0.3
)

// daemonCapture is one pre-generated capture with its batch reference.
type daemonCapture struct {
	kind    opKind
	iq      []complex128
	rate    float64
	center  float64
	rxCfg   covert.RXConfig
	detCfg  keylog.DetectorConfig
	ref     any // *covert.Demod or *keylog.Detection from the batch receiver
	digest  [32]byte
	ber     [2]int // covert: substitutions, transmitted bits
	recall  [2]int // keylog: matched, true keystrokes
	recycle func()
}

// daemonSetup generates the captures and their batch references: the
// Windows laptops' long covert transfers and short typing sessions.
func daemonSetup(seed int64) []*daemonCapture {
	rng := xrand.New(seed)
	profiles := laptop.Profiles()
	var caps []*daemonCapture
	for _, p := range []laptop.Profile{profiles[0], profiles[5]} {
		tb := core.NewTestbed(core.WithLaptop(p), core.WithSeed(rng.Int63()))
		pc := tb.PrepareCovert(covertConfig())
		ref := covert.Demodulate(pc.Cap, pc.RXCfg)
		m := pc.Finish(ref)
		caps = append(caps, &daemonCapture{
			kind: opCovert, iq: pc.Cap.IQ, rate: pc.Cap.SampleRate, center: pc.Cap.CenterFreqHz,
			rxCfg: pc.RXCfg, ref: ref, digest: digestBits(ref.Bits),
			ber: [2]int{m.Substitutions, m.TxLen}, recycle: pc.Cap.Recycle,
		})
	}
	for i := 0; i < capturesPerKind; i++ {
		tb := core.NewTestbed(core.WithSeed(rng.Int63()))
		pk := tb.PrepareKeylog(core.KeylogConfig{Text: randomText(daemonKeylogChars, rng.Fork())})
		ref := keylog.Detect(pk.Cap, pk.DetCfg)
		m := pk.Finish(ref)
		caps = append(caps, &daemonCapture{
			kind: opKeylog, iq: pk.Cap.IQ, rate: pk.Cap.SampleRate, center: pk.Cap.CenterFreqHz,
			detCfg: pk.DetCfg, ref: ref, digest: digestKeystrokes(ref.Keystrokes),
			recall: [2]int{m.Char.Matched, m.Char.Truth}, recycle: pk.Cap.Recycle,
		})
	}
	return caps
}

// streamCapture is the capture stream i of n replays: the first half
// of the streams are covert, the rest keylog.
func streamCapture(caps []*daemonCapture, i, n int) *daemonCapture {
	if i < n/2 {
		return caps[i%capturesPerKind]
	}
	return caps[capturesPerKind+i%capturesPerKind]
}

// timedProc wraps a stream processor: it times every Push on the
// worker, and in the paced phase the wait and latency of each chunk
// from its due time (its last sample's arrival). Checkpointing passes
// through, so the daemon checkpoints the wrapped processor.
type timedProc struct {
	inner  stream.Checkpointer
	name   string // span name of Push
	t      *tracer
	op     int
	origin time.Time // paced: arrival time of the session's first sample
	rate   float64
	busy   time.Duration
	wait   []time.Duration // paced: due → Push start
	lat    []time.Duration // paced: due → Push return
}

func (p *timedProc) Push(chunk []complex128) {
	begin := time.Now()
	id := p.t.begin(p.name, "stream", -1, p.op)
	p.inner.Push(chunk)
	p.t.end(id)
	end := time.Now()
	p.busy += end.Sub(begin)
	if !p.origin.IsZero() {
		due := p.origin.Add(time.Duration(float64(p.inner.Consumed()) / p.rate * float64(time.Second)))
		p.wait = append(p.wait, begin.Sub(due))
		p.lat = append(p.lat, end.Sub(due))
	}
}

func (p *timedProc) EncodeState() []byte {
	id := p.t.begin("stream.EncodeState", "stream", -1, p.op)
	defer p.t.end(id)
	return p.inner.EncodeState()
}

func (p *timedProc) RestoreState(data []byte) error { return p.inner.RestoreState(data) }
func (p *timedProc) Consumed() int                  { return p.inner.Consumed() }

// session is one pass of a capture through one stream.
type session struct {
	id     int
	cap    *daemonCapture
	ds     *stream.DaemonStream
	proc   *timedProc
	whole  bool // the whole capture was pushed, so it can be verified
	pushOK bool
}

// phaseStats is what one daemon phase measured.
type phaseStats struct {
	wall       time.Duration
	captureS   float64 // capture seconds pushed
	samples    int
	verified   int
	failed     int
	errs       []string
	lat, wait  []time.Duration
	late       []time.Duration // paced: how late the producer pushed
	pushes     []time.Time     // when each chunk was handed over
	busy       map[string]time.Duration
	stalls     uint64
	finalizeMS []float64
}

// daemonPhase runs one phase on a fresh daemon. paced selects the open
// loop (every stream delivers at its sample rate) until deadline, over
// the closed loop (push as fast as backpressure allows). A closed loop
// with sessionsPerStream > 0 ends once every stream has completed that
// many sessions; otherwise streams start no session after deadline.
func daemonPhase(caps []*daemonCapture, workers int, ckptDir string, paced bool,
	deadline time.Time, sessionsPerStream int, t *tracer) *phaseStats {
	n := saturatedStreams
	if paced {
		n = pacedStreams
	}
	st := &phaseStats{busy: map[string]time.Duration{}}
	d := stream.NewDaemon(workers, stream.WithCheckpoints(ckptDir, checkpointEvery))
	start := time.Now()

	// One finalizer goroutine: waits for each closed session to drain,
	// finalizes it and compares with the batch reference.
	finq := make(chan *session, n) // one closed session per stream in flight
	var finWG sync.WaitGroup
	finWG.Add(1)
	go func() {
		defer finWG.Done()
		for s := range finq {
			<-s.ds.Done()
			st.busy[s.proc.name] += s.proc.busy
			st.lat = append(st.lat, s.proc.lat...)
			st.wait = append(st.wait, s.proc.wait...)
			st.stalls += s.ds.Stalls()
			bad := ""
			switch {
			case !s.pushOK:
				bad = "push refused"
			case s.ds.Err() != nil:
				bad = s.ds.Err().Error()
			case s.ds.CheckpointErr() != nil:
				bad = "checkpoint: " + s.ds.CheckpointErr().Error()
			}
			if bad == "" && s.whole {
				fstart := time.Now()
				id := t.begin("stream.Finalize", "stream", -1, s.id)
				var out any
				switch inner := s.proc.inner.(type) {
				case *stream.CovertReceiver:
					out = inner.Finalize()
				case *stream.KeylogDetector:
					out = inner.Finalize()
				}
				t.end(id)
				st.finalizeMS = append(st.finalizeMS, float64(time.Since(fstart))/1e6)
				if !reflect.DeepEqual(out, s.cap.ref) {
					bad = "streamed output differs from batch"
				}
			}
			if bad != "" {
				st.failed++
				st.errs = append(st.errs, fmt.Sprintf("session %d: %s", s.id, bad))
			} else if s.whole {
				st.verified++
			}
			// The daemon keeps every stream it attached; drop the
			// finished receiver so a long phase holds only live state.
			s.proc.inner = nil
		}
	}()

	type streamState struct {
		name   string
		cap    *daemonCapture
		cur    *session
		pos    int
		done   int       // sessions completed
		origin time.Time // paced: arrival of the current session's first sample
	}
	streams := make([]*streamState, n)
	kindSeen := map[opKind]int{}
	for i := range streams {
		c := streamCapture(caps, i, n)
		s := &streamState{name: fmt.Sprintf("s%d", i), cap: c}
		if paced {
			// Spread each kind's streams evenly over one chunk period.
			period := float64(chunkSamples) / c.rate
			k := kindSeen[c.kind]
			s.origin = start.Add(time.Duration(float64(k) / float64(n/2) * period * float64(time.Second)))
		}
		kindSeen[c.kind]++
		streams[i] = s
	}
	nextID := 0
	open := func(s *streamState) error {
		var inner stream.Checkpointer
		var name string
		var err error
		if s.cap.kind == opCovert {
			name = "stream.CovertReceiver.Push"
			inner, err = stream.NewCovertReceiver(s.cap.rxCfg, s.cap.rate, s.cap.center)
		} else {
			name = "stream.KeylogDetector.Push"
			inner, err = stream.NewKeylogDetector(s.cap.detCfg, s.cap.rate, s.cap.center)
		}
		if err != nil {
			return err
		}
		proc := &timedProc{inner: inner, name: name, t: t, op: nextID, rate: s.cap.rate}
		if paced {
			proc.origin = s.origin
		}
		ds, err := d.AttachE(s.name, proc, queueChunks)
		if err != nil {
			return err
		}
		s.cur = &session{id: nextID, cap: s.cap, ds: ds, proc: proc, pushOK: true}
		nextID++
		return nil
	}
	closeCur := func(s *streamState, whole bool) {
		s.cur.whole = whole
		s.cur.ds.Close()
		finq <- s.cur
		s.cur = nil
		s.pos = 0
	}
	// push sends stream s its next chunk, opening a session first and
	// closing it after its last chunk.
	push := func(s *streamState) error {
		if s.cur == nil {
			if err := open(s); err != nil {
				return err
			}
		}
		end := s.pos + chunkSamples
		if end > len(s.cap.iq) {
			end = len(s.cap.iq)
		}
		chunk := s.cap.iq[s.pos:end]
		if !s.cur.ds.Push(chunk) {
			s.cur.pushOK = false
		}
		st.captureS += float64(len(chunk)) / s.cap.rate
		st.samples += len(chunk)
		st.pushes = append(st.pushes, time.Now())
		s.pos = end
		if s.pos == len(s.cap.iq) {
			if paced {
				s.origin = s.origin.Add(time.Duration(float64(len(s.cap.iq)) / s.cap.rate * float64(time.Second)))
			}
			closeCur(s, true)
			s.done++
		}
		return nil
	}
	due := func(s *streamState) time.Time {
		end := s.pos + chunkSamples
		if end > len(s.cap.iq) {
			end = len(s.cap.iq)
		}
		return s.origin.Add(time.Duration(float64(end) / s.cap.rate * float64(time.Second)))
	}

	var err error
	if paced {
		for err == nil {
			next := streams[0]
			for _, s := range streams[1:] {
				if due(s).Before(due(next)) {
					next = s
				}
			}
			at := due(next)
			if at.After(deadline) {
				break
			}
			time.Sleep(time.Until(at))
			st.late = append(st.late, time.Since(at))
			err = push(next)
		}
	} else {
		for active := true; active && err == nil; {
			active = false
			for _, s := range streams {
				if s.cur == nil && (sessionsPerStream > 0 && s.done >= sessionsPerStream ||
					sessionsPerStream == 0 && time.Now().After(deadline)) {
					continue
				}
				active = true
				if err = push(s); err != nil {
					break
				}
			}
		}
	}
	for _, s := range streams {
		if s.cur != nil {
			closeCur(s, false) // cut by the deadline: drained, not verified
		}
	}
	close(finq)
	finWG.Wait()
	d.Drain()
	st.wall = time.Since(start)
	if err != nil {
		st.failed++
		st.errs = append(st.errs, err.Error())
	}
	return st
}

// runDaemonWorkload runs the daemon workload: a saturated closed-loop
// phase for realtime_x, then a paced open-loop phase for latency.
func runDaemonWorkload(cfg runConfig) (*result, error) {
	res := newResult()
	var caps []*daemonCapture
	var times []float64
	for i := 0; i < setupReps; i++ {
		for _, c := range caps {
			c.recycle()
		}
		start := time.Now()
		caps = daemonSetup(cfg.seed)
		times = append(times, sinceS(start))
	}
	res.endToEnd["setup_s"] = metric{median(times), "s"}
	defer func() {
		for _, c := range caps {
			c.recycle()
		}
	}()
	h := sha256.New()
	var ber, recall [2]int
	for i := 0; i < saturatedStreams; i++ {
		c := streamCapture(caps, i, saturatedStreams)
		h.Write(c.digest[:])
		ber[0], ber[1] = ber[0]+c.ber[0], ber[1]+c.ber[1]
		recall[0], recall[1] = recall[0]+c.recall[0], recall[1]+c.recall[1]
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	res.info["covert_ber"] = metric{frac(float64(ber[0]), float64(ber[1])), "fraction"}
	res.info["keylog_recall"] = metric{frac(float64(recall[0]), float64(recall[1])), "fraction"}

	ckptDir, err := os.MkdirTemp(cfg.outDir, "ckpt-")
	if err != nil {
		if err = os.MkdirAll(cfg.outDir, 0o755); err == nil {
			ckptDir, err = os.MkdirTemp(cfg.outDir, "ckpt-")
		}
		if err != nil {
			return nil, fmt.Errorf("checkpoint dir: %w", err)
		}
	}
	defer os.RemoveAll(ckptDir)

	record := func(st *phaseStats) {
		res.attempted += st.verified + st.failed
		res.failed += st.failed
		res.errs = append(res.errs, st.errs...)
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return tracedDaemon(cfg, res, caps, ckptDir, total, record)
	}

	rss, steal := startPeakRSS(), startSteal()
	satStart := time.Now()
	satEnd := satStart.Add(time.Duration(float64(total) * (1 - pacedShareOfRun)))
	sat := daemonPhase(caps, cfg.daemonWorkers, ckptDir, false, satEnd, 0, nil)
	record(sat)
	// Throughput over the steady part of the phase, after the rings
	// have filled. The producer hands every stream one chunk per cycle,
	// so in the long run a chunk carries the streams' mean chunk
	// duration; counting chunks instead of summing their durations
	// keeps the short-term mix of kinds out of the figure.
	from := satStart.Add(rampUp)
	if !from.Before(satEnd) {
		return nil, fmt.Errorf("saturated phase shorter than its %v ramp-up; raise --seconds", rampUp)
	}
	chunks := 0
	for _, p := range sat.pushes {
		if !p.Before(from) && p.Before(satEnd) {
			chunks++
		}
	}
	var chunkS float64
	for i := 0; i < saturatedStreams; i++ {
		c := streamCapture(caps, i, saturatedStreams)
		n := (len(c.iq) + chunkSamples - 1) / chunkSamples
		chunkS += float64(len(c.iq)) / c.rate / float64(n) / saturatedStreams
	}
	paced := daemonPhase(caps, cfg.daemonWorkers, ckptDir, true, time.Now().Add(time.Duration(float64(total)*pacedShareOfRun)), 0, nil)
	record(paced)

	res.endToEnd["realtime_x"] = metric{float64(chunks) * chunkS / satEnd.Sub(from).Seconds(), "ratio"}
	addLatency(res, paced.lat, "paced chunk")
	res.endToEnd["peak_rss_mb"] = metric{rss.mib(), "MiB"}
	steal.report(res)
	res.info["failed_frac"] = metric{frac(float64(res.failed), float64(res.attempted)), "fraction"}
	res.info["paced_rate_msps"] = metric{float64(paced.samples) / paced.wall.Seconds() / 1e6, "MS/s"}
	res.info["saturated_rate_msps"] = metric{float64(sat.samples) / sat.wall.Seconds() / 1e6, "MS/s"}
	late := durMS(paced.late)
	res.info["generator_late_p50_ms"] = metric{median(late), "ms"}
	res.info["generator_late_max_ms"] = metric{maxOf(late), "ms"}
	res.info["sessions_verified"] = metric{float64(sat.verified + paced.verified), "count"}
	return res, nil
}

// tracedDaemon is the daemon's --trace 1 run: the same saturated work
// untraced, traced and untraced again (overhead against the mean of the
// untraced walls, self time, stream counters), then a short paced
// phase for the queue wait and the generator's lateness.
func tracedDaemon(cfg runConfig, res *result, caps []*daemonCapture, ckptDir string,
	total time.Duration, record func(*phaseStats)) (*result, error) {
	rt0 := readRuntime()
	untraced := daemonPhase(caps, cfg.daemonWorkers, ckptDir, false, time.Time{}, tracedSessions, nil)
	rt1 := readRuntime()
	record(untraced)
	addRuntime(res, rt0, rt1)

	tr := newTracer()
	snap0 := telemetry.Capture()
	traced := daemonPhase(caps, cfg.daemonWorkers, ckptDir, false, time.Time{}, tracedSessions, tr)
	snap1 := telemetry.Capture()
	record(traced)
	again := daemonPhase(caps, cfg.daemonWorkers, ckptDir, false, time.Time{}, tracedSessions, nil)
	record(again)
	if traced.verified != untraced.verified || again.verified != untraced.verified {
		res.fail("saturated passes verified %d, %d (traced) and %d sessions",
			untraced.verified, traced.verified, again.verified)
	}
	paced := daemonPhase(caps, cfg.daemonWorkers, ckptDir, true, time.Now().Add(time.Duration(float64(total)*pacedShareOfTraced)), 0, nil)
	record(paced)
	if err := tr.checkClosed(); err != nil {
		res.fail("trace: %v", err)
	}

	lt := tr.times()
	overhead := traced.wall.Seconds()/((untraced.wall+again.wall).Seconds()/2) - 1
	addSelfTimes(res, lt)
	set := func(name string, v float64, unit string) { res.perLayer[name] = metric{v, unit} }
	cov := traced.busy["stream.CovertReceiver.Push"].Seconds()
	key := traced.busy["stream.KeylogDetector.Push"].Seconds()
	set("stream.covert_push_busy_s", cov, "s")
	set("stream.keylog_push_busy_s", key, "s")
	set("stream.ns_per_sample", perUnit(cov+key, float64(traced.samples)), "ns")
	set("stream.stalls", float64(traced.stalls), "count")
	set("stream.ckpt_writes", float64(snap1.Counters["stream.checkpoint.writes"]-snap0.Counters["stream.checkpoint.writes"]), "count")
	set("stream.ckpt_bytes", float64(snap1.Counters["stream.checkpoint.bytes"]-snap0.Counters["stream.checkpoint.bytes"]), "bytes")
	set("stream.finalize_ms", median(traced.finalizeMS), "ms")
	wait := durMS(paced.wait)
	var sum float64
	for _, w := range wait {
		sum += w
	}
	set("stream.queue_wait_ms", frac(sum, float64(len(wait))), "ms")
	set("stream.gen_late_p50_ms", median(durMS(paced.late)), "ms")
	set("trace.overhead_frac", overhead, "fraction")
	set("trace.spans", float64(len(tr.spans)), "count")
	res.notes = append(res.notes, selfTable(lt)...)
	res.info["failed_frac"] = metric{frac(float64(res.failed), float64(res.attempted)), "fraction"}
	if err := tr.write(cfg.outDir, runStem(cfg), lt, overhead); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// rampUp is left out of the saturated phase's throughput: the rings
// fill during it, so pushes outrun processing.
const rampUp = time.Second

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"time"

	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/faults"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sweep"
	"pmuleak/internal/telemetry"
	"pmuleak/internal/xrand"
)

// setupReps is how many times a run builds its set-up; setup_s is the
// median.
const setupReps = 3

type opKind int

const (
	opCovert opKind = iota
	opKeylog
)

// op is one operation of a pass: a covert transfer or a typing session
// on a prepared testbed.
type op struct {
	id   int
	kind opKind
	tb   *core.Testbed
	cov  core.CovertConfig
	key  core.KeylogConfig
	// group ≥ 0 marks ops that share one transmitter config (rx-sweep);
	// the traced run shares their transmitter work as core's cache does.
	group int
}

// opOut is what one operation produced.
type opOut struct {
	digest         [32]byte
	captureS       float64 // simulated capture seconds
	txBits, subs   int     // covert: transmitted bits, substitutions
	truth, matched int     // keylog: true and matched keystrokes
	retried        bool    // covert: carrier re-acquisition retried
	latency        time.Duration
	err            error
	work           layerWork // traced runs only
}

// layerWork counts the units each layer processed in a traced op.
type layerWork struct {
	simS                       float64 // kernel: simulated seconds
	pulses                     int
	emSamples                  int
	chSamples                  int
	sdrSamples, clipped        int
	faultSamples               int
	demodSamples, detectSample int
}

func (w *layerWork) add(o layerWork) {
	w.simS += o.simS
	w.pulses += o.pulses
	w.emSamples += o.emSamples
	w.chSamples += o.chSamples
	w.sdrSamples += o.sdrSamples
	w.clipped += o.clipped
	w.faultSamples += o.faultSamples
	w.demodSamples += o.demodSamples
	w.detectSample += o.detectSample
}

// rxSetup is one receiver-side configuration of the rx-sweep: the
// transmitter is unchanged, only what the attacker sees differs.
type rxSetup struct {
	name string
	// testbed builds the receiver side for a laptop and seed.
	testbed func(p laptop.Profile, seed int64) *core.Testbed
	// covertFaults / keylogFaults are the acquisition faults; heal
	// turns on the receivers' self-healing modes.
	covertFaults, keylogFaults faults.Config
	heal                       bool
}

func loopAt(d float64) func(laptop.Profile, int64) *core.Testbed {
	return func(p laptop.Profile, seed int64) *core.Testbed {
		return core.NewTestbed(core.WithLaptop(p), core.WithSeed(seed),
			core.WithDistance(d), core.WithAntenna(sdr.LoopLA390))
	}
}

func probe(p laptop.Profile, seed int64) *core.Testbed {
	return core.NewTestbed(core.WithLaptop(p), core.WithSeed(seed))
}

// rxSetups are taken from the paper's receiver-side sweeps: the loop
// antenna over Table III's distances, Fig. 10's wall with office
// interferers, and two acquisition-fault profiles from the robustness
// study.
var rxSetups = []rxSetup{
	{name: "loop-1.0m", testbed: loopAt(1.0)},
	{name: "loop-1.5m", testbed: loopAt(1.5)},
	{name: "loop-2.5m", testbed: loopAt(2.5)},
	{name: "wall-office", testbed: func(p laptop.Profile, seed int64) *core.Testbed {
		return core.NewTestbed(core.WithLaptop(p), core.WithSeed(seed),
			core.WithDistance(1.5), core.WithWall(15), core.WithAntenna(sdr.LoopLA390),
			core.WithInterference(
				emchannel.OfficePrinter(0.002),
				emchannel.Refrigerator(0.0015),
				emchannel.OfficeBroadband(0.001)))
	}},
	{
		name: "faults-drop-drift", testbed: probe, heal: true,
		covertFaults: faults.Config{DropRatePerS: 300, ClockPPM: 200, DriftPPMPerS: 100},
		keylogFaults: faults.Config{DropRatePerS: 20, ClockPPM: 200, DriftPPMPerS: 100},
	},
	{
		name: "faults-gain", testbed: probe, heal: true,
		covertFaults: faults.Config{DropRatePerS: 100, GainStepRatePerS: 100, GainStepMaxDB: 6},
		keylogFaults: faults.Config{GainStepRatePerS: 2, GainStepMaxDB: 12},
	},
}

// Pass sizes. A pass is the fixed operation list a run repeats until
// its time is up.
const (
	covertOps        = 12 // two rounds over the six Table I laptops
	keylogOps        = 3  // one session at each of Table IV's placements
	keylogChars      = 84 // about 15 pseudo-words, ~20 s of typing
	sweepKeylogChars = 22 // about 4 words
)

// randomText is chars characters of the paper's random pseudo-word
// typing test. A fixed length keeps every session's capture, and so a
// run's work, about the same size at every seed.
func randomText(chars int, rng *xrand.Source) string {
	text := keylog.RandomWords(chars, rng)[:chars]
	return strings.TrimSpace(text)
}

// covertConfig is the workloads' transfer: 256 random payload bits
// under Hamming(7,4), at the profile's default sleep period.
func covertConfig() core.CovertConfig {
	return core.CovertConfig{PayloadBits: 256, Code: covert.CodeHamming74}
}

// buildOps derives a pass's operations from the seed.
func buildOps(workload string, seed int64) []*op {
	rng := xrand.New(seed)
	profiles := laptop.Profiles()
	var ops []*op
	add := func(o *op) {
		o.id = len(ops)
		ops = append(ops, o)
	}
	switch workload {
	case "covert":
		// Coil probe at 10 cm; every op has its own seed, so no two
		// transmitter configs are equal and core's trace cache never
		// hits.
		for i := 0; i < covertOps; i++ {
			add(&op{kind: opCovert, tb: probe(profiles[i%len(profiles)], rng.Int63()), cov: covertConfig(), group: -1})
		}
	case "keylog":
		placements := []func(laptop.Profile, int64) *core.Testbed{probe, loopAt(2), rxSetups[3].testbed}
		for i := 0; i < keylogOps; i++ {
			tb := placements[i%len(placements)](laptop.Reference(), rng.Int63())
			text := randomText(keylogChars, rng.Fork())
			add(&op{kind: opKeylog, tb: tb, key: core.KeylogConfig{Text: text}, group: -1})
		}
	case "rx-sweep":
		// Four covert transmitter configs (one a Windows laptop, whose
		// transfers are six times longer) and one typing session, each
		// observed through every receiver setup back to back.
		txProfiles := []laptop.Profile{profiles[0], profiles[2], profiles[3], profiles[4]}
		for g, p := range txProfiles {
			seed := rng.Int63()
			for _, s := range rxSetups {
				cfg := covertConfig()
				cfg.Faults = s.covertFaults
				if s.heal {
					cfg.RXResync, cfg.RXCarrierRetries = true, 3
				}
				add(&op{kind: opCovert, tb: s.testbed(p, seed), cov: cfg, group: g})
			}
		}
		seed := rng.Int63()
		text := randomText(sweepKeylogChars, rng.Fork())
		for _, s := range rxSetups {
			cfg := core.KeylogConfig{Text: text, Faults: s.keylogFaults, GapAware: s.heal}
			add(&op{kind: opKeylog, tb: s.testbed(laptop.Reference(), seed), key: cfg, group: len(txProfiles)})
		}
	}
	return ops
}

// warmUp runs one operation of each kind the workload uses — a full
// transfer, a two-word session — on a testbed outside the pass, so FFT
// plans and sample-buffer pools are built before timing starts.
func warmUp(workload string) {
	tb := core.NewTestbed(core.WithSeed(-1))
	if workload != "keylog" {
		tb.RunCovert(covertConfig())
	}
	if workload != "covert" {
		tb.RunKeylog(core.KeylogConfig{Text: "warm up"})
	}
	core.ResetTraceCache()
}

// runOp runs one operation through the public API (t == nil) or
// through the traced layer calls.
func runOp(o *op, t *tracer, memo *txMemo, parent int) (out opOut) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("op %d panicked: %v\n%s", o.id, r, debug.Stack())
		}
	}()
	var res any
	switch {
	case t != nil:
		res, out.work, out.err = tracedOp(o, t, memo, parent)
	case o.kind == opCovert:
		res = o.tb.RunCovert(o.cov)
	default:
		res = o.tb.RunKeylog(o.key)
	}
	if out.err != nil {
		return out
	}
	switch r := res.(type) {
	case *core.CovertResult:
		out.digest = digestBits(r.Demod.Bits)
		frame := covert.EncodeFrame(r.Payload, r.TXCfg)
		out.captureS = covert.AirtimeEstimate(frame, r.TXCfg, o.tb.Profile.Kernel).Seconds()
		out.txBits, out.subs = r.TxLen, r.Substitutions
		out.retried = r.Demod.Quality.Retries > 0
	case *core.KeylogResult:
		out.digest = digestKeystrokes(r.Detection.Keystrokes)
		out.captureS = keylog.SessionHorizon(r.Events).Seconds()
		out.truth, out.matched = r.Char.Truth, r.Char.Matched
	}
	return out
}

func digestBits(bits []byte) [32]byte {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(bits)))
	h.Write([]byte("bits"))
	h.Write(n[:])
	h.Write(bits)
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func digestKeystrokes(ks []keylog.Keystroke) [32]byte {
	h := sha256.New()
	var b [8]byte
	h.Write([]byte("keys"))
	binary.LittleEndian.PutUint64(b[:], uint64(len(ks)))
	h.Write(b[:])
	for _, k := range ks {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(k.Start))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(k.End))
		h.Write(b[:])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// passDigest folds the per-op digests in operation order.
func passDigest(outs []opOut) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write(o.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPass runs every op on the sweep orchestrator. Every pass starts
// from the same state: an empty trace cache, and a collected heap
// returned to the OS, so its memory peak does not depend on where the
// previous pass left the collector.
func runPass(ops []*op, workers int, t *tracer, memo *txMemo) ([]opOut, time.Duration) {
	core.ResetTraceCache()
	debug.FreeOSMemory()
	start := time.Now()
	grid := t.begin("sweep.MapJobs", "sweep", -1, -1)
	outs := sweep.MapJobs(workers, len(ops), func(i int) opOut {
		opStart := time.Now()
		out := runOp(ops[i], t, memo, grid)
		out.latency = time.Since(opStart)
		return out
	})
	t.end(grid)
	return outs, time.Since(start)
}

// setUp builds the pass setupReps times, timing each, and returns the
// last build and the median time.
func setUp(workload string, seed int64) ([]*op, float64) {
	var times []float64
	var ops []*op
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		ops = buildOps(workload, seed)
		warmUp(workload)
		times = append(times, sinceS(start))
	}
	return ops, median(times)
}

// accuracy reports covert_ber and keylog_recall over one pass, scored
// against the simulation's ground truth.
func accuracy(res *result, outs []opOut) {
	var tx, subs, truth, matched int
	for _, o := range outs {
		tx += o.txBits
		subs += o.subs
		truth += o.truth
		matched += o.matched
	}
	if tx > 0 {
		res.info["covert_ber"] = metric{float64(subs) / float64(tx), "fraction"}
	}
	if truth > 0 {
		res.info["keylog_recall"] = metric{float64(matched) / float64(truth), "fraction"}
	}
}

// checkOuts counts a pass's attempted and failed ops. ref, when
// non-nil, is the first untraced pass: every later run of an op, traced
// or not, must decode the same output.
func checkOuts(res *result, outs, ref []opOut, what string) {
	for i, o := range outs {
		res.attempted++
		switch {
		case o.err != nil:
			res.failed++
			res.fail("%s op %d: %v", what, i, o.err)
		case ref != nil && o.digest != ref[i].digest:
			res.failed++
			res.fail("%s op %d decoded differently from the first untraced pass", what, i)
		}
	}
}

// runPassWorkload runs covert, keylog or rx-sweep.
func runPassWorkload(cfg runConfig) (*result, error) {
	res := newResult()
	ops, setupS := setUp(cfg.workload, cfg.seed)
	res.endToEnd["setup_s"] = metric{setupS, "s"}
	if cfg.trace {
		return tracedPasses(cfg, res, ops)
	}

	// Whole passes until the time is up, so every run measures the same
	// mix of operations.
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var first []opOut
	var lat []time.Duration
	var passRates []float64 // capture seconds per host second, per pass
	var wallS float64
	rss, steal := startPeakRSS(), startSteal()
	for pass := 0; first == nil || time.Now().Before(deadline); pass++ {
		outs, wall := runPass(ops, cfg.jobs, nil, nil)
		wallS += wall.Seconds()
		checkOuts(res, outs, first, "pass "+fmt.Sprint(pass))
		if first == nil {
			first = outs
			accuracy(res, outs)
			res.digest = passDigest(outs)
			hits, _ := core.TraceCacheStats()
			res.info["shared_tx_frac"] = metric{float64(hits) / float64(len(ops)), "fraction"}
		}
		var captureS float64
		for _, o := range outs {
			if o.err == nil {
				lat = append(lat, o.latency)
				captureS += o.captureS
			}
		}
		passRates = append(passRates, captureS/wall.Seconds())
	}
	res.endToEnd["realtime_x"] = metric{median(passRates), "ratio"}
	res.series["pass_realtime_x"] = passRates
	res.series["op_ms"] = durMS(lat)
	addLatency(res, lat, "operation")
	res.endToEnd["peak_rss_mb"] = metric{rss.mib(), "MiB"}
	steal.report(res)
	res.info["failed_frac"] = metric{frac(float64(res.failed), float64(res.attempted)), "fraction"}
	res.info["measured_s"] = metric{wallS, "s"}
	return res, nil
}

// tracedPasses is a --trace 1 run: an untraced pass, the same pass
// traced through the layer calls, and the untraced pass again. All must
// decode the same output. The per-layer metrics come from the traced
// pass, the cache, orchestrator and runtime figures from the first
// untraced one; the tracing overhead compares the traced pass with the
// mean of the two untraced ones, so warm-up effects cancel.
func tracedPasses(cfg runConfig, res *result, ops []*op) (*result, error) {
	snap0, rt0 := telemetry.Capture(), readRuntime()
	untraced, wallU := runPass(ops, cfg.jobs, nil, nil)
	snap1, rt1 := telemetry.Capture(), readRuntime()
	checkOuts(res, untraced, nil, "untraced")
	res.digest = passDigest(untraced)
	accuracy(res, untraced)

	hits, misses := core.TraceCacheStats()
	res.perLayer["core.tracecache_hit_frac"] = metric{frac(float64(hits), float64(hits+misses)), "fraction"}
	res.perLayer["core.tracecache_evictions"] = metric{float64(snap1.Counters["core.tracecache.evictions"]), "count"}
	res.perLayer["sweep.shared_tx_frac"] = metric{float64(hits) / float64(len(ops)), "fraction"}
	cellNs := snap1.Histograms["sweep.cell"].SumNs - snap0.Histograms["sweep.cell"].SumNs
	res.perLayer["sweep.worker_idle_frac"] = metric{1 - float64(cellNs)/(wallU.Seconds()*1e9*float64(cfg.jobs)), "fraction"}
	addRuntime(res, rt0, rt1)

	tr := newTracer()
	traced, wallT := runPass(ops, cfg.jobs, tr, newTxMemo())
	checkOuts(res, traced, untraced, "traced")
	again, wallU2 := runPass(ops, cfg.jobs, nil, nil)
	checkOuts(res, again, untraced, "untraced repeat")
	if err := tr.checkClosed(); err != nil {
		res.fail("trace: %v", err)
	}
	var work layerWork
	for _, o := range traced {
		work.add(o.work)
	}
	lt := tr.times()
	overhead := wallT.Seconds()/((wallU+wallU2).Seconds()/2) - 1
	addSelfTimes(res, lt)
	addLayerMetrics(res, lt, work, traced)
	res.perLayer["trace.overhead_frac"] = metric{overhead, "fraction"}
	res.perLayer["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	alloc, err := probePulsesAlloc(ops[0])
	if err != nil {
		return nil, err
	}
	res.perLayer["vrm.alloc_mb"] = metric{alloc, "MiB"}
	res.notes = append(res.notes, selfTable(lt)...)
	res.info["failed_frac"] = metric{frac(float64(res.failed), float64(res.attempted)), "fraction"}
	if err := tr.write(cfg.outDir, runStem(cfg), lt, overhead); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

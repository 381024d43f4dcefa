package main

import (
	"fmt"
	"runtime"
	"sync"

	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/dsp"
	"pmuleak/internal/em"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/faults"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/vrm"
	"pmuleak/internal/xrand"
)

// The traced run re-expresses core.Testbed.RunCovert and RunKeylog as
// the sequence of public layer calls they make, with a span around each
// call. It must decode exactly what the untraced run decodes — the
// per-op digests are compared — so these seed offsets and configs
// mirror core's. If core changes them, the comparison fails loudly.
const (
	channelSeedOffset = 104729 // core: channel and radio stream
	payloadSeedOffset = 7919   // core: random covert payload
	typistSeedOffset  = 500    // core: typist and handling stream
	faultSeedOffset   = 424243 // core: fault injector
)

// covertTx is the transmitter half of a covert op.
type covertTx struct {
	field   []complex128
	plan    laptop.EmanationPlan
	run     *covert.TxRun
	payload []byte
	txCfg   covert.TXConfig
	work    layerWork
}

// txMemo shares transmitter work between the ops of one rx-sweep group
// during a traced pass, as core's trace cache does in the untraced one:
// the first op of a group simulates, the rest replay.
type txMemo struct {
	mu sync.Mutex
	m  map[int]*memoEntry
}

type memoEntry struct {
	once sync.Once
	tx   *covertTx
	err  error
}

func newTxMemo() *txMemo { return &txMemo{m: map[int]*memoEntry{}} }

func (m *txMemo) get(group int, simulate func() (*covertTx, error)) (tx *covertTx, hit bool, err error) {
	m.mu.Lock()
	e, ok := m.m[group]
	if !ok {
		e = &memoEntry{}
		m.m[group] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.tx, e.err = simulate() })
	return e.tx, ok, e.err
}

// renderRNG is the source laptop.System.Emanations hands em.Render: the
// second fork of a root seeded like laptop.NewSystem's (the first fork
// goes to System.Pulses).
func renderRNG(seed int64) *xrand.Source {
	root := xrand.New(seed)
	root.Int63() // NewSystem's kernel seed
	root.Fork()  // System.Pulses
	return root.Fork()
}

// emConfig is the em.Config laptop.System.Emanations builds.
func emConfig(p laptop.Profile, plan laptop.EmanationPlan) em.Config {
	return em.Config{
		SwitchingFreqHz:       p.VRM.SwitchingFreqHz,
		CenterFreqHz:          plan.CenterFreqHz,
		SampleRate:            plan.SampleRate,
		Harmonics:             plan.Harmonics,
		EmitterGain:           p.EmitterGain,
		PhaseNoiseSigma:       p.PhaseNoiseSigma,
		CarrierDriftHzPerS:    p.CarrierDriftHzPerS,
		FreqDitherHz:          p.VRMDitherHz,
		EnvelopeSmoothPeriods: 2,
	}
}

// emit runs System.Pulses and em.Render in their own spans.
func emit(t *tracer, sys *laptop.System, seed int64, horizon sim.Time, plan laptop.EmanationPlan, parent, opID int, w *layerWork) []complex128 {
	var pulses []vrm.Pulse
	t.do("laptop.System.Pulses", "vrm", parent, opID, func() { pulses = sys.Pulses(horizon) })
	w.pulses += len(pulses)
	var field []complex128
	t.do("em.Render", "em", parent, opID, func() {
		field = em.Render(pulses, horizon, emConfig(sys.Profile, plan), renderRNG(seed))
	})
	w.emSamples += len(field)
	return field
}

// receive runs emchannel.ApplyE, sdr.AcquireE and the fault injector —
// the receiver-side half of core's Prepare functions. chRNG is the
// channel's stream; radioRNG is called once the channel has drawn from
// it, because core forks the radio's stream after the channel ran.
func receive(t *tracer, tb *core.Testbed, field []complex128, plan laptop.EmanationPlan, radio sdr.Config,
	chRNG *xrand.Source, radioRNG func() *xrand.Source, fcfg faults.Config, parent, opID int, w *layerWork) (cap *sdr.Capture, rep faults.Report, err error) {
	var out []complex128
	t.do("emchannel.ApplyE", "emchannel", parent, opID, func() {
		out, err = emchannel.ApplyE(field, plan.SampleRate, tb.Channel, chRNG)
	})
	if err != nil {
		return nil, rep, err
	}
	w.chSamples += len(field)
	t.do("sdr.AcquireE", "sdr", parent, opID, func() {
		cap, err = sdr.AcquireE(out, plan.CenterFreqHz, radio, radioRNG())
	})
	dsp.PutIQ(out)
	if err != nil {
		return nil, rep, err
	}
	w.sdrSamples += len(cap.IQ)
	w.clipped += cap.Clipped
	if fcfg.Enabled() {
		t.do("faults.Injector.Apply", "faults", parent, opID, func() {
			var inj *faults.Injector
			if inj, err = faults.New(fcfg, tb.Seed+faultSeedOffset); err == nil {
				w.faultSamples += len(cap.IQ)
				rep = inj.Apply(cap)
			}
		})
	}
	return cap, rep, err
}

// tracedOp runs one op through spanned layer calls and returns the
// same result type the core API returns.
func tracedOp(o *op, t *tracer, memo *txMemo, parent int) (any, layerWork, error) {
	var w layerWork
	root := t.begin(map[opKind]string{opCovert: "core.RunCovert", opKeylog: "core.RunKeylog"}[o.kind], "core", parent, o.id)
	defer t.end(root)
	prep := t.begin(map[opKind]string{opCovert: "core.PrepareCovert", opKeylog: "core.PrepareKeylog"}[o.kind], "core", root, o.id)
	if o.kind == opCovert {
		p, err := tracedPrepareCovert(o, t, memo, prep, &w)
		t.end(prep)
		if err != nil {
			return nil, w, err
		}
		var d *covert.Demod
		t.do("covert.Demodulate", "covert", root, o.id, func() { d = covert.Demodulate(p.Cap, p.RXCfg) })
		w.demodSamples += len(p.Cap.IQ)
		var res *core.CovertResult
		t.do("covert.Measure", "covert", root, o.id, func() { res = p.Finish(d) })
		p.Cap.Recycle()
		return res, w, nil
	}
	p, err := tracedPrepareKeylog(o, t, prep, &w)
	t.end(prep)
	if err != nil {
		return nil, w, err
	}
	var det *keylog.Detection
	t.do("keylog.Detect", "keylog", root, o.id, func() { det = keylog.Detect(p.Cap, p.DetCfg) })
	w.detectSample += len(p.Cap.IQ)
	p.Cap.Recycle()
	var res *core.KeylogResult
	t.do("keylog.Score", "keylog", root, o.id, func() { res = p.Finish(det) })
	return res, w, nil
}

// kernelRun is an op's simulated machine at its horizon, with what the
// later layers need from the simulation.
type kernelRun struct {
	sys     *laptop.System
	horizon sim.Time
	// covert
	run     *covert.TxRun
	payload []byte
	txCfg   covert.TXConfig
	// keylog
	events []keylog.KeyEvent
	rng    *xrand.Source // the typist stream; channel and radio fork it next
}

// runKernel simulates an op's transmitter process or typing session on
// a fresh laptop.System, as core's Prepare functions do. The caller
// closes sys.
func runKernel(o *op) (kernelRun, error) {
	tb := o.tb
	var k kernelRun
	if o.kind == opCovert {
		cfg := o.cov
		if cfg.Payload != nil || cfg.Background || cfg.PayloadBits == 0 {
			return k, fmt.Errorf("traced covert path supports random payloads without background load only")
		}
		sleep := cfg.SleepPeriod
		if sleep == 0 {
			sleep = tb.Profile.DefaultSleepPeriod
		}
		k.sys = laptop.NewSystem(tb.Profile, tb.Seed)
		k.txCfg = covert.DefaultTXConfig(sleep)
		k.txCfg.Code = cfg.Code
		k.txCfg.InterleaveDepth = cfg.Interleave
		k.payload = xrand.New(tb.Seed + payloadSeedOffset).Bits(cfg.PayloadBits)
		frame := covert.EncodeFrame(k.payload, k.txCfg)
		k.run = covert.SpawnTransmitter(k.sys.Kernel(), frame, k.txCfg)
		k.horizon = covert.AirtimeEstimate(frame, k.txCfg, tb.Profile.Kernel)
	} else {
		cfg := o.key
		if cfg.Text == "" || cfg.Typist != nil || cfg.Handling != nil || cfg.Detector != nil {
			return k, fmt.Errorf("traced keylog path supports explicit text with default models only")
		}
		k.sys = laptop.NewSystem(tb.Profile, tb.Seed)
		k.rng = xrand.New(tb.Seed + typistSeedOffset)
		k.events = keylog.Type(cfg.Text, 200*sim.Millisecond, keylog.DefaultTypistConfig(), k.rng)
		k.horizon = keylog.SessionHorizon(k.events)
		keylog.Inject(k.sys.Kernel(), k.events, k.horizon, keylog.DefaultHandlingConfig(), k.rng.Fork())
	}
	k.sys.Run(k.horizon)
	return k, nil
}

// keylogPlan is core's keylog tuning: the fundamental only, narrowband.
func keylogPlan(p laptop.Profile) laptop.EmanationPlan {
	return laptop.EmanationPlan{SampleRate: 240e3, CenterFreqHz: p.VRM.SwitchingFreqHz - 60e3, Harmonics: 1}
}

// simulateCovertTx is core's transmitter half: kernel simulation of the
// transmitter process, then VRM pulses and EM rendering.
func simulateCovertTx(o *op, t *tracer, parent int) (*covertTx, error) {
	var k kernelRun
	var err error
	t.do("kernel.RunTransmitter", "kernel", parent, o.id, func() { k, err = runKernel(o) })
	if err != nil {
		return nil, err
	}
	defer k.sys.Close()
	tx := &covertTx{run: k.run, payload: k.payload, txCfg: k.txCfg}
	tx.work.simS = k.horizon.Seconds()
	tx.plan = k.sys.DefaultPlan()
	tx.plan.SampleRate = o.tb.Radio.SampleRate
	tx.field = emit(t, k.sys, o.tb.Seed, k.horizon, tx.plan, parent, o.id, &tx.work)
	return tx, nil
}

func tracedPrepareCovert(o *op, t *tracer, memo *txMemo, parent int, w *layerWork) (*core.PreparedCovert, error) {
	var tx *covertTx
	var err error
	if o.group >= 0 {
		var hit bool
		tx, hit, err = memo.get(o.group, func() (*covertTx, error) { return simulateCovertTx(o, t, parent) })
		if err == nil && !hit {
			w.add(tx.work)
		}
	} else if tx, err = simulateCovertTx(o, t, parent); err == nil {
		w.add(tx.work)
	}
	if err != nil {
		return nil, err
	}
	// The radio's stream is the channel stream's fork.
	rng := xrand.New(o.tb.Seed + channelSeedOffset)
	cap, rep, err := receive(t, o.tb, tx.field, tx.plan, o.tb.Radio, rng, rng.Fork, o.cov.Faults, parent, o.id, w)
	if err != nil {
		return nil, err
	}
	return &core.PreparedCovert{
		Cap:     cap,
		RXCfg:   o.tb.CovertRXConfig(o.cov),
		Run:     tx.run,
		Payload: tx.payload,
		TXCfg:   tx.txCfg,
		Faults:  rep,
	}, nil
}

func tracedPrepareKeylog(o *op, t *tracer, parent int, w *layerWork) (*core.PreparedKeylog, error) {
	tb, cfg := o.tb, o.key
	var k kernelRun
	var err error
	t.do("kernel.TypeAndRun", "kernel", parent, o.id, func() { k, err = runKernel(o) })
	if err != nil {
		return nil, err
	}
	defer k.sys.Close()
	w.simS += k.horizon.Seconds()
	plan := keylogPlan(tb.Profile)
	raw := emit(t, k.sys, tb.Seed, k.horizon, plan, parent, o.id, w)
	radio := tb.Radio
	radio.SampleRate = plan.SampleRate
	// Channel and radio take the typist stream's next two forks.
	cap, rep, err := receive(t, tb, raw, plan, radio, k.rng.Fork(), k.rng.Fork, cfg.Faults, parent, o.id, w)
	dsp.PutIQ(raw)
	if err != nil {
		return nil, err
	}
	detCfg := keylog.DefaultDetectorConfig()
	detCfg.ExpectedF0 = tb.Profile.VRM.SwitchingFreqHz
	if cfg.Parallelism != 0 {
		detCfg.Parallelism = cfg.Parallelism
	}
	if cfg.GapAware {
		detCfg.GapAware = true
	}
	return &core.PreparedKeylog{Cap: cap, DetCfg: detCfg, Text: cfg.Text, Events: k.events, Faults: rep}, nil
}

// addLayerMetrics reports the traced pass's busy time and work counts
// per layer.
func addLayerMetrics(res *result, lt layerTimes, w layerWork, outs []opOut) {
	b := lt.byName
	set := func(name string, v float64, unit string) { res.perLayer[name] = metric{v, unit} }

	kernelS := b["kernel.RunTransmitter"] + b["kernel.TypeAndRun"]
	set("kernel.busy_s", kernelS, "s")
	set("kernel.sim_s_per_host_s", frac(w.simS, kernelS), "ratio")
	vrmS := b["laptop.System.Pulses"]
	set("vrm.busy_s", vrmS, "s")
	set("vrm.pulses", float64(w.pulses), "count")
	set("vrm.ns_per_pulse", perUnit(vrmS, float64(w.pulses)), "ns")
	emS := b["em.Render"]
	set("em.busy_s", emS, "s")
	set("em.samples", float64(w.emSamples), "count")
	set("em.ns_per_sample", perUnit(emS, float64(w.emSamples)), "ns")
	chS := b["emchannel.ApplyE"]
	set("emchannel.busy_s", chS, "s")
	set("emchannel.ns_per_sample", perUnit(chS, float64(w.chSamples)), "ns")
	sdrS := b["sdr.AcquireE"]
	set("sdr.busy_s", sdrS, "s")
	set("sdr.ns_per_sample", perUnit(sdrS, float64(w.sdrSamples)), "ns")
	set("sdr.clip_frac", frac(float64(w.clipped), float64(w.sdrSamples)), "fraction")
	fS := b["faults.Injector.Apply"]
	set("faults.busy_s", fS, "s")
	set("faults.ns_per_sample", perUnit(fS, float64(w.faultSamples)), "ns")
	dS := b["covert.Demodulate"]
	set("covert.demod_busy_s", dS, "s")
	set("covert.ns_per_sample", perUnit(dS, float64(w.demodSamples)), "ns")
	var covertN, retried int
	for _, o := range outs {
		if o.txBits > 0 {
			covertN++
			if o.retried {
				retried++
			}
		}
	}
	set("covert.carrier_retry_frac", frac(float64(retried), float64(covertN)), "fraction")
	kS := b["keylog.Detect"]
	set("keylog.detect_busy_s", kS, "s")
	set("keylog.ns_per_sample", perUnit(kS, float64(w.detectSample)), "ns")
	set("core.prepare_busy_s", b["core.PrepareCovert"]+b["core.PrepareKeylog"], "s")
}

// probePulsesAlloc re-runs one op's kernel simulation and measures the
// heap bytes one System.Pulses call allocates, alone on the process so
// no other goroutine's allocations are counted.
func probePulsesAlloc(o *op) (float64, error) {
	k, err := runKernel(o)
	if err != nil {
		return 0, err
	}
	defer k.sys.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pulses := k.sys.Pulses(k.horizon)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pulses)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), nil
}

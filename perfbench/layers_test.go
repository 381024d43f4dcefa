package main

// Layer microbenchmarks on canonical fixed-seed inputs: the fast inner
// loop for rewriting one layer. Run from this directory with
//
//	go test -run '^$' -bench . -benchmem -count 5
//
// They time one layer call in isolation and are never the basis of a
// performance claim; the end-to-end benchmark (main.go) is.

import (
	"sync"
	"testing"
	"time"

	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/dsp"
	"pmuleak/internal/em"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/stream"
	"pmuleak/internal/vrm"
	"pmuleak/internal/xrand"
)

// fixture is one canonical input per pipeline stage, for the covert
// plan (2.4 MS/s, two harmonics) or the keylog plan (240 kS/s, one).
type fixture struct {
	op      *op
	tb      *core.Testbed
	sys     *laptop.System // run to horizon, left open for Pulses
	horizon sim.Time
	plan    laptop.EmanationPlan
	radio   sdr.Config
	pulses  []vrm.Pulse
	field   []complex128 // em.Render output
	rxField []complex128 // emchannel.ApplyE output
	cap     *sdr.Capture // sdr.AcquireE output
	rxCfg   covert.RXConfig
	detCfg  keylog.DetectorConfig
}

const (
	fixtureSeed = 1
	fixtureText = "the quick brown fox jumps"
)

var (
	covertOnce, keylogOnce sync.Once
	covertFix, keylogFix   *fixture
	sinkIQ                 []complex128
	sinkPulses             []vrm.Pulse
	sinkAny                any
)

func buildFixture(kind opKind) *fixture {
	o := &op{kind: kind, tb: core.NewTestbed(core.WithSeed(fixtureSeed)),
		cov: covertConfig(), key: core.KeylogConfig{Text: fixtureText}}
	k, err := runKernel(o)
	if err != nil {
		panic(err)
	}
	f := &fixture{op: o, tb: o.tb, sys: k.sys, horizon: k.horizon, radio: o.tb.Radio}
	if kind == opCovert {
		f.plan = f.sys.DefaultPlan()
		f.rxCfg = f.tb.CovertRXConfig(o.cov)
	} else {
		f.plan = keylogPlan(f.tb.Profile)
		f.radio.SampleRate = f.plan.SampleRate
		f.detCfg = keylog.DefaultDetectorConfig()
		f.detCfg.ExpectedF0 = f.tb.Profile.VRM.SwitchingFreqHz
	}
	f.pulses = f.sys.Pulses(f.horizon)
	f.field = em.Render(f.pulses, f.horizon, emConfig(f.tb.Profile, f.plan), renderRNG(fixtureSeed))
	rng := xrand.New(fixtureSeed + channelSeedOffset)
	f.rxField = emchannel.Apply(f.field, f.plan.SampleRate, f.tb.Channel, rng)
	f.cap = sdr.Acquire(f.rxField, f.plan.CenterFreqHz, f.radio, rng.Fork())
	return f
}

func fixtureFor(kind opKind) *fixture {
	if kind == opCovert {
		covertOnce.Do(func() { covertFix = buildFixture(opCovert) })
		return covertFix
	}
	keylogOnce.Do(func() { keylogFix = buildFixture(opKeylog) })
	return keylogFix
}

var kinds = []struct {
	name string
	kind opKind
}{{"covert", opCovert}, {"keylog", opKeylog}}

func BenchmarkSystemRun(b *testing.B) {
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			o := fixtureFor(k.kind).op
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run, err := runKernel(o)
				if err != nil {
					b.Fatal(err)
				}
				run.sys.Close()
			}
		})
	}
}

func BenchmarkSystemPulses(b *testing.B) {
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			f := fixtureFor(k.kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkPulses = f.sys.Pulses(f.horizon)
			}
			b.ReportMetric(float64(len(f.pulses)), "pulses/op")
		})
	}
}

func BenchmarkEMRender(b *testing.B) {
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			f := fixtureFor(k.kind)
			cfg := emConfig(f.tb.Profile, f.plan)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkIQ = em.Render(f.pulses, f.horizon, cfg, renderRNG(fixtureSeed))
				dsp.PutIQ(sinkIQ)
			}
			b.ReportMetric(float64(len(f.field)), "samples/op")
		})
	}
}

func BenchmarkEMChannelApplyE(b *testing.B) {
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			f := fixtureFor(k.kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := emchannel.ApplyE(f.field, f.plan.SampleRate, f.tb.Channel, xrand.New(fixtureSeed+channelSeedOffset))
				if err != nil {
					b.Fatal(err)
				}
				dsp.PutIQ(out)
			}
		})
	}
}

func BenchmarkSDRAcquireE(b *testing.B) {
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			f := fixtureFor(k.kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := sdr.AcquireE(f.rxField, f.plan.CenterFreqHz, f.radio, xrand.New(fixtureSeed))
				if err != nil {
					b.Fatal(err)
				}
				c.Recycle()
			}
		})
	}
}

func BenchmarkCovertDemodulate(b *testing.B) {
	f := fixtureFor(opCovert)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkAny = covert.Demodulate(f.cap, f.rxCfg)
	}
}

func BenchmarkKeylogDetect(b *testing.B) {
	f := fixtureFor(opKeylog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkAny = keylog.Detect(f.cap, f.detCfg)
	}
}

// newProcessor builds the streaming receiver for a fixture.
func newProcessor(b *testing.B, kind opKind, f *fixture) stream.Checkpointer {
	var p stream.Checkpointer
	var err error
	if kind == opCovert {
		p, err = stream.NewCovertReceiver(f.rxCfg, f.cap.SampleRate, f.cap.CenterFreqHz)
	} else {
		p, err = stream.NewKeylogDetector(f.detCfg, f.cap.SampleRate, f.cap.CenterFreqHz)
	}
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkReceiverPush streams the canonical capture through a fresh
// CovertReceiver or KeylogDetector in daemon-sized chunks.
func BenchmarkReceiverPush(b *testing.B) {
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			f := fixtureFor(k.kind)
			chunks := stream.Chunks(f.cap.IQ, chunkSamples)
			b.ReportAllocs()
			b.SetBytes(int64(16 * len(f.cap.IQ)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := newProcessor(b, k.kind, f)
				for _, c := range chunks {
					p.Push(c)
				}
				sinkAny = p
			}
		})
	}
}

// BenchmarkDaemonChunks feeds one session of the canonical captures on
// four covert and four keylog streams through a two-worker daemon that
// checkpoints every eight chunks, and reports chunks per second.
func BenchmarkDaemonChunks(b *testing.B) {
	fs := []*fixture{fixtureFor(opCovert), fixtureFor(opKeylog)}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	chunks := 0
	for i := 0; i < b.N; i++ {
		d := stream.NewDaemon(2, stream.WithCheckpoints(dir, checkpointEvery))
		streams := make([]*stream.DaemonStream, saturatedStreams)
		parts := make([][][]complex128, saturatedStreams)
		for s := range streams {
			kind := opCovert
			if s >= saturatedStreams/2 {
				kind = opKeylog
			}
			streams[s] = d.Attach(string(rune('a'+s)), newProcessor(b, kind, fs[kind]), queueChunks)
			parts[s] = stream.Chunks(fs[kind].cap.IQ, chunkSamples)
		}
		for c := 0; ; c++ {
			more := false
			for s, ds := range streams {
				if c < len(parts[s]) {
					ds.Push(parts[s][c])
					chunks++
					more = true
				}
			}
			if !more {
				break
			}
		}
		d.Drain()
	}
	b.ReportMetric(float64(chunks)/time.Since(start).Seconds(), "chunks/s")
}

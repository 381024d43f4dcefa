package stream_test

import (
	"reflect"
	"testing"

	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/dsp"
	"pmuleak/internal/faults"
	"pmuleak/internal/keylog"
	"pmuleak/internal/sdr"
	"pmuleak/internal/stream"
)

// chunkSweep returns the chunk sizes the equivalence tests exercise for
// a capture of n samples: size 1 (every sample its own chunk, so every
// splice seam left by a fault-injected block drop coincides with a
// chunk boundary), sizes not divisible by the STFT hop, a size leaving
// a final partial chunk smaller than one STFT frame, the exact capture
// length, and a chunk larger than the whole capture.
func chunkSweep(n int) []int {
	return []int{1, 7, 1000, 4096, 12345, n - 100, n, n + 999}
}

// covertFaults is the fault schedule the faulted covert cases inject:
// enough drop/gain/saturation events on a short capture to exercise the
// resync and retry machinery, with drops guaranteed (asserted below) so
// chunk boundaries land inside spliced regions.
func covertFaults() faults.Config {
	return faults.Config{
		DropRatePerS:     120,
		GainStepRatePerS: 15,
		GainStepMaxDB:    6,
	}
}

func prepCovert(t *testing.T, withFaults bool, parallelism int) *core.PreparedCovert {
	t.Helper()
	tb := core.NewTestbed(core.WithSeed(7))
	cfg := core.CovertConfig{PayloadBits: 64, Parallelism: parallelism}
	if withFaults {
		cfg.Faults = covertFaults()
		cfg.RXResync = true
		cfg.RXCarrierRetries = 2
	}
	p := tb.PrepareCovert(cfg)
	if withFaults && p.Faults.Drops == 0 {
		t.Fatalf("fault schedule injected no drops (report %+v); raise DropRatePerS", p.Faults)
	}
	return p
}

// TestCovertStreamEqualsBatch is the chunk-invariance sweep of the
// covert receiver: for every chunk size in the sweep — hop-aligned or
// not — the receiver fed in chunks finalizes to a Demod equal field for
// field to covert.Demodulate, which pushes the whole capture as one
// chunk. Faults off and on, receiver parallelism 1 and 4 (which now
// fans out inside Push), and the blind configs, whose offsets come from
// Demodulate's pre-pass (the one-chunk Demod's Offsets), with and
// without carrier retries.
func TestCovertStreamEqualsBatch(t *testing.T) {
	for _, tc := range []struct {
		name        string
		withFaults  bool
		parallelism int
		blind       bool
	}{
		{"clean_jobs1", false, 1, false},
		{"clean_jobs4", false, 4, false},
		{"faulted_jobs1", true, 1, false},
		{"faulted_jobs4", true, 4, false},
		{"blind_jobs4", false, 4, true},
		{"blind_retries_jobs1", true, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := prepCovert(t, tc.withFaults, tc.parallelism)
			defer p.Cap.Recycle()
			cfg := p.RXCfg
			if tc.blind {
				cfg.ExpectedF0 = 0
			}
			if tc.blind && tc.withFaults {
				// Gate the first pass just above its own z-score so the
				// blind retry loop must widen the search.
				first := cfg
				first.CarrierRetries = 0
				cfg.CarrierMinZ = covert.Demodulate(p.Cap, first).Quality.CarrierZ * 1.1
			}
			whole := covert.Demodulate(p.Cap, cfg)
			if !whole.CarrierFound {
				t.Fatalf("one-chunk demod found no carrier (z=%.2f); the sweep would be vacuous", whole.Quality.CarrierZ)
			}
			if tc.blind && tc.withFaults && whole.Quality.Retries == 0 {
				t.Fatal("blind retry case consumed no retries")
			}
			var offsets []float64
			if tc.blind {
				offsets = whole.Offsets
			}
			for _, size := range chunkSweep(len(p.Cap.IQ)) {
				rx, err := covert.NewReceiver(cfg, p.Cap.SampleRate, p.Cap.CenterFreqHz, offsets)
				if err != nil {
					t.Fatalf("NewReceiver: %v", err)
				}
				for _, chunk := range stream.Chunks(p.Cap.IQ, size) {
					rx.Push(chunk)
				}
				got := rx.Finalize()
				if !reflect.DeepEqual(got, whole) {
					t.Errorf("chunk size %d: chunked demod diverged from one chunk\nchunked bits: %v\nwhole bits:   %v\nchunked: %+v\nwhole:   %+v",
						size, got.Bits, whole.Bits, abbreviateDemod(got), abbreviateDemod(whole))
				}
			}
		})
	}
}

// TestCovertReceiverNeedsOffsets: with neither an in-band ExpectedF0
// harmonic nor pre-pass offsets the receiver has nothing to track.
func TestCovertReceiverNeedsOffsets(t *testing.T) {
	cfg := covert.DefaultRXConfig()
	if _, err := covert.NewReceiver(cfg, 2.4e6, 540e3, nil); err == nil {
		t.Fatal("NewReceiver accepted a blind config without offsets")
	}
	if _, err := covert.NewReceiver(cfg, 2.4e6, 540e3, []float64{-180e3}); err != nil {
		t.Fatalf("NewReceiver rejected a blind config with offsets: %v", err)
	}
	cfg.ExpectedF0 = 360e3
	if _, err := stream.NewCovertReceiver(cfg, 2.4e6, 540e3); err != nil {
		t.Fatalf("NewCovertReceiver rejected a hinted config: %v", err)
	}
}

// abbreviateDemod trims the bulky trace fields for failure messages.
func abbreviateDemod(d *covert.Demod) covert.Demod {
	c := *d
	c.Y, c.Conv = nil, nil
	return c
}

// TestCovertStreamShortCapture pins the degenerate gate: a capture
// shorter than 4 FFT windows decodes to the same empty Demod in one
// chunk and in chunks below, at, and above the capture length.
func TestCovertStreamShortCapture(t *testing.T) {
	cfg := covert.DefaultRXConfig()
	cfg.ExpectedF0 = 360e3
	cap := &sdr.Capture{
		IQ:           make([]complex128, 4*cfg.FFTSize-1),
		SampleRate:   2.4e6,
		CenterFreqHz: 540e3,
	}
	whole := covert.Demodulate(cap, cfg)
	if whole.CarrierFound {
		t.Fatal("short capture unexpectedly found a carrier")
	}
	for _, size := range []int{1, 100, len(cap.IQ), len(cap.IQ) + 1} {
		rx, err := stream.NewCovertReceiver(cfg, cap.SampleRate, cap.CenterFreqHz)
		if err != nil {
			t.Fatalf("NewCovertReceiver: %v", err)
		}
		for _, chunk := range stream.Chunks(cap.IQ, size) {
			rx.Push(chunk)
		}
		if got := rx.Finalize(); !reflect.DeepEqual(got, whole) {
			t.Errorf("chunk %d: short-capture demod %+v, want %+v", size, got, whole)
		}
	}
}

func prepKeylog(t *testing.T, withFaults bool, parallelism int) *core.PreparedKeylog {
	t.Helper()
	tb := core.NewTestbed(core.WithSeed(11))
	cfg := core.KeylogConfig{Words: 4, Parallelism: parallelism}
	if withFaults {
		cfg.Faults = faults.Config{DropRatePerS: 2, GainStepRatePerS: 0.5, GainStepMaxDB: 6}
		cfg.GapAware = true
	}
	p := tb.PrepareKeylog(cfg)
	if withFaults && p.Faults.Drops == 0 {
		t.Fatalf("fault schedule injected no drops (report %+v)", p.Faults)
	}
	return p
}

// TestKeylogStreamEqualsBatch is the detector's chunk-invariance
// sweep: fed in chunks, it finalizes to a Detection equal to
// keylog.Detect (one chunk) over the same capture, faults off and on,
// parallelism 1 and 4. With faults on, the injected block drops delete
// samples before chunking, so the splice seams land mid-chunk for large
// sizes and exactly on chunk boundaries for size 1. The blind and
// TrackBlock 0 configs hold every row until Finalize and are swept too.
func TestKeylogStreamEqualsBatch(t *testing.T) {
	for _, tc := range []struct {
		name        string
		withFaults  bool
		parallelism int
		tweak       func(*keylog.DetectorConfig)
	}{
		{"clean_jobs1", false, 1, nil},
		{"clean_jobs4", false, 4, nil},
		{"faulted_jobs1", true, 1, nil},
		{"faulted_jobs4", true, 4, nil},
		{"blind_jobs4", false, 4, func(c *keylog.DetectorConfig) { c.ExpectedF0 = 0 }},
		{"trackblock0_jobs1", true, 1, func(c *keylog.DetectorConfig) { c.TrackBlock = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := prepKeylog(t, tc.withFaults, tc.parallelism)
			defer p.Cap.Recycle()
			cfg := p.DetCfg
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			whole := keylog.Detect(p.Cap, cfg)
			if len(whole.Keystrokes) == 0 {
				t.Fatal("one-chunk detector found no keystrokes; the sweep would be vacuous")
			}
			for _, size := range chunkSweep(len(p.Cap.IQ)) {
				det, err := stream.NewKeylogDetector(cfg, p.Cap.SampleRate, p.Cap.CenterFreqHz)
				if err != nil {
					t.Fatalf("NewKeylogDetector: %v", err)
				}
				for _, chunk := range stream.Chunks(p.Cap.IQ, size) {
					det.Push(chunk)
				}
				got := det.Finalize()
				if !reflect.DeepEqual(got, whole) {
					t.Errorf("chunk size %d: chunked detection diverged from one chunk\nchunked: %d keystrokes, thr %v\nwhole:   %d keystrokes, thr %v",
						size, len(got.Keystrokes), got.Threshold, len(whole.Keystrokes), whole.Threshold)
				}
			}
		})
	}
}

// TestKeylogStreamShortCapture: a capture shorter than one STFT frame
// detects nothing, in one chunk or in many.
func TestKeylogStreamShortCapture(t *testing.T) {
	cfg := keylog.DefaultDetectorConfig()
	cfg.ExpectedF0 = 360e3
	fftSize := dsp.NextPowerOfTwo(int(cfg.Window.Seconds() * 240e3))
	cap := &sdr.Capture{
		IQ:           make([]complex128, fftSize-1),
		SampleRate:   240e3,
		CenterFreqHz: 300e3,
	}
	whole := keylog.Detect(cap, cfg)
	for _, size := range []int{1, fftSize / 3, len(cap.IQ) + 1} {
		det, err := stream.NewKeylogDetector(cfg, cap.SampleRate, cap.CenterFreqHz)
		if err != nil {
			t.Fatalf("NewKeylogDetector: %v", err)
		}
		for _, chunk := range stream.Chunks(cap.IQ, size) {
			det.Push(chunk)
		}
		if got := det.Finalize(); !reflect.DeepEqual(got, whole) {
			t.Errorf("chunk %d: short-capture detection %+v, want %+v", size, got, whole)
		}
	}
}

package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"pmuleak/internal/xrand"
)

func resTone(n int, f, amp float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(amp, 0) * cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)))
	}
	return x
}

// resonate runs x through a fresh bank and returns the gain-scaled sum
// of the tracked magnitudes: the Eq. (1) acquisition trace.
func resonate(x []complex128, offsets []float64, decay float64) []float64 {
	b := NewResonators(offsets, decay)
	mag := make([][]float64, len(offsets))
	for i := range mag {
		mag[i] = make([]float64, len(x))
	}
	b.Track(x, mag)
	out := make([]float64, len(x))
	for n := range out {
		var sum float64
		for i := range mag {
			sum += mag[i][n]
		}
		out[n] = sum * b.Gain
	}
	return out
}

// TestResonatorsPiecewise: the bank carries its state between calls, so
// tracking in uneven pieces equals one call over the whole signal.
func TestResonatorsPiecewise(t *testing.T) {
	rng := xrand.New(41)
	x := make([]complex128, 5000)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	offsets := []float64{0.1, -0.2, 0.33}
	newMag := func() [][]float64 {
		mag := make([][]float64, len(offsets))
		for i := range mag {
			mag[i] = make([]float64, len(x))
		}
		return mag
	}
	want := newMag()
	NewResonators(offsets, 0.995).Track(x, want)
	b, got := NewResonators(offsets, 0.995), newMag()
	for lo := 0; lo < len(x); {
		hi := min(lo+1+lo%777, len(x))
		part := make([][]float64, len(offsets))
		for i := range part {
			part[i] = got[i][lo:hi]
		}
		b.Track(x[lo:hi], part)
		lo = hi
	}
	for i := range got {
		for n := range got[i] {
			if math.Float64bits(got[i][n]) != math.Float64bits(want[i][n]) {
				t.Fatalf("component %d sample %d = %v, want %v", i, n, got[i][n], want[i][n])
			}
		}
	}
}

func TestResonatorTracksOnFrequencyTone(t *testing.T) {
	const f = 0.123 // normalized
	x := resTone(20000, f, 2.5)
	y := resonate(x, []float64{f}, 0.995)
	// After several time constants the output settles at the amplitude.
	settled := y[10000:]
	if m := Mean(settled); math.Abs(m-2.5) > 0.05 {
		t.Fatalf("settled output = %v, want 2.5", m)
	}
}

func TestResonatorTracksOffGridFrequency(t *testing.T) {
	// A frequency that falls exactly between FFT bins must be tracked
	// at full amplitude; that is the whole point versus SlidingDFT.
	const m = 256
	f := (41.5) / float64(m) // half-bin offset for an m-point DFT
	x := resTone(20000, f, 1.0)
	y := resonate(x, []float64{f}, 0.995)
	if got := Mean(y[10000:]); math.Abs(got-1.0) > 0.03 {
		t.Fatalf("off-grid amplitude = %v, want 1.0", got)
	}
}

func TestResonatorRejectsDistantTone(t *testing.T) {
	const fTone, fTrack = 0.2, 0.3
	x := resTone(20000, fTone, 1.0)
	y := resonate(x, []float64{fTrack}, 0.995)
	if got := Mean(y[10000:]); got > 0.05 {
		t.Fatalf("distant tone leaked: %v", got)
	}
}

func TestResonatorStepResponseTimeConstant(t *testing.T) {
	const f = 0.1
	const decay = 0.99 // time constant 100 samples
	x := resTone(2000, f, 1.0)
	y := resonate(x, []float64{f}, decay)
	// At one time constant the response is ~1-1/e of final.
	if y[100] < 0.55 || y[100] > 0.72 {
		t.Fatalf("response at tau = %v, want ~0.63", y[100])
	}
	if y[1000] < 0.99 {
		t.Fatalf("response at 10 tau = %v", y[1000])
	}
}

func TestResonatorSumsMultipleComponents(t *testing.T) {
	x := resTone(20000, 0.1, 1.0)
	x2 := resTone(20000, -0.2, 0.5)
	for i := range x {
		x[i] += x2[i]
	}
	y := resonate(x, []float64{0.1, -0.2}, 0.995)
	if got := Mean(y[10000:]); math.Abs(got-1.5) > 0.05 {
		t.Fatalf("summed amplitude = %v, want 1.5", got)
	}
}

func TestResonatorTracksAmplitudeModulation(t *testing.T) {
	// On-off keyed tone: output must follow the envelope.
	const f = 0.15
	n := 30000
	x := make([]complex128, n)
	for i := range x {
		amp := 1.0
		if (i/5000)%2 == 1 {
			amp = 0
		}
		x[i] = complex(amp, 0) * cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)))
	}
	y := resonate(x, []float64{f}, 0.998) // tau = 500 samples
	on := Mean(y[3000:5000])
	off := Mean(y[8000:10000])
	if off > on/10 {
		t.Fatalf("envelope not tracked: on %v off %v", on, off)
	}
}

func TestResonatorBadDecayPanics(t *testing.T) {
	for _, d := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("decay %v accepted", d)
				}
			}()
			NewResonators([]float64{0.1}, d)
		}()
	}
}

func TestResonatorNoiseFloorScales(t *testing.T) {
	rng := xrand.New(40)
	x := make([]complex128, 50000)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	// Narrower resonator (higher decay) -> lower noise output.
	wide := Mean(resonate(x, []float64{0.1}, 0.99)[10000:])
	narrow := Mean(resonate(x, []float64{0.1}, 0.999)[10000:])
	if narrow >= wide {
		t.Fatalf("narrowband noise %v not below wideband %v", narrow, wide)
	}
}

func TestResonatorBandwidthAndDecayHelpers(t *testing.T) {
	d := DecayForTimeConstant(100e-6, 2.4e6) // 240 samples
	if math.Abs(d-(1-1.0/240)) > 1e-12 {
		t.Fatalf("decay = %v", d)
	}
	bw := ResonatorBandwidth(d, 2.4e6)
	want := (1.0 / 240) * 2.4e6 / math.Pi
	if math.Abs(bw-want) > 1e-6 {
		t.Fatalf("bandwidth = %v, want %v", bw, want)
	}
	// Degenerate time constant clamps to one sample.
	if d := DecayForTimeConstant(0, 2.4e6); d != 0 {
		t.Fatalf("zero tc decay = %v, want 0", d)
	}
}

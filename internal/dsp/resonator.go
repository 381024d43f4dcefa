package dsp

import (
	"math"
	"math/cmplx"
)

// Resonators tracks the amplitude of a set of narrowband components at
// exact (not bin-quantized) baseband frequencies. Each component is
// followed by a single-pole complex resonator — an exponentially
// weighted sliding DFT:
//
//	z[n] = decay * e^{i·2π·f/fs} * z[n-1] + x[n]
//
// whose magnitude, scaled by Gain = 1-decay, estimates the component's
// amplitude with a time constant of 1/(1-decay) samples and an
// effective bandwidth of roughly (1-decay)·fs/π Hz.
//
// The covert receiver uses it as the practical form of the paper's
// Eq. (1): summing the tracked magnitudes of the VRM spike set S gives
// the per-sample acquisition trace Y[n] without FFT-grid scalloping
// loss. The bank carries its state between Track calls, so a signal
// fed in pieces is tracked exactly as in one call.
type Resonators struct {
	rot []complex128
	// Z is the resonators' complex state, one per component.
	Z []complex128
	// Gain scales a tracked magnitude to the component amplitude.
	Gain float64
}

// NewResonators returns a bank at rest. offsets are the component
// frequencies normalized by the sample rate (f/fs, may be negative);
// decay must be in (0, 1).
func NewResonators(offsets []float64, decay float64) *Resonators {
	if decay <= 0 || decay >= 1 {
		panic("dsp: resonator decay must be in (0,1)")
	}
	b := &Resonators{
		rot:  make([]complex128, len(offsets)),
		Z:    make([]complex128, len(offsets)),
		Gain: 1 - decay,
	}
	for i, f := range offsets {
		b.rot[i] = cmplx.Exp(complex(0, 2*math.Pi*f)) * complex(decay, 0)
	}
	return b
}

// Track advances every resonator over x and writes component i's
// unscaled magnitude |z_i[n]| to mag[i][n]. The components step
// together sample by sample, which overlaps their otherwise
// latency-bound recurrences.
func (b *Resonators) Track(x []complex128, mag [][]float64) {
	for n, v := range x {
		for i, rot := range b.rot {
			z := b.Z[i]*rot + v
			b.Z[i] = z
			mag[i][n] = cmplx.Abs(z)
		}
	}
}

// ResonatorBandwidth returns the approximate -3 dB bandwidth (Hz) of a
// resonator with the given decay at the given sample rate.
func ResonatorBandwidth(decay, sampleRate float64) float64 {
	return (1 - decay) * sampleRate / math.Pi
}

// DecayForTimeConstant returns the decay factor whose step-response time
// constant is tc seconds at the given sample rate.
func DecayForTimeConstant(tc, sampleRate float64) float64 {
	samples := tc * sampleRate
	if samples < 1 {
		samples = 1
	}
	return 1 - 1/samples
}

package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"sync"
	"sync/atomic"

	"pmuleak/internal/telemetry"
)

// Engine telemetry: one histogram observation per transform call (never
// per frame — a frame is microseconds, a time.Now pair is not free at
// that granularity) plus counters for the work fanned out. Frame and
// segment totals are derived from the input geometry, so they are
// deterministic for a fixed workload at every Parallelism.
var (
	engSTFTDur      = telemetry.NewHistogram("dsp.engine.stft")
	engWelchDur     = telemetry.NewHistogram("dsp.engine.welch")
	engSTFTFrames   = telemetry.NewCounter("dsp.engine.stft.frames")
	engWelchSegs    = telemetry.NewCounter("dsp.engine.welch.segments")
	engConvolves    = telemetry.NewCounter("dsp.engine.convolve.calls")
	engOverlapSaves = telemetry.NewCounter("dsp.engine.overlapsave.calls")
)

// defaultParallelism is the process-wide worker count used by engines
// whose Parallelism field is zero. Zero here in turn means
// runtime.NumCPU(). Stored atomically so tools can set it while
// pipelines run on other goroutines.
var defaultParallelism atomic.Int32

// SetDefaultParallelism sets the worker count engines with Parallelism
// == 0 resolve to: p == 0 restores the default (all CPUs), p == 1
// forces the serial path everywhere the knob was left on auto, and
// p > 1 pins a specific worker count. Negative values are treated as 0.
func SetDefaultParallelism(p int) {
	if p < 0 {
		p = 0
	}
	defaultParallelism.Store(int32(p))
}

// DefaultParallelism reports the current process-wide default (0 =
// runtime.NumCPU()).
func DefaultParallelism() int { return int(defaultParallelism.Load()) }

// Engine runs the package's frame-oriented transforms — STFT, Welch
// averaging, and matched-filter convolution — across a pool of
// goroutines. The zero value is an auto-sized engine.
//
// Every parallel path is bit-identical to the serial one: frames and
// segments are transformed independently (each frame's FFT is the same
// arithmetic regardless of which worker runs it), and the one
// order-sensitive reduction (Welch's segment average) is accumulated in
// segment order after the transforms complete. Consequently results
// never depend on Parallelism, and an Engine is safe for concurrent use
// from multiple goroutines.
type Engine struct {
	// Parallelism is the worker count: 0 resolves to the process
	// default (normally all CPUs), 1 is the exact legacy serial path,
	// and n > 1 fans work out across n goroutines.
	Parallelism int
}

// NewEngine returns an engine with the given Parallelism knob
// (0 = auto, 1 = serial).
func NewEngine(parallelism int) Engine { return Engine{Parallelism: parallelism} }

// workers resolves the Parallelism knob to a concrete worker count.
func (e Engine) workers() int {
	p := e.Parallelism
	if p == 0 {
		p = DefaultParallelism()
	}
	if p == 0 {
		p = runtime.NumCPU()
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Chunks partitions [0, n) into at most workers() contiguous ranges and
// runs fn on each, concurrently when the engine is parallel. fn must
// not touch indices outside its range; under that contract the result
// is identical to a single fn(0, n) call. It is the building block
// consumers (e.g. the SDR front end) use for element-wise stages.
func (e Engine) Chunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := e.workers()
	if w > n {
		w = n
	}
	if w == 1 {
		fn(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// each runs fn(buf, k) for every k in [0, n), spreading k across the
// worker pool (k goes to worker k mod w). Every worker owns one
// size-sample scratch buffer for all of its calls, so the steady state
// allocates nothing per frame.
func (e Engine) each(n, size int, fn func(buf []complex128, k int)) {
	w := e.workers()
	if w > n {
		w = n
	}
	worker := func(wk int) {
		buf := make([]complex128, size)
		for k := wk; k < n; k += w {
			fn(buf, k)
		}
	}
	if w <= 1 {
		worker(0)
		return
	}
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			worker(wk)
		}(wk)
	}
	wg.Wait()
}

// spectrogram wraps frames rows of a flat magnitude array.
func spectrogram(flat []float64, frames, fftSize, hop int, sampleRate float64) *Spectrogram {
	s := &Spectrogram{FFTSize: fftSize, Hop: hop, SampleRate: sampleRate}
	if frames == 0 {
		return s
	}
	s.Mag = make([][]float64, frames)
	for f := range s.Mag {
		s.Mag[f] = flat[f*fftSize : (f+1)*fftSize : (f+1)*fftSize]
	}
	return s
}

// frameCount is how many whole frames of fftSize samples, hop apart,
// fit in n samples.
func frameCount(n, fftSize, hop int) int {
	if n < fftSize {
		return 0
	}
	return (n-fftSize)/hop + 1
}

// STFT computes the same magnitude spectrogram as the package-level
// STFT, fanning frames out across the worker pool into one
// preallocated backing array.
func (e Engine) STFT(x []complex128, fftSize, hop int, window []float64, sampleRate float64) *Spectrogram {
	stftValidate(fftSize, hop, window)
	frames := frameCount(len(x), fftSize, hop)
	flat := make([]float64, frames*fftSize)
	e.STFTInto(flat, x, hop, window)
	return spectrogram(flat, frames, fftSize, hop, sampleRate)
}

// STFTInto writes the magnitude rows of the first len(dst)/len(window)
// frames of x — frame f starts at sample f*hop — into dst, one row
// after another; x must hold every one of those frames in full. It is
// the core of STFT for callers that own their row storage, such as a
// detector fed one chunk at a time.
//
// With the fused kernels each frame is gathered (window multiply +
// bit-reversal permutation in one pass) straight into the paired
// butterfly stages, and a real-valued input runs the half-spectrum real
// transform with the magnitude row mirrored. Every variant produces
// rows bit-identical to the reference copy/window/transform path
// (DESIGN.md §9), so the rows never depend on the kernel mode, on
// Parallelism, or on how a signal is split across calls.
func (e Engine) STFTInto(dst []float64, x []complex128, hop int, window []float64) {
	fftSize := len(window)
	stftValidate(fftSize, hop, window)
	frames := len(dst) / fftSize
	if frames == 0 {
		return
	}
	x = x[:(frames-1)*hop+fftSize]
	defer engSTFTDur.Start().End()
	engSTFTFrames.Add(uint64(frames))
	plan := PlanFFT(fftSize)
	fused := FusedKernels()
	realIn := fused && isRealValued(x)
	e.each(frames, fftSize, func(buf []complex128, f int) {
		frame := x[f*hop : f*hop+fftSize]
		row := dst[f*fftSize : (f+1)*fftSize]
		switch {
		case realIn:
			plan.realHalfComplex(buf, frame, window)
			mirrorMagRow(row, buf, fftSize)
			return
		case fused:
			plan.windowGather(buf, frame, window, plan.fwd)
		default:
			copy(buf, frame)
			ApplyWindow(buf, window)
			plan.Transform(buf)
		}
		for i, v := range buf {
			row[i] = cmplx.Abs(v)
		}
	})
}

// stftValidate checks the shared STFT argument contract.
func stftValidate(fftSize, hop int, window []float64) {
	if !IsPowerOfTwo(fftSize) {
		panic(fmt.Sprintf("dsp: STFT fftSize %d not a power of two", fftSize))
	}
	if hop <= 0 {
		panic("dsp: STFT hop must be positive")
	}
	if len(window) != fftSize {
		panic("dsp: STFT window length must equal fftSize")
	}
}

// isRealValued reports whether every sample's imaginary part is zero —
// a real capture stored in a complex buffer. The scan aborts at the
// first genuinely complex sample, so IQ captures pay one comparison;
// real-valued traces pay a linear scan and then save half of every
// transform that follows.
func isRealValued(x []complex128) bool {
	for _, v := range x {
		if imag(v) != 0 {
			return false
		}
	}
	return true
}

// mirrorMagRow expands a half-spectrum into a full magnitude row using
// conjugate symmetry: |X[n-k]| equals |X[k]| bit-exactly, because
// cmplx.Abs (math.Hypot) strips both signs before it does arithmetic.
func mirrorMagRow(row []float64, buf []complex128, n int) {
	h := n >> 1
	// Two passes: a forward Hypot loop over the computed half-spectrum,
	// then a pure copy into the mirrored bins — keeping the expensive
	// loop free of the backward-striding second store.
	for k := 0; k <= h && k < n; k++ {
		v := buf[k]
		row[k] = math.Hypot(real(v), imag(v))
	}
	for k := 1; k < h; k++ {
		row[n-k] = row[k]
	}
}

// STFTReal computes the magnitude spectrogram of a real-valued signal —
// the native shape of the paper's power traces. It is the real-input
// twin of STFT: with the fused kernels enabled every frame runs the
// half-spectrum real transform (half the butterflies and half the
// magnitude evaluations of the complex path); with them disabled the
// samples are packed into a complex buffer and handed to the reference
// STFT. Both modes produce bit-identical rows.
func (e Engine) STFTReal(x []float64, fftSize, hop int, window []float64, sampleRate float64) *Spectrogram {
	if !FusedKernels() {
		return e.STFT(packReal(x), fftSize, hop, window, sampleRate)
	}
	stftValidate(fftSize, hop, window)
	frames := frameCount(len(x), fftSize, hop)
	flat := make([]float64, frames*fftSize)
	if frames > 0 {
		defer engSTFTDur.Start().End()
		engSTFTFrames.Add(uint64(frames))
		plan := PlanFFT(fftSize)
		e.each(frames, fftSize, func(buf []complex128, f int) {
			plan.realHalfFloat(buf, x[f*hop:f*hop+fftSize], window)
			mirrorMagRow(flat[f*fftSize:(f+1)*fftSize], buf, fftSize)
		})
	}
	return spectrogram(flat, frames, fftSize, hop, sampleRate)
}

// packReal copies a real signal into a complex buffer.
func packReal(x []float64) []complex128 {
	packed := make([]complex128, len(x))
	for i, v := range x {
		packed[i] = complex(v, 0)
	}
	return packed
}

// welchBatchFactor bounds the scratch memory of the parallel Welch
// path: per round, workers transform at most workers*welchBatchFactor
// segments before the ordered accumulation drains them.
const welchBatchFactor = 16

// welchValidate checks the Welch segment length.
func welchValidate(fftSize int) {
	if !IsPowerOfTwo(fftSize) {
		panic(fmt.Sprintf("dsp: WelchPSD fftSize %d not a power of two", fftSize))
	}
	if fftSize < 2 {
		// fftSize 1 would make the 50%-overlap hop zero; the historical
		// implementation looped forever on it.
		panic("dsp: WelchPSD fftSize must be >= 2")
	}
}

// WelchPSD computes the same power spectral density as the
// package-level WelchPSD: the segment sum of WelchAccumulate divided by
// the segment count.
func (e Engine) WelchPSD(x []complex128, fftSize int) []float64 {
	welchValidate(fftSize)
	psd := make([]float64, fftSize)
	averageSegments(psd, e.WelchAccumulate(psd, x, Hann(fftSize)))
	return psd
}

// averageSegments turns a Welch segment sum into the average; a signal
// too short for one segment keeps its all-zero PSD.
func averageSegments(psd []float64, segments int) {
	if segments == 0 {
		return
	}
	for i := range psd {
		psd[i] /= float64(segments)
	}
}

// WelchAccumulate adds the power spectrum of every complete windowed
// segment of x — len(window) samples, starting every len(window)/2 — to
// sum (len(sum) == len(window)) in segment order, and returns how many
// segments it added. Segment transforms run on the worker pool; the sum
// is then accumulated in segment order, so the result is bit-identical
// at every Parallelism. A caller that feeds one signal in pieces, and
// carries each piece's incomplete trailing segments into the next
// call, accumulates exactly the floating-point sum of one call over the
// whole signal: that is how an incremental receiver reproduces
// WelchPSD.
//
// A real-valued x runs the half-spectrum real transform under the fused
// kernels and adds each segment's power at bin k to bins k and n-k —
// the bit-exact mirror, because squares are sign-blind.
func (e Engine) WelchAccumulate(sum []float64, x []complex128, window []float64) int {
	fftSize := len(window)
	welchValidate(fftSize)
	if len(sum) != fftSize {
		panic("dsp: WelchAccumulate sum length must equal the window length")
	}
	hop := fftSize / 2
	segments := frameCount(len(x), fftSize, hop)
	if segments == 0 {
		return 0
	}
	x = x[:(segments-1)*hop+fftSize]
	plan := PlanFFT(fftSize)
	fused := FusedKernels()
	if fused && isRealValued(x) {
		e.welchSum(sum, segments, fftSize, true, func(buf []complex128, start int) {
			plan.realHalfComplex(buf, x[start:start+fftSize], window)
		})
		return segments
	}
	e.welchSum(sum, segments, fftSize, false, func(buf []complex128, start int) {
		seg := x[start : start+fftSize]
		if fused {
			plan.windowGather(buf, seg, window, plan.fwd)
			return
		}
		copy(buf, seg)
		ApplyWindow(buf, window)
		plan.Transform(buf)
	})
	return segments
}

// WelchPSDReal computes the Welch PSD of a real-valued signal. With the
// fused kernels enabled each segment runs the half-spectrum real
// transform; with them disabled the samples are packed into a complex
// buffer and handed to the reference WelchPSD. Both modes produce a
// bit-identical PSD.
func (e Engine) WelchPSDReal(x []float64, fftSize int) []float64 {
	if !FusedKernels() {
		return e.WelchPSD(packReal(x), fftSize)
	}
	welchValidate(fftSize)
	window := Hann(fftSize)
	psd := make([]float64, fftSize)
	segments := frameCount(len(x), fftSize, fftSize/2)
	if segments > 0 {
		plan := PlanFFT(fftSize)
		e.welchSum(psd, segments, fftSize, true, func(buf []complex128, start int) {
			plan.realHalfFloat(buf, x[start:start+fftSize], window)
		})
	}
	averageSegments(psd, segments)
	return psd
}

// welchSum runs the Welch segment loop: gather must leave the windowed
// transform of the segment starting at start in buf (bins [0,
// fftSize/2] suffice when half is set, the upper bins being their
// mirror). Segment powers are computed on the worker pool and added to
// sum strictly in segment order, so the floating-point sum is the
// serial loop's bit for bit.
func (e Engine) welchSum(sum []float64, segments, fftSize int, half bool, gather func(buf []complex128, start int)) {
	defer engWelchDur.Start().End()
	engWelchSegs.Add(uint64(segments))
	hop := fftSize / 2
	bins := fftSize
	if half {
		bins = hop + 1
	}
	w := e.workers()
	if w == 1 || segments == 1 {
		// Serial: each segment's powers go straight into the sum.
		buf := make([]complex128, fftSize)
		for k := 0; k < segments; k++ {
			gather(buf, k*hop)
			for i := 0; i < bins; i++ {
				re, im := real(buf[i]), imag(buf[i])
				sum[i] += re*re + im*im
			}
			if half {
				for i := 1; i < hop; i++ {
					re, im := real(buf[i]), imag(buf[i])
					sum[fftSize-i] += re*re + im*im
				}
			}
		}
		return
	}
	batch := w * welchBatchFactor
	if batch > segments {
		batch = segments
	}
	flat := make([]float64, batch*bins)
	for base := 0; base < segments; base += batch {
		nb := batch
		if base+nb > segments {
			nb = segments - base
		}
		e.each(nb, fftSize, func(buf []complex128, k int) {
			gather(buf, (base+k)*hop)
			row := flat[k*bins : (k+1)*bins]
			for i := range row {
				re, im := real(buf[i]), imag(buf[i])
				row[i] = re*re + im*im
			}
		})
		// Ordered accumulation: segment k is always added after
		// segment k-1, exactly as the serial loop does.
		for k := 0; k < nb; k++ {
			row := flat[k*bins : (k+1)*bins]
			for i, v := range row {
				sum[i] += v
			}
			if half {
				for i := 1; i < hop; i++ {
					sum[fftSize-i] += row[i]
				}
			}
		}
	}
}

// Convolve computes the same "same"-size convolution as the
// package-level Convolve, partitioning the output range across the
// worker pool. Each output sample is an independent dot product, so the
// result is bit-identical for every Parallelism.
func (e Engine) Convolve(x, k []float64) []float64 {
	out := make([]float64, len(x))
	if len(k) == 0 || len(x) == 0 {
		return out
	}
	engConvolves.Inc()
	e.Chunks(len(x), func(lo, hi int) { convolveRange(out, x, k, lo, hi) })
	return out
}

// OverlapSave computes the same quantity as Convolve by overlap-save
// FFT block processing: O((n/L)·N log N) instead of O(n·k), a large win
// once the kernel has more than a few dozen taps. Unlike the engine's
// other methods its output is NOT bit-identical to the direct path —
// the transform pair introduces rounding on the order of 1e-15 relative
// to the output scale — which is why the receiver's decision paths stay
// on Convolve and this entry point is for bulk analysis workloads.
func (e Engine) OverlapSave(x, k []float64) []float64 {
	out := make([]float64, len(x))
	if len(k) == 0 || len(x) == 0 {
		return out
	}
	engOverlapSaves.Inc()
	kl := len(k)
	n := NextPowerOfTwo(4 * kl)
	if n < 1024 {
		n = 1024
	}
	if n > NextPowerOfTwo(len(x)+kl) {
		n = NextPowerOfTwo(len(x) + kl)
	}
	blockLen := n - kl + 1 // valid linear-convolution outputs per block
	plan := PlanFFT(n)
	// Kernel spectrum, reversed so the block product computes
	// out[i] = sum_j k[j]*x[i+j-half] (Convolve's indexing).
	kf := make([]complex128, n)
	for j, kv := range k {
		kf[kl-1-j] = complex(kv, 0)
	}
	plan.Transform(kf)
	half := kl / 2
	off := kl - 1 - half
	blocks := (len(x) + blockLen - 1) / blockLen
	w := e.workers()
	if w > blocks {
		w = blocks
	}
	fused := FusedKernels()
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			seg := make([]complex128, n)
			var segRe []float64
			if fused {
				// Blocks are real, so the forward transform can run the
				// half-work real path; the kernel-spectrum product and
				// inverse stay complex.
				segRe = make([]float64, n)
			}
			for b := wk; b < blocks; b += w {
				lo := b * blockLen
				hi := lo + blockLen
				if hi > len(x) {
					hi = len(x)
				}
				// The block's first full-convolution index is lo+off;
				// the segment feeding it starts kl-1 samples earlier.
				base := lo + off - (kl - 1)
				if fused {
					for t := 0; t < n; t++ {
						if idx := base + t; idx >= 0 && idx < len(x) {
							segRe[t] = x[idx]
						} else {
							segRe[t] = 0
						}
					}
					plan.RealTransform(seg, segRe)
				} else {
					for t := 0; t < n; t++ {
						if idx := base + t; idx >= 0 && idx < len(x) {
							seg[t] = complex(x[idx], 0)
						} else {
							seg[t] = 0
						}
					}
					plan.Transform(seg)
				}
				for t := range seg {
					seg[t] *= kf[t]
				}
				plan.InverseTransform(seg)
				for i := lo; i < hi; i++ {
					out[i] = real(seg[i+off-base])
				}
			}
		}(wk)
	}
	wg.Wait()
	return out
}

package covert

import (
	"fmt"
	"math"

	"pmuleak/internal/dsp"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
)

// RXConfig parameterizes the receiver's detection pipeline.
type RXConfig struct {
	// FFTSize is the PSD resolution used for carrier search and
	// carrier detection (M in Eq. (1) terms).
	FFTSize int
	// NumHarmonics is |S|: how many VRM spectral spikes to sum.
	NumHarmonics int
	// ExpectedF0 is the VRM switching frequency hint (Hz). When zero
	// the receiver locates the spikes itself from the capture's PSD.
	ExpectedF0 float64
	// DecimateFactor reduces the per-sample acquisition trace before
	// edge detection.
	DecimateFactor int
	// MinBitPeriod bounds the shortest plausible signaling period and
	// sizes the first-pass edge kernel.
	MinBitPeriod sim.Time
	// TrackerTimeConstant is the acquisition tracker's response time.
	// Zero derives it from MinBitPeriod (a quarter of it).
	TrackerTimeConstant sim.Time
	// HistBins is the resolution of the power histogram used for
	// threshold selection (Fig. 7).
	HistBins int
	// BatchBits is the approximate number of bit periods per
	// batch-processing window (§IV-B2).
	BatchBits int
	// CarrierMinZ is the minimum robust z-score of the spike bin above
	// the PSD floor for the capture to be considered to contain a VRM
	// carrier at all. Below it the demodulator reports no bits.
	CarrierMinZ float64
	// CarrierRetries bounds carrier re-acquisition: when the first
	// spike search fails the gate, each retry widens the search (more
	// candidate peaks, tighter peak spacing) and relaxes CarrierMinZ by
	// 25%. Zero — the default — keeps the single-pass behavior.
	CarrierRetries int
	// Resync enables per-batch period re-estimation (§IV-B2 batch
	// processing taken to its conclusion): estimatePeriod is re-run on
	// each BatchBits window and, when the local period diverges from
	// the global one by more than resyncDivergence, gap filling inside
	// that window re-locks onto the local period. On a clean capture no
	// window diverges and the decoded bits are identical to Resync off.
	Resync bool
	// Parallelism is the DSP engine's worker count: 0 picks the process
	// default (normally all CPUs), 1 forces the exact legacy serial
	// path, n > 1 uses n workers. The engine's parallel paths are
	// bit-identical to the serial ones, so this knob never changes the
	// decoded bits — only the wall-clock time.
	Parallelism int
}

// DefaultRXConfig mirrors the paper's receiver: 1024-point spectral
// analysis, fundamental plus first harmonic.
func DefaultRXConfig() RXConfig {
	return RXConfig{
		FFTSize:        1024,
		NumHarmonics:   2,
		DecimateFactor: 8,
		MinBitPeriod:   100 * sim.Microsecond,
		HistBins:       48,
		BatchBits:      50,
		CarrierMinZ:    12,
	}
}

// Validate reports configuration errors.
func (c RXConfig) Validate() error {
	if !dsp.IsPowerOfTwo(c.FFTSize) {
		return fmt.Errorf("covert: FFTSize %d not a power of two", c.FFTSize)
	}
	if c.NumHarmonics < 1 {
		return fmt.Errorf("covert: NumHarmonics must be >= 1")
	}
	if c.DecimateFactor < 1 {
		return fmt.Errorf("covert: DecimateFactor must be >= 1")
	}
	if c.MinBitPeriod <= 0 {
		return fmt.Errorf("covert: MinBitPeriod must be positive")
	}
	if c.TrackerTimeConstant < 0 {
		return fmt.Errorf("covert: negative TrackerTimeConstant")
	}
	if c.HistBins < 4 {
		return fmt.Errorf("covert: HistBins must be >= 4")
	}
	if c.BatchBits < 4 {
		return fmt.Errorf("covert: BatchBits must be >= 4")
	}
	if c.CarrierMinZ <= 0 {
		return fmt.Errorf("covert: CarrierMinZ must be positive")
	}
	if c.CarrierRetries < 0 || c.CarrierRetries > 8 {
		return fmt.Errorf("covert: CarrierRetries %d out of range [0,8]", c.CarrierRetries)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("covert: negative Parallelism")
	}
	return nil
}

// Quality is the receiver's structured self-assessment: instead of
// silently returning fewer bits when the capture was damaged, the
// demodulator reports how hard it had to work. Experiments use it to
// correlate injected faults with decoder behavior.
type Quality struct {
	// CarrierZ is the robust z-score of the strongest selected spike
	// over the PSD floor (compared against CarrierMinZ).
	CarrierZ float64
	// Retries is the number of carrier re-acquisition retries consumed
	// before the gate passed (0 = first pass).
	Retries int
	// Resyncs counts batch windows whose local period diverged from
	// the global estimate and were re-locked (Resync mode only).
	Resyncs int
	// BatchPeriods are the per-window signaling-period estimates in
	// seconds (Resync mode only), global or local per the divergence
	// gate — the trace of how the symbol period walked.
	BatchPeriods []float64
	// BatchConfidence is, per window, the fraction of inter-start
	// distances within 10% of the period grid actually used — a
	// per-batch decoding confidence in [0, 1].
	BatchConfidence []float64
}

// Demod holds the receiver's intermediate traces and the decoded bits.
// The intermediates are retained because the paper's figures (4-7) are
// exactly these signals.
type Demod struct {
	// CarrierFound reports whether the capture contained VRM spikes.
	CarrierFound bool
	// Offsets are the baseband frequencies (Hz) summed in the Eq. (1)
	// acquisition.
	Offsets []float64
	// Y is the decimated acquisition trace.
	Y []float64
	// DT is the seconds-per-sample of Y (and Conv).
	DT float64
	// Conv is the final edge-detection convolution trace (Fig. 5).
	Conv []float64
	// Starts are the detected (and gap-filled) bit start indices in Y.
	Starts []int
	// RawDistances are the inter-start distances (seconds) before gap
	// filling — the Fig. 6 pulse-width sample set.
	RawDistances []float64
	// SignalingTime is the estimated per-bit duration (seconds): the
	// median of RawDistances.
	SignalingTime float64
	// Inserted counts synthetic starts added by gap filling.
	Inserted int
	// Powers are the per-bit average powers (Eq. 2), and Threshold the
	// bimodal decision threshold (Fig. 7).
	Powers    []float64
	Threshold float64
	// Bits is the decoded on-air bit sequence.
	Bits []byte
	// Quality is the receiver's self-assessment (carrier margin,
	// retries, resyncs, per-batch confidence).
	Quality Quality
}

// carrier is the outcome of the receiver's carrier search: the Eq. (1)
// frequency set, the spike's robust z-score over the PSD floor, the
// re-acquisition retries consumed, and whether the gate passed. On a
// failed search, offsets and z still carry the first pass so the Demod
// can report how close the capture came.
type carrier struct {
	offsets []float64
	z       float64
	retries int
	found   bool
}

// searchCarrier runs the receiver's step-1 carrier search over a Welch
// PSD (one value per FFT bin, fftSize == cfg.FFTSize). The Welch
// average shrinks the per-bin noise spread by the square root of the
// segment count, so even a spike well under twice the floor can be
// decisive; a robust z-score captures that.
func searchCarrier(psd []float64, sampleRate, centerFreqHz float64, cfg RXConfig) carrier {
	var car carrier
	var spikePower float64
	car.offsets, spikePower = selectOffsetsWiden(psd, sampleRate, centerFreqHz, cfg, 0)
	floor := dsp.Median(psd)
	sigma := 1.4826 * dsp.MAD(psd)
	if sigma <= 0 {
		return car
	}
	car.z = (spikePower - floor) / sigma
	if car.z < cfg.CarrierMinZ {
		// Bounded re-acquisition: a gain step or saturation burst can
		// smear the spike below the gate on the first look. Each retry
		// admits more candidate peaks at tighter spacing and relaxes
		// the gate by 25%, so a genuinely dead capture still fails
		// every step while a damaged-but-live one re-locks.
		for r := 1; r <= cfg.CarrierRetries; r++ {
			offsets, spike := selectOffsetsWiden(psd, sampleRate, centerFreqHz, cfg, r)
			z := (spike - floor) / sigma
			if z >= cfg.CarrierMinZ*math.Pow(0.75, float64(r)) {
				car.offsets, car.z, car.retries = offsets, z, r
				car.found = true
				return car
			}
		}
		return car
	}
	car.found = true
	return car
}

// acquisitionDecay is the Eq. (1) resonators' decay factor for the
// config's tracker time constant.
func acquisitionDecay(cfg RXConfig, sampleRate float64) float64 {
	tc := cfg.TrackerTimeConstant
	if tc == 0 {
		// A third of the shortest bit period: fast enough to keep bit
		// edges sharp, narrow enough to reject interferers a few tens
		// of kHz away from the tracked spikes.
		tc = cfg.MinBitPeriod / 3
	}
	return dsp.DecayForTimeConstant(tc.Seconds(), sampleRate)
}

// Demodulate runs the full §IV-B pipeline over a capture: the capture
// is one chunk pushed through a Receiver. The only decision that needs
// the whole capture before the first sample is tracked is blind carrier
// selection — with no ExpectedF0 harmonic in band, a Welch pre-pass
// picks the Eq. (1) offsets the receiver then tracks.
func Demodulate(cap *sdr.Capture, cfg RXConfig) *Demod {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var offsets []float64
	if len(hintedOffsets(cfg, cap.SampleRate, cap.CenterFreqHz, cfg.NumHarmonics)) == 0 {
		psd := dsp.NewEngine(cfg.Parallelism).WelchPSD(cap.IQ, cfg.FFTSize)
		offsets = searchCarrier(psd, cap.SampleRate, cap.CenterFreqHz, cfg).offsets
	}
	r, err := NewReceiver(cfg, cap.SampleRate, cap.CenterFreqHz, offsets)
	if err != nil {
		panic(err)
	}
	r.Push(cap.IQ)
	return r.Finalize()
}

// demodulateTrace runs the back half of the §IV-B pipeline — edge
// detection, period estimation, gap filling, per-bit power, and
// thresholding (steps 3–6) — over a Demod whose acquisition trace is
// already in place: CarrierFound, Offsets, Quality.{CarrierZ,Retries},
// Y, and DT must be set. The Demod is finished in place and returned.
func demodulateTrace(d *Demod, cfg RXConfig) *Demod {
	eng := dsp.NewEngine(cfg.Parallelism)

	// 3. First-pass edge detection sized by the minimum plausible bit
	// period (Fig. 5).
	minPeriod := minPeriodSamples(cfg, d.DT)
	starts := detectEdges(d.Y, evenAtLeast(minPeriod/2), minPeriod, cfg, nil)
	if len(starts) < 3 {
		d.Conv = eng.Convolve(d.Y, dsp.EdgeKernel(evenAtLeast(minPeriod/2)))
		return d
	}

	// 4. Signaling time: median inter-start distance (Fig. 6).
	for i := 1; i < len(starts); i++ {
		d.RawDistances = append(d.RawDistances, float64(starts[i]-starts[i-1])*d.DT)
	}
	period := estimatePeriod(d.RawDistances, d.DT, minPeriod)
	d.SignalingTime = float64(period) * d.DT

	// 5. Second pass with the kernel matched to the measured period,
	// then gap filling at multiples of the signaling time.
	d.Conv = eng.Convolve(d.Y, dsp.EdgeKernel(evenAtLeast(period/2)))
	starts = detectEdges(d.Y, evenAtLeast(period/2), period*6/10, cfg, d.Conv)
	if len(starts) < 2 {
		return d
	}
	// Refresh the distance statistics from the better pass.
	d.RawDistances = d.RawDistances[:0]
	for i := 1; i < len(starts); i++ {
		d.RawDistances = append(d.RawDistances, float64(starts[i]-starts[i-1])*d.DT)
	}
	period = estimatePeriod(d.RawDistances, d.DT, minPeriod)
	d.SignalingTime = float64(period) * d.DT
	starts = clipToActive(starts, d.Y, period)
	if len(starts) == 0 {
		return d
	}
	if cfg.Resync {
		d.Starts, d.Inserted = fillGapsResync(starts, period,
			zeroPeriod(starts, period), minPeriod, cfg.BatchBits, d.DT, &d.Quality)
	} else {
		d.Starts, d.Inserted = fillGaps(starts, period, zeroPeriod(starts, period))
	}

	// 6. Per-bit average power (Eq. 2) and bimodal threshold (Fig. 7).
	// With return-to-zero coding a '1' is active only during the first
	// half of its period, so the power window covers the leading half
	// of each interval (skipping the shared start-of-bit housekeeping
	// burst); that roughly doubles the 1/0 contrast of the statistic.
	bounds := append(append([]int(nil), d.Starts...), d.Starts[len(d.Starts)-1]+period)
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		skip := (b - a) / 10
		a += skip
		if half := bounds[i] + (bounds[i+1]-bounds[i])/2; half < b {
			b = half
		}
		if b > len(d.Y) {
			b = len(d.Y)
		}
		if a >= b {
			d.Powers = append(d.Powers, 0)
			continue
		}
		d.Powers = append(d.Powers, dsp.MeanPower(d.Y[a:b]))
	}
	d.Threshold = dsp.BimodalThreshold(d.Powers, cfg.HistBins)
	d.Bits = make([]byte, len(d.Powers))
	for i, p := range d.Powers {
		if p > d.Threshold {
			d.Bits[i] = 1
		}
	}
	return d
}

// minPeriodSamples is the shortest plausible signaling period in
// acquisition-trace samples, never below 2.
func minPeriodSamples(cfg RXConfig, dt float64) int {
	minPeriod := int(cfg.MinBitPeriod.Seconds() / dt)
	if minPeriod < 2 {
		minPeriod = 2
	}
	return minPeriod
}

// hintedOffsets collects up to numHarmonics in-band harmonics of the
// ExpectedF0 hint as baseband offsets; empty without a usable hint.
func hintedOffsets(cfg RXConfig, sampleRate, centerFreqHz float64, numHarmonics int) []float64 {
	usable := 0.46 * sampleRate
	var offsets []float64
	if cfg.ExpectedF0 > 0 {
		for k := 1; len(offsets) < numHarmonics && float64(k)*cfg.ExpectedF0 < sampleRate*3; k++ {
			off := float64(k)*cfg.ExpectedF0 - centerFreqHz
			if math.Abs(off) <= usable {
				offsets = append(offsets, off)
			}
		}
	}
	return offsets
}

// selectOffsetsWiden chooses the Eq. (1) frequency set S as exact
// baseband offsets, plus the strongest selected spike's PSD power for
// carrier detection. With an f0 hint the offsets are the harmonics that
// fall in band; otherwise the strongest well-separated PSD peaks are
// used. Narrowband interferers near a spike are attenuated by the
// acquisition tracker's own selectivity, so no candidate is excluded
// here; slower signaling (a narrower tracker) is the §IV-C3 remedy when
// the band is polluted. The widen level is the re-acquisition widening:
// each level admits one more candidate spike and halves the minimum
// peak spacing, so a spike displaced or split by mid-capture damage can
// still be found. Level 0 is the exact first-pass search.
func selectOffsetsWiden(psd []float64, sampleRate, centerFreqHz float64, cfg RXConfig, widen int) ([]float64, float64) {
	m := cfg.FFTSize
	numHarmonics := cfg.NumHarmonics + widen
	offsets := hintedOffsets(cfg, sampleRate, centerFreqHz, numHarmonics)
	if len(offsets) == 0 {
		// Blind selection: strongest well-separated PSD peaks,
		// excluding DC.
		work := append([]float64(nil), psd...)
		work[0] = 0
		sep := m / 32 >> widen
		if sep < 2 {
			sep = 2
		}
		peaks := dsp.FindPeaks(work, sep, 0)
		for i := 0; i < len(peaks); i++ {
			for j := i + 1; j < len(peaks); j++ {
				if work[peaks[j]] > work[peaks[i]] {
					peaks[i], peaks[j] = peaks[j], peaks[i]
				}
			}
		}
		if len(peaks) > numHarmonics {
			peaks = peaks[:numHarmonics]
		}
		for _, p := range peaks {
			offsets = append(offsets, dsp.BinFrequency(p, m, sampleRate))
		}
		if len(offsets) == 0 {
			offsets = []float64{0}
		}
	}
	var spike float64
	for _, f := range offsets {
		if p := psd[dsp.FrequencyBin(f, m, sampleRate)]; p > spike {
			spike = p
		}
	}
	return offsets, spike
}

// estimatePeriod turns the inter-start distances into a signaling-period
// estimate (in Y samples). The distances are a mixture: mostly one
// period, plus multiples where weak bit starts were missed and
// sub-period values from spurious edges. Several quantile anchors are
// refined into candidate periods, and the candidate that explains the
// distance set with the smallest fractional residual wins.
func estimatePeriod(distances []float64, dt float64, minPeriod int) int {
	if len(distances) == 0 {
		return minPeriod
	}
	refine := func(p0 float64) float64 {
		ratios := make([]float64, 0, len(distances))
		for _, d := range distances {
			if k := math.Round(d / dt / p0); k >= 1 {
				ratios = append(ratios, d/dt/k)
			}
		}
		if len(ratios) == 0 {
			return p0
		}
		return dsp.Median(ratios)
	}
	score := func(p float64) float64 {
		var sum float64
		for _, d := range distances {
			k := math.Round(d / dt / p)
			if k < 1 {
				k = 1
			}
			sum += math.Abs(d/dt-k*p) / p
		}
		return sum / float64(len(distances))
	}
	best, bestScore := float64(minPeriod), math.Inf(1)
	for _, q := range []float64{0.10, 0.15, 0.25, 0.50} {
		p0 := dsp.Quantile(distances, q) / dt
		if p0 < float64(minPeriod) {
			p0 = float64(minPeriod)
		}
		p := refine(p0)
		if p < float64(minPeriod) {
			continue
		}
		if sc := score(p); sc < bestScore {
			best, bestScore = p, sc
		}
	}
	return int(best)
}

// trackWindow runs the §IV-B2 per-batch statistics over one window of
// the acquisition trace: edge detection with the minimum-period kernel,
// the period estimate from the inter-start distances, and the fraction
// of distances within 10% of the period grid (the same confidence
// Quality.BatchConfidence records). edges reports the detected starts;
// a window with fewer than 3 yields (0, 0, edges).
func trackWindow(y []float64, dt float64, cfg RXConfig) (periodS, confidence float64, edges int) {
	minPeriod := minPeriodSamples(cfg, dt)
	starts := detectEdges(y, evenAtLeast(minPeriod/2), minPeriod, cfg, nil)
	if len(starts) < 3 {
		return 0, 0, len(starts)
	}
	distances := make([]float64, 0, len(starts)-1)
	for i := 1; i < len(starts); i++ {
		distances = append(distances, float64(starts[i]-starts[i-1])*dt)
	}
	period := estimatePeriod(distances, dt, minPeriod)
	fit := 0
	for _, g := range distances {
		gs := g / dt
		if k := math.Round(gs / float64(period)); k >= 1 && math.Abs(gs-k*float64(period))/float64(period) < 0.1 {
			fit++
		}
	}
	return float64(period) * dt, float64(fit) / float64(len(distances)), len(starts)
}

// detectEdges convolves the acquisition trace with a rising-edge kernel
// and returns the locations of prominent positive peaks. Thresholding is
// done per batch (§IV-B2) with a global gate so silent stretches do not
// produce phantom edges. A precomputed convolution may be passed in.
func detectEdges(y []float64, kernelLen, minDist int, cfg RXConfig, conv []float64) []int {
	if conv == nil {
		conv = dsp.NewEngine(cfg.Parallelism).Convolve(y, dsp.EdgeKernel(kernelLen))
	}
	peaks := dsp.FindPeaks(conv, minDist, 0)
	if len(peaks) == 0 {
		return nil
	}
	// Global gate: a fraction of the near-maximum response.
	gate := 0.2 * dsp.Quantile(conv, 0.99)
	batch := cfg.BatchBits * minDist
	if batch < minDist {
		batch = minDist
	}
	var out []int
	for _, p := range peaks {
		batchStart := (p / batch) * batch
		batchEnd := batchStart + batch
		if batchEnd > len(conv) {
			batchEnd = len(conv)
		}
		localMax, _ := dsp.Max(conv[batchStart:batchEnd])
		thr := 0.25 * localMax
		if thr < gate {
			thr = gate
		}
		if conv[p] >= thr {
			out = append(out, p)
		}
	}
	return out
}

// maxFillGap bounds gap filling: gaps longer than this many signaling
// periods mark the end of the transmission even if stray edges follow.
const maxFillGap = 12

// zeroPeriod estimates the per-bit duration INSIDE multi-bit gaps.
// Gaps longer than one period consist of consecutive '0' bits (their
// start edges are the weak ones that go undetected), and a '0' bit's
// duration differs systematically from the overall median period; using
// the wrong period to subdivide a long run of zeros drops or invents a
// bit every few runs. The estimate is the median per-period length of
// the multi-period gaps themselves, falling back to the global period.
func zeroPeriod(starts []int, period int) int {
	var perBit []float64
	for i := 1; i < len(starts); i++ {
		gap := starts[i] - starts[i-1]
		k := int(math.Round(float64(gap) / float64(period)))
		if k >= 2 && k <= maxFillGap {
			perBit = append(perBit, float64(gap)/float64(k))
		}
	}
	if len(perBit) < 3 {
		return period
	}
	return int(dsp.Median(perBit))
}

// clipToActive trims detected starts to the stretch of the acquisition
// trace that actually contains transmission activity. '1' bits light the
// trace up at least every few periods, so the active region is bounded
// by the first and last samples whose level clearly exceeds the idle
// floor; edges outside it come from unrelated system activity.
func clipToActive(starts []int, y []float64, period int) []int {
	if len(starts) == 0 || len(y) == 0 {
		return nil
	}
	// Sustained activity: a transmission keeps the 2-period windowed
	// mean high (a '1' bit is active half its period), while isolated
	// interrupt bursts in the surrounding silence do not.
	smooth := dsp.MovingAverage(y, 2*period)
	lo := dsp.Quantile(smooth, 0.05)
	hi := dsp.Quantile(smooth, 0.95)
	thr := lo + 0.3*(hi-lo)
	first, last := -1, -1
	for i, v := range smooth {
		if v > thr {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return nil
	}
	first -= 2 * period
	last += period
	var out []int
	for _, s := range starts {
		if s >= first && s <= last {
			out = append(out, s)
		}
	}
	return out
}

// fillGaps inserts synthetic starts wherever consecutive detected starts
// are separated by a near-multiple of the signaling period — the
// paper's recovery for bit starts whose edges were too weak or were
// suppressed by other system activity. Single-period decisions use the
// global period; multi-period subdivision uses the zero-bit period (see
// zeroPeriod). A gap beyond maxFillGap periods truncates the stream.
func fillGaps(starts []int, period, zPeriod int) (filled []int, inserted int) {
	if len(starts) == 0 {
		return nil, 0
	}
	if zPeriod <= 0 {
		zPeriod = period
	}
	filled = append(filled, starts[0])
	for i := 1; i < len(starts); i++ {
		gap := starts[i] - starts[i-1]
		k := int(math.Round(float64(gap) / float64(period)))
		if k >= 2 {
			k = int(math.Round(float64(gap) / float64(zPeriod)))
			if k < 2 {
				k = 2
			}
		}
		if k > maxFillGap {
			return filled, inserted
		}
		for j := 1; j < k; j++ {
			filled = append(filled, starts[i-1]+j*gap/k)
			inserted++
		}
		filled = append(filled, starts[i])
	}
	return filled, inserted
}

// resyncDivergence is the relative gate for per-batch period re-lock:
// a window's local estimate must differ from the global period by more
// than this fraction before it replaces it. The gate is what keeps the
// Resync path bit-identical to the plain path on a clean capture —
// healthy windows never diverge this far — while a clock that drifted
// tens of ppm over a long capture does.
const resyncDivergence = 0.02

// fillGapsResync is fillGaps with §IV-B2 batch processing applied to
// the period itself: estimatePeriod is re-run on every batchBits-wide
// window of inter-start distances, and a window whose local period
// diverges from the global one re-locks gap filling onto its own
// estimate. Per-window periods and grid-fit confidences are recorded
// in q.
func fillGapsResync(starts []int, period, zPeriod, minPeriod, batchBits int, dt float64, q *Quality) (filled []int, inserted int) {
	if len(starts) == 0 {
		return nil, 0
	}
	if zPeriod <= 0 {
		zPeriod = period
	}
	filled = append(filled, starts[0])
	nDist := len(starts) - 1
	for lo := 0; lo < nDist; lo += batchBits {
		hi := lo + batchBits
		if hi > nDist {
			hi = nDist
		}
		local := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			local = append(local, float64(starts[i+1]-starts[i])*dt)
		}
		used := period
		if p := estimatePeriod(local, dt, minPeriod); math.Abs(float64(p-period))/float64(period) > resyncDivergence {
			used = p
			q.Resyncs++
		}
		// The zero-bit period scales with the window's period: both
		// walk together under clock drift.
		zUsed := int(math.Round(float64(zPeriod) * float64(used) / float64(period)))
		if zUsed <= 0 {
			zUsed = used
		}
		fit := 0
		for _, g := range local {
			gs := g / dt
			if k := math.Round(gs / float64(used)); k >= 1 && math.Abs(gs-k*float64(used))/float64(used) < 0.1 {
				fit++
			}
		}
		q.BatchPeriods = append(q.BatchPeriods, float64(used)*dt)
		q.BatchConfidence = append(q.BatchConfidence, float64(fit)/float64(len(local)))

		for i := lo; i < hi; i++ {
			gap := starts[i+1] - starts[i]
			k := int(math.Round(float64(gap) / float64(used)))
			if k >= 2 {
				k = int(math.Round(float64(gap) / float64(zUsed)))
				if k < 2 {
					k = 2
				}
			}
			if k > maxFillGap {
				return filled, inserted
			}
			for j := 1; j < k; j++ {
				filled = append(filled, starts[i]+j*gap/k)
				inserted++
			}
			filled = append(filled, starts[i+1])
		}
	}
	return filled, inserted
}

func evenAtLeast(n int) int {
	if n < 2 {
		return 2
	}
	if n%2 != 0 {
		n++
	}
	return n
}

// FindPreamble locates the best match of the expected preamble in the
// decoded bit stream by minimum Hamming distance, tolerating up to
// maxErrors bit flips. It returns the index just past the preamble and
// whether a match was found.
func FindPreamble(bits, preamble []byte, maxErrors int) (payloadStart int, ok bool) {
	if len(preamble) == 0 || len(bits) < len(preamble) {
		return 0, false
	}
	bestIdx, bestDist := -1, maxErrors+1
	for i := 0; i+len(preamble) <= len(bits); i++ {
		dist := 0
		for j := range preamble {
			if bits[i+j] != preamble[j] {
				dist++
				if dist > maxErrors {
					break
				}
			}
		}
		if dist < bestDist {
			bestDist, bestIdx = dist, i
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	return bestIdx + len(preamble), true
}

// RecoverPayload synchronizes on the preamble and decodes the payload
// with the frame's error-control code. ok is false when the preamble
// cannot be located. For interleaved frames, prefer RecoverPayloadN.
func (d *Demod) RecoverPayload(cfg TXConfig) (payload []byte, corrections int, ok bool) {
	start := 0
	if len(cfg.Preamble) > 0 {
		var found bool
		start, found = FindPreamble(d.Bits, cfg.Preamble, len(cfg.Preamble)/4)
		if !found {
			return nil, 0, false
		}
	}
	payload, corrections = DecodePayload(d.Bits[start:], cfg)
	return payload, corrections, true
}

// RecoverPayloadN is RecoverPayload for a payload of known size (bits):
// required when interleaving is enabled, and more precise in general
// because trailing postamble/stray bits are excluded before decoding.
func (d *Demod) RecoverPayloadN(cfg TXConfig, payloadBits int) (payload []byte, corrections int, ok bool) {
	start := 0
	if len(cfg.Preamble) > 0 {
		var found bool
		start, found = FindPreamble(d.Bits, cfg.Preamble, len(cfg.Preamble)/4)
		if !found {
			return nil, 0, false
		}
	}
	payload, corrections = DecodePayloadN(d.Bits[start:], cfg, payloadBits)
	return payload, corrections, true
}

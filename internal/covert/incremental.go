package covert

import (
	"fmt"
	"slices"

	"pmuleak/internal/ckpt"
	"pmuleak/internal/dsp"
	"pmuleak/internal/telemetry"
)

var (
	rxSamples  = telemetry.NewCounter("stream.covert.samples")
	rxSegments = telemetry.NewCounter("stream.covert.welch_segments")
	rxTracks   = telemetry.NewCounter("stream.covert.tracker_updates")
)

// acquireBlock is how many samples the resonator bank tracks per pass:
// the per-component magnitude scratch is this long, which bounds the
// receiver's working memory whatever the chunk size.
const acquireBlock = 4096

// levelTrace is one carrier-retry widen level's decimated acquisition
// trace: the first nOff resonators' summed magnitudes, decimated by the
// shared factor. sum/count carry the current partial decimation block
// across chunk boundaries.
type levelTrace struct {
	nOff  int
	sum   float64
	count int
	y     []float64
}

// Receiver is the §IV-B covert receiver: push IQ chunks of any size as
// they arrive, then Finalize to obtain the Demod. The Demod depends only
// on the concatenation of the pushed chunks, never on where they were
// split, and Demodulate is exactly one Push of the whole capture.
//
// The front half runs incrementally. Welch PSD segments accumulate as
// each FFTSize window fills, through the DSP engine at cfg.Parallelism;
// only the segments straddling a chunk seam go through the carried
// tail. The Eq. (1) resonator bank carries its complex state across
// chunks and emits one decimated trace per carrier-retry widen level
// (each level's offset set is a prefix of the widest, so one bank
// serves all of them via prefix sums). The back half — carrier gate,
// edge detection, period estimation, gap filling, thresholding — needs
// global views, but only of compact intermediates: the FFTSize-bin PSD
// and the decimated traces. Raw IQ is never retained, so a receiver's
// state is O(FFTSize + Samples/DecimateFactor), not 16·Samples bytes.
type Receiver struct {
	cfg          RXConfig
	sampleRate   float64
	centerFreqHz float64
	eng          dsp.Engine

	// Welch accumulation.
	window   []float64
	tail     []complex128 // samples from the next segment start on; cap 2·FFTSize, so seam segments complete in place
	psdSum   []float64
	segments int

	// Eq. (1) acquisition.
	bank   *dsp.Resonators
	mag    [][]float64 // per-component magnitudes of one block
	sum    []float64   // their per-sample prefix sum
	levels []levelTrace
	fixed  bool // offsets came from a blind pre-pass: one level

	dt          float64
	trackStride int // decimated samples per §IV-B2 tracking window

	total     int
	finalized bool
}

// NewReceiver returns a receiver with empty state. The Eq. (1) offsets
// come from one of two places: offsets, when non-empty, is the set a
// blind pre-pass chose (Demodulate's Welch carrier search; a Demod's
// Offsets field carries it), tracked whatever retry level the final
// carrier search settles on; otherwise the offsets are the in-band
// harmonics of cfg.ExpectedF0, one prefix per retry level. A config
// with neither is an error.
func NewReceiver(cfg RXConfig, sampleRate, centerFreqHz float64, offsets []float64) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("covert: SampleRate must be positive")
	}
	if cfg.FFTSize < 2 {
		return nil, fmt.Errorf("covert: FFTSize must be >= 2")
	}
	decay := acquisitionDecay(cfg, sampleRate)
	if decay <= 0 || decay >= 1 {
		return nil, fmt.Errorf("covert: tracker time constant yields resonator decay %v outside (0,1)", decay)
	}
	r := &Receiver{
		cfg:          cfg,
		sampleRate:   sampleRate,
		centerFreqHz: centerFreqHz,
		eng:          dsp.NewEngine(cfg.Parallelism),
		window:       dsp.Hann(cfg.FFTSize),
		tail:         make([]complex128, 0, 2*cfg.FFTSize),
		psdSum:       make([]float64, cfg.FFTSize),
		dt:           float64(cfg.DecimateFactor) / sampleRate,
	}
	if len(offsets) > 0 {
		r.fixed = true
		r.levels = []levelTrace{{nOff: len(offsets)}}
	} else {
		// Every narrower level is a prefix of the widest (hintedOffsets
		// appends in-band harmonics in ascending k order at every widen
		// level), so the bank's prefix sums give each level's trace.
		offsets = hintedOffsets(cfg, sampleRate, centerFreqHz, cfg.NumHarmonics+cfg.CarrierRetries)
		if len(offsets) == 0 {
			return nil, fmt.Errorf("covert: receiver needs an ExpectedF0 hint with in-band harmonics or the offsets of a blind pre-pass")
		}
		r.levels = make([]levelTrace, cfg.CarrierRetries+1)
		for l := range r.levels {
			r.levels[l].nOff = len(hintedOffsets(cfg, sampleRate, centerFreqHz, cfg.NumHarmonics+l))
		}
	}
	norm := make([]float64, len(offsets))
	r.mag = make([][]float64, len(offsets))
	for i, f := range offsets {
		norm[i] = f / sampleRate
		r.mag[i] = make([]float64, acquireBlock)
	}
	r.bank = dsp.NewResonators(norm, decay)
	r.sum = make([]float64, acquireBlock)
	// One §IV-B2 batch of bits per tracking window.
	r.trackStride = cfg.BatchBits * minPeriodSamples(cfg, r.dt)
	return r, nil
}

// Push consumes one chunk of IQ samples. Chunks may have any size; the
// concatenation of all pushed chunks defines the capture. Not safe for
// concurrent use (the daemon serializes per-stream pushes).
func (r *Receiver) Push(chunk []complex128) {
	if r.finalized {
		panic("covert: Push after Finalize")
	}
	r.total += len(chunk)
	rxSamples.Add(uint64(len(chunk)))
	r.welch(chunk)
	for i := range r.levels {
		// Room for every mean this chunk completes plus Finalize's
		// partial block, so one whole capture is one allocation.
		lv := &r.levels[i]
		lv.y = slices.Grow(lv.y, (lv.count+len(chunk))/r.cfg.DecimateFactor+1)
	}
	windows := len(r.levels[0].y) / r.trackStride
	for len(chunk) > 0 {
		n := min(len(chunk), acquireBlock)
		r.acquire(chunk[:n])
		chunk = chunk[n:]
	}
	rxTracks.Add(uint64(len(r.levels[0].y)/r.trackStride - windows))
}

// welch adds every Welch segment the chunk completes to the PSD sum, in
// stream order: first the segments that start in the carried tail and
// straddle the seam, then the chunk's own complete segments in one
// engine call. What is left after the last complete segment's start
// becomes the new tail.
func (r *Receiver) welch(chunk []complex128) {
	hop := r.cfg.FFTSize / 2
	if len(r.tail) > 0 {
		last := (len(r.tail) - 1) / hop * hop // last segment start in the tail
		need := last + r.cfg.FFTSize - len(r.tail)
		if len(chunk) < need {
			buf := append(r.tail, chunk...)
			done := r.addSegments(buf) * hop
			r.tail = buf[:copy(buf, buf[done:])]
			return
		}
		r.addSegments(append(r.tail, chunk[:need]...))
		chunk = chunk[last+hop-len(r.tail):]
	}
	done := r.addSegments(chunk) * hop
	r.tail = append(r.tail[:0], chunk[done:]...)
}

func (r *Receiver) addSegments(x []complex128) int {
	n := r.eng.WelchAccumulate(r.psdSum, x, r.window)
	r.segments += n
	rxSegments.Add(uint64(n))
	return n
}

// acquire runs one block through the resonator bank and folds the
// per-sample prefix sums over its components into every level's
// running decimation — the identical floating-point order as summing
// the bank sample by sample.
func (r *Receiver) acquire(x []complex128) {
	r.bank.Track(x, r.mag)
	sum := r.sum[:len(x)]
	li := 0
	for i, m := range r.mag {
		if i == 0 {
			copy(sum, m)
		} else {
			for n, v := range m[:len(x)] {
				sum[n] += v
			}
		}
		for ; li < len(r.levels) && r.levels[li].nOff == i+1; li++ {
			r.levels[li].decimate(sum, r.bank.Gain, r.cfg.DecimateFactor)
		}
	}
}

// decimate appends the gain-scaled samples to the level's trace, one
// mean per factor samples, carrying a partial block across calls.
func (lv *levelTrace) decimate(sum []float64, gain float64, factor int) {
	for _, v := range sum {
		lv.sum += v * gain
		lv.count++
		if lv.count == factor {
			lv.y = append(lv.y, lv.sum/float64(factor))
			lv.sum, lv.count = 0, 0
		}
	}
}

// psd finalizes the Welch average over the segments seen so far.
func (r *Receiver) psd() []float64 {
	psd := make([]float64, len(r.psdSum))
	if r.segments == 0 {
		return psd
	}
	for i, v := range r.psdSum {
		psd[i] = v / float64(r.segments)
	}
	return psd
}

// StateBytes estimates the receiver's retained memory. It grows with
// Samples/DecimateFactor (the decimated traces), never with the raw
// sample count.
func (r *Receiver) StateBytes() int {
	n := cap(r.tail)*16 + cap(r.psdSum)*8 + cap(r.window)*8 + len(r.bank.Z)*32
	for _, m := range r.mag {
		n += cap(m) * 8
	}
	n += cap(r.sum) * 8
	for _, lv := range r.levels {
		n += cap(lv.y) * 8
	}
	return n
}

// Consumed returns the number of IQ samples pushed so far.
func (r *Receiver) Consumed() int { return r.total }

// Finalize closes the stream and runs the back half over the
// accumulated intermediates. Further pushes panic.
func (r *Receiver) Finalize() *Demod {
	r.finalized = true
	d := &Demod{}
	if r.total < 4*r.cfg.FFTSize {
		return d
	}
	car := searchCarrier(r.psd(), r.sampleRate, r.centerFreqHz, r.cfg)
	d.Offsets = car.offsets
	d.Quality.CarrierZ = car.z
	d.Quality.Retries = car.retries
	if !car.found {
		return d
	}
	d.CarrierFound = true
	lv := &r.levels[0]
	if !r.fixed {
		lv = &r.levels[car.retries]
	}
	if lv.count > 0 {
		// Final partial decimation block: averaged over its actual
		// element count, as dsp.DecimateMean does.
		lv.y = append(lv.y, lv.sum/float64(lv.count))
		lv.sum, lv.count = 0, 0
	}
	d.Y = lv.y
	d.DT = r.dt
	return demodulateTrace(d, r.cfg)
}

// tracker evaluates the §IV-B2 running period tracker the v1 checkpoint
// format records: over the complete trackStride windows of the level-0
// trace, the cursor of the next window, the period and confidence of
// the latest window with at least 3 edges, and the last window's edge
// count. It is a pure function of the trace, so it is computed when a
// checkpoint is written rather than on every push.
func (r *Receiver) tracker() (next int, periodS, confidence float64, edges int) {
	y := r.levels[0].y
	k := len(y) / r.trackStride
	next = (k + 1) * r.trackStride
	for j := k - 1; j >= 0; j-- {
		p, c, e := trackWindow(y[j*r.trackStride:(j+1)*r.trackStride], r.dt, r.cfg)
		if j == k-1 {
			edges = e
		}
		if e >= 3 {
			return next, p, c, edges
		}
	}
	return next, 0, 0, edges
}

// EncodeState serializes the receiver's carried state as an EMCK v1
// checkpoint: the Welch tail, the PSD accumulator, the resonator bank's
// complex state, every widen level's decimation carry and trace, and
// the running tracker. Everything else (windows, rotation tables) is
// re-derived by NewReceiver from the config.
func (r *Receiver) EncodeState() []byte {
	var e ckpt.Enc
	e.I64(r.total)
	e.I64(r.segments)
	e.C128s(r.tail)
	e.F64s(r.psdSum)
	e.C128s(r.bank.Z)
	e.U64(uint64(len(r.levels)))
	for i := range r.levels {
		lv := &r.levels[i]
		e.F64(lv.sum)
		e.I64(lv.count)
		e.F64s(lv.y)
	}
	next, periodS, confidence, edges := r.tracker()
	e.I64(next)
	e.F64(periodS)
	e.F64(confidence)
	e.I64(edges)
	return ckpt.Seal(ckpt.KindCovert, e.B)
}

// RestoreState loads a checkpoint produced by EncodeState into a fresh
// receiver constructed with the same config, tuning and offsets.
// Structural invariants are checked against the constructed geometry,
// so a checkpoint from a different config errors instead of corrupting
// the stream; on any error the receiver is left untouched.
func (r *Receiver) RestoreState(data []byte) error {
	if r.finalized {
		return fmt.Errorf("covert: RestoreState after Finalize")
	}
	if r.total != 0 || r.segments != 0 {
		return fmt.Errorf("covert: RestoreState requires a freshly constructed receiver (this one has consumed %d samples)", r.total)
	}
	d, err := ckpt.Open(ckpt.KindCovert, data)
	if err != nil {
		return err
	}
	total := d.I64()
	segments := d.I64()
	tail := d.C128s()
	psdSum := d.F64s()
	z := d.C128s()
	nLevels := d.SliceLen(8 + 8 + 8) // lower bound: sum+count+len per level
	levels := make([]levelTrace, 0, nLevels)
	for i := 0; i < nLevels && d.Err == nil; i++ {
		var lv levelTrace
		lv.sum = d.F64()
		lv.count = d.I64()
		lv.y = d.F64s()
		levels = append(levels, lv)
	}
	next := d.I64()
	d.F64() // tracker period and confidence: re-derived from the trace
	d.F64()
	edges := d.I64()
	if err := d.Finish(); err != nil {
		return err
	}

	switch {
	case total < 0 || segments < 0 || edges < 0:
		return fmt.Errorf("covert: checkpoint has negative counters (total %d, segments %d, edges %d)", total, segments, edges)
	case len(tail) >= r.cfg.FFTSize:
		return fmt.Errorf("covert: checkpoint pending segment holds %d samples, receiver FFT size is %d", len(tail), r.cfg.FFTSize)
	case len(psdSum) != r.cfg.FFTSize:
		return fmt.Errorf("covert: checkpoint PSD has %d bins, receiver FFT size is %d", len(psdSum), r.cfg.FFTSize)
	case len(z) != len(r.bank.Z):
		return fmt.Errorf("covert: checkpoint resonator bank has %d states, receiver has %d offsets", len(z), len(r.bank.Z))
	case len(levels) != len(r.levels):
		return fmt.Errorf("covert: checkpoint has %d widen levels, receiver has %d", len(levels), len(r.levels))
	case next < r.trackStride || next%r.trackStride != 0:
		return fmt.Errorf("covert: checkpoint tracker cursor %d is not a positive multiple of the stride %d", next, r.trackStride)
	}
	for i, lv := range levels {
		if lv.count < 0 || lv.count >= r.cfg.DecimateFactor {
			return fmt.Errorf("covert: checkpoint level %d decimation carry %d outside [0,%d)", i, lv.count, r.cfg.DecimateFactor)
		}
	}

	r.total = total
	r.segments = segments
	r.tail = append(r.tail[:0], tail...)
	copy(r.psdSum, psdSum)
	copy(r.bank.Z, z)
	for i := range r.levels {
		levels[i].nOff = r.levels[i].nOff
	}
	r.levels = levels
	return nil
}

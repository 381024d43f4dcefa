package keylog

import (
	"fmt"
	"slices"

	"pmuleak/internal/ckpt"
	"pmuleak/internal/dsp"
	"pmuleak/internal/telemetry"
)

var (
	detSamples = telemetry.NewCounter("stream.keylog.samples")
	detFrames  = telemetry.NewCounter("stream.keylog.frames")
	detBlocks  = telemetry.NewCounter("stream.keylog.blocks")
)

// Detector is the §V-C keystroke detector: push IQ chunks of any size as
// they arrive, then Finalize for the Detection. The Detection depends
// only on the concatenation of the pushed chunks, and Detect is exactly
// one Push of the whole capture.
//
// The STFT frames are non-overlapping, so at most one partial frame
// carries across a chunk boundary; whole frames go through the DSP
// engine at cfg.Parallelism one tracking block at a time. The band
// tracker is block-local by construction: as soon as one TrackBlock of
// frames accumulates, the spike is re-acquired and the block's
// magnitude rows are reduced to one band sample per frame, after which
// the rows are reused. Only the band trace (one float per frame)
// accumulates for the global tail — normalization, threshold, interval
// passes — so retained state is O(TrackBlock·SampleRate +
// Samples/fftSize).
//
// Two configs need the whole capture before the first block can be
// scanned, and for them the detector holds every row until Finalize:
// TrackBlock == 0 (one block spanning the capture) and ExpectedF0 == 0
// (the initial band is the strongest non-DC bin of the whole capture's
// mean spectrum).
type Detector struct {
	cfg        DetectorConfig
	eng        dsp.Engine
	degenerate bool // window rounds to zero samples at this rate

	fftSize     int
	frameDT     float64
	blockFrames int // 0: a single block spanning the capture
	searchBins  int
	buffering   bool // rows are held until Finalize

	window []float64
	frame  []complex128 // partial frame carried across chunks
	mag    []float64    // pending rows, fftSize each
	band   []float64
	center int
	frames int
	blocks int

	total     int
	finalized bool
}

// NewDetector validates the config and returns a detector with empty
// state. A window that rounds to zero samples at this rate cannot be
// framed; such a detector accepts samples and detects nothing.
func NewDetector(cfg DetectorConfig, sampleRate, centerFreqHz float64) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg, eng: dsp.NewEngine(cfg.Parallelism)}
	windowSamples := int(cfg.Window.Seconds() * sampleRate)
	if windowSamples < 1 {
		d.degenerate = true
		return d, nil
	}
	d.fftSize = dsp.NextPowerOfTwo(windowSamples)
	d.frameDT = float64(d.fftSize) / sampleRate
	if cfg.TrackBlock > 0 {
		d.blockFrames = max(1, int(cfg.TrackBlock.Seconds()/d.frameDT))
	}
	d.searchBins = driftSearchBins(d.fftSize, sampleRate)
	d.buffering = d.blockFrames == 0 || cfg.ExpectedF0 <= 0
	d.window = dsp.Hann(d.fftSize)
	d.frame = make([]complex128, 0, d.fftSize)
	if !d.buffering {
		d.mag = make([]float64, 0, d.blockFrames*d.fftSize)
	}
	if cfg.ExpectedF0 > 0 {
		d.center = dsp.FrequencyBin(cfg.ExpectedF0-centerFreqHz, d.fftSize, sampleRate)
	}
	return d, nil
}

// Push consumes one chunk of IQ samples. Not safe for concurrent use.
func (d *Detector) Push(chunk []complex128) {
	if d.finalized {
		panic("keylog: Push after Finalize")
	}
	d.total += len(chunk)
	detSamples.Add(uint64(len(chunk)))
	if d.degenerate {
		return
	}
	if len(d.frame) > 0 {
		take := min(d.fftSize-len(d.frame), len(chunk))
		d.frame = append(d.frame, chunk[:take]...)
		chunk = chunk[take:]
		if len(d.frame) < d.fftSize {
			return
		}
		d.addFrames(d.frame, 1)
		d.frame = d.frame[:0]
	}
	n := len(chunk) / d.fftSize
	d.addFrames(chunk, n)
	d.frame = append(d.frame, chunk[n*d.fftSize:]...)
}

// addFrames transforms the n whole frames at the head of x into
// magnitude rows, at most one tracking block per engine call, and scans
// every block that fills.
func (d *Detector) addFrames(x []complex128, n int) {
	for n > 0 {
		rows := len(d.mag) / d.fftSize
		k := n
		if !d.buffering {
			k = min(n, d.blockFrames-rows)
		}
		need := (rows + k) * d.fftSize
		d.mag = slices.Grow(d.mag, need-len(d.mag))[:need]
		d.eng.STFTInto(d.mag[rows*d.fftSize:], x, d.fftSize, d.window)
		x = x[k*d.fftSize:]
		n -= k
		d.frames += k
		detFrames.Add(uint64(k))
		if !d.buffering && rows+k == d.blockFrames {
			d.scan(d.mag)
			d.mag = d.mag[:0]
		}
	}
}

// scan runs the per-block spike re-acquisition over one block of rows
// and appends the block's band-energy samples to the trace.
func (d *Detector) scan(mag []float64) {
	rows := len(mag) / d.fftSize
	if rows == 0 {
		return
	}
	lo := len(d.band)
	d.band = append(d.band, make([]float64, rows)...)
	d.center = scanBlock(mag, d.band[lo:], d.center, d.fftSize, d.searchBins, d.cfg.BandBins)
	d.blocks++
	detBlocks.Inc()
}

// StateBytes estimates the detector's retained memory: the pending rows
// (bounded by TrackBlock unless the detector buffers) plus the band
// trace (one float per frame).
func (d *Detector) StateBytes() int {
	return cap(d.frame)*16 + cap(d.mag)*8 + cap(d.window)*8 + cap(d.band)*8
}

// Consumed returns the number of IQ samples pushed so far.
func (d *Detector) Consumed() int { return d.total }

// Finalize closes the stream, scans the final (possibly partial) block,
// and runs the global tail. Trailing samples shorter than a frame are
// dropped. Further pushes panic.
func (d *Detector) Finalize() *Detection {
	d.finalized = true
	if d.degenerate || d.total < d.fftSize {
		// A capture shorter than one STFT frame detects nothing.
		return &Detection{}
	}
	if !d.buffering {
		d.scan(d.mag)
		return finishDetection(d.band, d.frameDT, d.blockFrames, d.cfg)
	}
	rows := len(d.mag) / d.fftSize
	if d.cfg.ExpectedF0 <= 0 {
		// Blind: start from the strongest non-DC bin of the whole
		// capture's mean spectrum.
		mean := make([]float64, d.fftSize)
		for r := 0; r < rows; r++ {
			for i, v := range d.mag[r*d.fftSize : (r+1)*d.fftSize] {
				mean[i] += v
			}
		}
		mean[0] = 0
		_, d.center = dsp.Max(mean)
	}
	blockFrames := d.blockFrames
	if blockFrames == 0 {
		blockFrames = rows
	}
	for lo := 0; lo < rows; lo += blockFrames {
		hi := min(lo+blockFrames, rows)
		d.scan(d.mag[lo*d.fftSize : hi*d.fftSize])
	}
	return finishDetection(d.band, d.frameDT, blockFrames, d.cfg)
}

// EncodeState serializes the detector's carried state as an EMCK v1
// checkpoint: the partial STFT frame, the pending magnitude rows, the
// accumulated band trace, and the spike tracker's center bin.
func (d *Detector) EncodeState() []byte {
	var e ckpt.Enc
	if d.degenerate {
		e.U64(1)
		e.I64(d.total)
		return ckpt.Seal(ckpt.KindKeylog, e.B)
	}
	e.U64(0)
	e.I64(d.total)
	e.I64(d.frames)
	e.I64(d.blocks)
	e.I64(d.center)
	e.C128s(d.frame)
	e.U64(uint64(len(d.mag) / d.fftSize))
	for _, v := range d.mag {
		e.F64(v)
	}
	e.F64s(d.band)
	return ckpt.Seal(ckpt.KindKeylog, e.B)
}

// RestoreState loads a checkpoint produced by EncodeState into a fresh
// detector constructed with the same config and tuning; on any error
// the detector is left untouched.
func (d *Detector) RestoreState(data []byte) error {
	if d.finalized {
		return fmt.Errorf("keylog: RestoreState after Finalize")
	}
	if d.total != 0 {
		return fmt.Errorf("keylog: RestoreState requires a freshly constructed detector (this one has consumed %d samples)", d.total)
	}
	dec, err := ckpt.Open(ckpt.KindKeylog, data)
	if err != nil {
		return err
	}
	degenerate := dec.U64()
	if dec.Err == nil && degenerate > 1 {
		return fmt.Errorf("keylog: checkpoint degenerate flag %d is not 0 or 1", degenerate)
	}
	if degenerate == 1 {
		total := dec.I64()
		if err := dec.Finish(); err != nil {
			return err
		}
		if !d.degenerate {
			return fmt.Errorf("keylog: degenerate checkpoint for a detector with resolvable geometry")
		}
		if total < 0 {
			return fmt.Errorf("keylog: checkpoint has negative sample count %d", total)
		}
		d.total = total
		return nil
	}
	if d.degenerate {
		return fmt.Errorf("keylog: non-degenerate checkpoint for a detector whose geometry does not resolve")
	}
	total := dec.I64()
	frames := dec.I64()
	blocks := dec.I64()
	center := dec.I64()
	frame := dec.C128s()
	nRows := dec.SliceLen(8 * d.fftSize)
	if dec.Err == nil && !d.buffering && nRows >= d.blockFrames {
		return fmt.Errorf("keylog: checkpoint holds %d block rows, a full block is %d (it would have been scanned)", nRows, d.blockFrames)
	}
	mag := make([]float64, 0, nRows*d.fftSize)
	for i := 0; i < nRows*d.fftSize && dec.Err == nil; i++ {
		mag = append(mag, dec.F64())
	}
	band := dec.F64s()
	if err := dec.Finish(); err != nil {
		return err
	}

	switch {
	case total < 0 || frames < 0 || blocks < 0:
		return fmt.Errorf("keylog: checkpoint has negative counters (total %d, frames %d, blocks %d)", total, frames, blocks)
	case len(frame) >= d.fftSize:
		return fmt.Errorf("keylog: checkpoint partial frame holds %d samples, frame size is %d", len(frame), d.fftSize)
	case center < 0 || center >= d.fftSize:
		return fmt.Errorf("keylog: checkpoint center bin %d outside [0,%d)", center, d.fftSize)
	}

	d.total = total
	d.frames = frames
	d.blocks = blocks
	d.center = center
	d.frame = append(d.frame[:0], frame...)
	d.mag = append(d.mag[:0], mag...)
	d.band = band
	return nil
}

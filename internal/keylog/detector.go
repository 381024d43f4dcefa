package keylog

import (
	"fmt"
	"math"

	"pmuleak/internal/dsp"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
)

// DetectorConfig parameterizes the keystroke detector of §V-C.
type DetectorConfig struct {
	// Window is the STFT segment length (the paper: 5 ms,
	// non-overlapping).
	Window sim.Time
	// ExpectedF0 is the VRM frequency hint; zero means the band is
	// found by peak detection ("can also be easily found using
	// standard peak detection techniques").
	ExpectedF0 float64
	// BandBins is how many bins around the spike are summed.
	BandBins int
	// MinKeystroke filters out bursts shorter than this (30 ms in the
	// paper: "a valid keystroke should take longer").
	MinKeystroke sim.Time
	// MergeGap joins activity separated by less than this, bridging
	// brief dips inside one keystroke's handling.
	MergeGap sim.Time
	// MaxKeystroke caps a detection's length; longer activity is
	// bulk processor work, not typing.
	MaxKeystroke sim.Time
	// TrackBlock re-acquires the spike frequency once per block of
	// this duration, following the VRM clock's slow thermal drift over
	// multi-minute captures. Zero uses a single static band.
	TrackBlock sim.Time
	// GapAware re-normalizes the band trace per TrackBlock before
	// thresholding. A mid-capture AGC gain step (or the level
	// discontinuity left where a USB overrun dropped samples) shifts
	// whole stretches of the trace up or down, pulling the single
	// global bimodal threshold out of the valley; block-local gain
	// normalization makes the threshold see the same idle/burst
	// contrast in every block. Off — the default — keeps the global
	// single-pass behavior.
	GapAware bool
	// Parallelism is the DSP engine's worker count: 0 picks the process
	// default (normally all CPUs), 1 forces the exact legacy serial
	// path, n > 1 uses n workers. The engine's parallel STFT is
	// bit-identical to the serial one, so this knob never changes which
	// keystrokes are detected — only the wall-clock time.
	Parallelism int
}

// DefaultDetectorConfig mirrors the paper's settings.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		Window:       2500 * sim.Microsecond,
		BandBins:     3,
		MinKeystroke: 30 * sim.Millisecond,
		MergeGap:     15 * sim.Millisecond,
		MaxKeystroke: 400 * sim.Millisecond,
		TrackBlock:   2 * sim.Second,
	}
}

// Validate reports configuration errors.
func (c DetectorConfig) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("keylog: Window must be positive")
	}
	if c.BandBins < 1 {
		return fmt.Errorf("keylog: BandBins must be >= 1")
	}
	if c.MinKeystroke <= 0 || c.MergeGap < 0 {
		return fmt.Errorf("keylog: bad duration filters")
	}
	if c.MaxKeystroke <= c.MinKeystroke {
		return fmt.Errorf("keylog: MaxKeystroke must exceed MinKeystroke")
	}
	if c.TrackBlock < 0 {
		return fmt.Errorf("keylog: negative TrackBlock")
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("keylog: negative Parallelism")
	}
	return nil
}

// Keystroke is one detected key event, in capture-relative seconds.
type Keystroke struct {
	Start, End float64
}

// Duration returns the keystroke's detected length in seconds.
func (k Keystroke) Duration() float64 { return k.End - k.Start }

// Mid returns the keystroke's temporal midpoint.
func (k Keystroke) Mid() float64 { return (k.Start + k.End) / 2 }

// Detection is the detector's full output, retaining the intermediate
// band-energy trace for the Fig. 11-style spectrogram rendering.
type Detection struct {
	Keystrokes []Keystroke
	// Band is the per-frame normalized spectral sample sequence (SS in
	// the paper's terminology).
	Band []float64
	// FrameDT is seconds per Band frame.
	FrameDT float64
	// Threshold is the activity decision level applied to Band.
	Threshold float64
}

// driftSearchBins is the half-width, in bins, of the per-block spike
// re-acquisition search: ±25 kHz — the drift between blocks is small,
// but the initial hint may be a few kHz off — and never less than ±2.
func driftSearchBins(fftSize int, sampleRate float64) int {
	searchBins := int(25e3 * float64(fftSize) / sampleRate)
	if searchBins < 2 {
		searchBins = 2
	}
	return searchBins
}

// scanBlock runs one block of the §V-C band tracker: re-acquire the
// spike bin by searching ±searchBins around center over the block's
// mean spectrum (skipping the receiver's DC bin), then write each
// frame's BandBins-wide band energy into out. mag holds the block's
// STFT magnitude rows back to back, fftSize each, and out has one slot
// per row. Returns the re-acquired center for the next block.
func scanBlock(mag, out []float64, center, fftSize, searchBins, bandBins int) int {
	// Mean spectrum of the block, searched near the last center.
	best, bestVal := center, -1.0
	for d := -searchBins; d <= searchBins; d++ {
		b := (center + d + fftSize) % fftSize
		if b == 0 {
			continue // skip the receiver's DC spike
		}
		var sum float64
		for r := b; r < len(mag); r += fftSize {
			sum += mag[r]
		}
		if sum > bestVal {
			best, bestVal = b, sum
		}
	}
	center = best
	bins := make([]int, 0, bandBins)
	for i := -(bandBins - 1) / 2; len(bins) < bandBins; i++ {
		bins = append(bins, (center+i+fftSize)%fftSize)
	}
	for f := range out {
		row := mag[f*fftSize : (f+1)*fftSize]
		var sum float64
		for _, b := range bins {
			sum += row[b]
		}
		out[f] = sum
	}
	return center
}

// finishDetection runs the global tail of the detector over a complete
// band trace: optional per-block gain normalization (GapAware), global
// normalization, the bimodal threshold, and the merge/duration interval
// passes. It takes ownership of band (the returned Detection aliases
// and mutates it). blockFrames is the per-block normalization width for
// GapAware.
func finishDetection(band []float64, frameDT float64, blockFrames int, cfg DetectorConfig) *Detection {
	det := &Detection{Band: band, FrameDT: frameDT}
	if cfg.GapAware {
		normalizeBlocks(det.Band, blockFrames)
	}
	dsp.Normalize(det.Band)

	// Threshold: the trace is near-zero at idle and near-one during a
	// keystroke burst, so the bimodal threshold lands in the valley.
	det.Threshold = dsp.BimodalThreshold(det.Band, 40)

	frames := func(d sim.Time) int {
		// Round up: an interval passes the duration filter only when
		// it covers at least the full requirement.
		n := int(math.Ceil(d.Seconds() / det.FrameDT))
		if n < 1 {
			n = 1
		}
		return n
	}
	iv := dsp.ThresholdCrossings(det.Band, det.Threshold)
	iv = dsp.MergeIntervals(iv, frames(cfg.MergeGap))
	iv = dsp.FilterIntervals(iv, frames(cfg.MinKeystroke))
	maxFrames := frames(cfg.MaxKeystroke)
	for _, v := range iv {
		if v[1]-v[0] > maxFrames {
			continue
		}
		det.Keystrokes = append(det.Keystrokes, Keystroke{
			Start: float64(v[0]) * det.FrameDT,
			End:   float64(v[1]) * det.FrameDT,
		})
	}
	return det
}

// Detect runs the §V-C detector — STFT with non-overlapping ~5 ms
// windows, band selection around the PMU spike, thresholding, a merge
// pass, and the minimum-duration filter — as one Push of the whole
// capture through a Detector.
func Detect(cap *sdr.Capture, cfg DetectorConfig) *Detection {
	d, err := NewDetector(cfg, cap.SampleRate, cap.CenterFreqHz)
	if err != nil {
		panic(err)
	}
	d.Push(cap.IQ)
	return d.Finalize()
}

// normalizeBlocks rescales each blockFrames-wide stretch of the band
// trace by its own robust peak (98th percentile), equalizing the
// idle/burst contrast across AGC gain steps. The high quantile — not
// the max — keeps one saturated frame from crushing its whole block.
func normalizeBlocks(band []float64, blockFrames int) {
	if blockFrames < 1 {
		blockFrames = 1
	}
	for lo := 0; lo < len(band); lo += blockFrames {
		hi := lo + blockFrames
		if hi > len(band) {
			hi = len(band)
		}
		scale := dsp.Quantile(band[lo:hi], 0.98)
		if scale <= 0 {
			continue
		}
		for i := lo; i < hi; i++ {
			band[i] /= scale
		}
	}
}

package stream

import (
	"pmuleak/internal/covert"
	"pmuleak/internal/keylog"
)

// CovertReceiver is the covert receiver a daemon stream drives: the one
// §IV-B receiver, which covert.Demodulate also runs.
type CovertReceiver = covert.Receiver

// KeylogDetector is the keystroke detector a daemon stream drives: the
// one §V-C detector, which keylog.Detect also runs.
type KeylogDetector = keylog.Detector

// NewCovertReceiver returns a covert receiver that tracks the in-band
// harmonics of cfg.ExpectedF0.
func NewCovertReceiver(cfg covert.RXConfig, sampleRate, centerFreqHz float64) (*CovertReceiver, error) {
	return covert.NewReceiver(cfg, sampleRate, centerFreqHz, nil)
}

// NewKeylogDetector returns a keystroke detector with empty state.
func NewKeylogDetector(cfg keylog.DetectorConfig, sampleRate, centerFreqHz float64) (*KeylogDetector, error) {
	return keylog.NewDetector(cfg, sampleRate, centerFreqHz)
}

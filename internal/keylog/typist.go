// Package keylog implements the paper's §V keystroke-logging attack:
// a human typist model whose inter-key timing follows Salthouse's
// empirical findings, the injection of per-keystroke processor activity
// bursts into the target system, the STFT-based keystroke detector
// (5 ms windows, band energy thresholding, 30 ms minimum-duration
// filter), word grouping from inter-keystroke gaps, and the Table IV
// accuracy metrics.
package keylog

import (
	"fmt"
	"math"
	"strings"

	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

// KeyEvent is one keystroke: the paper's (t_p, t_r, k) 3-tuple.
type KeyEvent struct {
	Key     rune
	Press   sim.Time
	Release sim.Time
}

// qwertyPos maps keys to (row, column) positions on a QWERTY layout,
// used for the Salthouse key-distance effect.
var qwertyPos = map[rune][2]float64{
	'q': {0, 0}, 'w': {0, 1}, 'e': {0, 2}, 'r': {0, 3}, 't': {0, 4},
	'y': {0, 5}, 'u': {0, 6}, 'i': {0, 7}, 'o': {0, 8}, 'p': {0, 9},
	'a': {1, 0.3}, 's': {1, 1.3}, 'd': {1, 2.3}, 'f': {1, 3.3}, 'g': {1, 4.3},
	'h': {1, 5.3}, 'j': {1, 6.3}, 'k': {1, 7.3}, 'l': {1, 8.3},
	'z': {2, 0.6}, 'x': {2, 1.6}, 'c': {2, 2.6}, 'v': {2, 3.6}, 'b': {2, 4.6},
	'n': {2, 5.6}, 'm': {2, 6.6},
	' ': {3, 4.5},
}

// KeyDistance returns the Euclidean distance between two keys in key
// widths; unknown keys are treated as adjacent (distance 1).
func KeyDistance(a, b rune) float64 {
	pa, oka := qwertyPos[a]
	pb, okb := qwertyPos[b]
	if !oka || !okb {
		return 1
	}
	dr := pa[0] - pb[0]
	dc := pa[1] - pb[1]
	return math.Sqrt(dr*dr + dc*dc)
}

// frequentDigraphs are the most common English letter pairs; per
// Salthouse finding (ii) they are typed in quicker succession.
var frequentDigraphs = map[string]bool{
	"th": true, "he": true, "in": true, "er": true, "an": true,
	"re": true, "on": true, "at": true, "en": true, "nd": true,
	"ti": true, "es": true, "or": true, "te": true, "of": true,
	"ed": true, "is": true, "it": true, "al": true, "ar": true,
	"st": true, "to": true, "nt": true, "ng": true, "se": true,
	"ha": true, "as": true, "ou": true, "io": true, "le": true,
}

// TypistConfig parameterizes the typing model.
type TypistConfig struct {
	// BaseInterKey is the mean time between consecutive key presses
	// for an average transition.
	BaseInterKey sim.Time
	// DistanceGain implements Salthouse finding (i): keys far apart
	// (different hands) are pressed in QUICKER succession than close
	// keys. Each key-width of distance shortens the interval by this
	// fraction (capped).
	DistanceGain float64
	// DigraphGain implements finding (ii): frequent digraphs are typed
	// faster, by this fraction.
	DigraphGain float64
	// PracticeGain implements finding (iii): each repetition of a
	// digraph within the session shortens it, up to PracticeCap.
	PracticeGain float64
	PracticeCap  float64
	// WordBoundaryFactor lengthens the transitions into and out of a
	// space: the inter-word cognitive pause that word grouping relies
	// on.
	WordBoundaryFactor float64
	// Hold is the mean key hold (press-to-release) time.
	Hold sim.Time
	// JitterFrac is the multiplicative spread on every interval.
	JitterFrac float64
}

// DefaultTypistConfig models a practiced ~60 wpm typist.
func DefaultTypistConfig() TypistConfig {
	return TypistConfig{
		BaseInterKey:       190 * sim.Millisecond,
		DistanceGain:       0.025,
		DigraphGain:        0.20,
		PracticeGain:       0.03,
		PracticeCap:        0.25,
		WordBoundaryFactor: 2.0,
		Hold:               85 * sim.Millisecond,
		JitterFrac:         0.18,
	}
}

// Validate reports configuration errors.
func (c TypistConfig) Validate() error {
	if c.BaseInterKey <= 0 || c.Hold <= 0 {
		return fmt.Errorf("keylog: non-positive timing in typist config")
	}
	if c.JitterFrac < 0 || c.JitterFrac >= 1 {
		return fmt.Errorf("keylog: JitterFrac %v out of [0,1)", c.JitterFrac)
	}
	if c.WordBoundaryFactor < 1 {
		return fmt.Errorf("keylog: WordBoundaryFactor must be >= 1")
	}
	return nil
}

// Type produces the keystroke timeline for text, starting at start.
// Only lowercase letters and spaces advance the model realistically;
// other runes are typed at the base rate.
func Type(text string, start sim.Time, cfg TypistConfig, rng *xrand.Source) []KeyEvent {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	practice := map[string]int{}
	events := make([]KeyEvent, 0, len(text))
	t := start
	var prev rune
	for i, key := range strings.ToLower(text) {
		if i > 0 {
			gap := float64(cfg.BaseInterKey)

			// Salthouse (i): larger key distance -> quicker succession.
			gap *= 1 - min(cfg.DistanceGain*KeyDistance(prev, key), 0.25)

			// Salthouse (ii): frequent digraphs are faster.
			dg := string([]rune{prev, key})
			if frequentDigraphs[dg] {
				gap *= 1 - cfg.DigraphGain
			}

			// Salthouse (iii): practice shortens repeated sequences.
			reps := practice[dg]
			practice[dg] = reps + 1
			gap *= 1 - min(cfg.PracticeGain*float64(reps), cfg.PracticeCap)

			// Inter-word pause around the space bar.
			if key == ' ' || prev == ' ' {
				gap *= cfg.WordBoundaryFactor
			}

			gap = rng.Jitter(gap, cfg.JitterFrac)
			t += sim.Time(gap)
		}
		hold := sim.Time(rng.Jitter(float64(cfg.Hold), cfg.JitterFrac))
		events = append(events, KeyEvent{Key: key, Press: t, Release: t + hold})
		prev = key
	}
	return events
}

// Words splits text the way the scoring code counts ground-truth words.
func Words(text string) []string {
	return strings.Fields(text)
}

// WordLengths returns the character count of each word in text.
func WordLengths(text string) []int {
	words := Words(text)
	out := make([]int, len(words))
	for i, w := range words {
		out[i] = len([]rune(w))
	}
	return out
}

// RandomWords generates n pronounceable pseudo-words (for the paper's
// randomly-generated 1000-word typing test).
func RandomWords(n int, rng *xrand.Source) string {
	const consonants = "bcdfghjklmnpqrstvwz"
	const vowels = "aeiou"
	var sb strings.Builder
	for w := 0; w < n; w++ {
		if w > 0 {
			sb.WriteByte(' ')
		}
		syllables := 1 + rng.Intn(3)
		for s := 0; s < syllables; s++ {
			sb.WriteByte(consonants[rng.Intn(len(consonants))])
			sb.WriteByte(vowels[rng.Intn(len(vowels))])
			if rng.Bool(0.3) {
				sb.WriteByte(consonants[rng.Intn(len(consonants))])
			}
		}
	}
	return sb.String()
}

package core_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/faults"
	"pmuleak/internal/keylog"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/stream"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/receive_digests.txt from the current receivers")

const digestFile = "testdata/receive_digests.txt"

// digestValue feeds v into h field by field: floats as their IEEE bits,
// slices with a nil marker and their length, so any bit of drift in any
// field of a Demod or Detection — including nil against empty, which
// reflect.DeepEqual also tells apart — changes the digest.
func digestValue(h []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return append(h, 0)
		}
		return digestValue(append(h, 1), v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h = append(h, v.Type().Field(i).Name...)
			h = digestValue(h, v.Field(i))
		}
		return h
	case reflect.Slice:
		if v.IsNil() {
			return append(h, 0)
		}
		h = binary.LittleEndian.AppendUint64(append(h, 1), uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h = digestValue(h, v.Index(i))
		}
		return h
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(h, math.Float64bits(v.Float()))
	case reflect.Int:
		return binary.LittleEndian.AppendUint64(h, uint64(v.Int()))
	case reflect.Uint8:
		return append(h, byte(v.Uint()))
	case reflect.Bool:
		if v.Bool() {
			return append(h, 1)
		}
		return append(h, 0)
	}
	panic(fmt.Sprintf("digestValue: unhandled kind %v", v.Kind()))
}

func digestOf(x any) string {
	sum := sha256.Sum256(digestValue(nil, reflect.ValueOf(x)))
	return hex.EncodeToString(sum[:])
}

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s/%d", hex.EncodeToString(sum[:]), len(b))
}

// receiveDigests runs the receive layer over fixed-seed captures and
// returns one digest per case: every field of the full Demod or
// Detection, and the checkpoint bytes of one mid-stream receiver of
// each kind.
func receiveDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}

	clean := core.NewTestbed(core.WithSeed(7)).PrepareCovert(core.CovertConfig{PayloadBits: 64})
	defer clean.Cap.Recycle()
	damaged := core.NewTestbed(core.WithSeed(7)).PrepareCovert(core.CovertConfig{
		PayloadBits:      64,
		Faults:           faults.Config{DropRatePerS: 120, GainStepRatePerS: 15, GainStepMaxDB: 6},
		RXResync:         true,
		RXCarrierRetries: 2,
	})
	defer damaged.Cap.Recycle()
	if damaged.Faults.Drops == 0 {
		t.Fatal("damaged capture has no drops")
	}

	demod := func(name string, cap *sdr.Capture, cfg covert.RXConfig) *covert.Demod {
		d := covert.Demodulate(cap, cfg)
		out["covert/"+name] = digestOf(d)
		return d
	}
	if d := demod("hinted_clean", clean.Cap, clean.RXCfg); !d.CarrierFound || len(d.Bits) == 0 {
		t.Fatal("hinted clean capture decoded nothing")
	}
	demod("hinted_faults_resync_retries", damaged.Cap, damaged.RXCfg)

	blind := clean.RXCfg
	blind.ExpectedF0 = 0
	if d := demod("blind_clean", clean.Cap, blind); !d.CarrierFound {
		t.Fatal("blind clean capture found no carrier")
	}
	// Blind with retries on the damaged capture, with the gate raised
	// just above the first pass's z-score so the retry loop must run.
	blindDamaged := damaged.RXCfg
	blindDamaged.ExpectedF0 = 0
	blindDamaged.CarrierRetries = 0
	first := covert.Demodulate(damaged.Cap, blindDamaged)
	blindDamaged.CarrierRetries = 2
	blindDamaged.CarrierMinZ = first.Quality.CarrierZ * 1.1
	if d := demod("blind_retries_damaged", damaged.Cap, blindDamaged); d.Quality.Retries == 0 {
		t.Fatal("blind damaged case consumed no retries")
	}

	short := &sdr.Capture{IQ: clean.Cap.IQ[:4*clean.RXCfg.FFTSize-1],
		SampleRate: clean.Cap.SampleRate, CenterFreqHz: clean.Cap.CenterFreqHz}
	demod("short", short, clean.RXCfg)
	silence := &sdr.Capture{IQ: make([]complex128, 200000),
		SampleRate: clean.Cap.SampleRate, CenterFreqHz: clean.Cap.CenterFreqHz}
	demod("silence_hinted", silence, clean.RXCfg)
	demod("silence_blind", silence, blind)

	typing := core.NewTestbed(core.WithSeed(11)).PrepareKeylog(core.KeylogConfig{Words: 4})
	defer typing.Cap.Recycle()
	faulted := core.NewTestbed(core.WithSeed(11)).PrepareKeylog(core.KeylogConfig{
		Words:    4,
		Faults:   faults.Config{DropRatePerS: 2, GainStepRatePerS: 0.5, GainStepMaxDB: 6},
		GapAware: true,
	})
	defer faulted.Cap.Recycle()
	if faulted.Faults.Drops == 0 {
		t.Fatal("faulted typing capture has no drops")
	}

	detect := func(name string, cap *sdr.Capture, cfg keylog.DetectorConfig) *keylog.Detection {
		d := keylog.Detect(cap, cfg)
		out["keylog/"+name] = digestOf(d)
		return d
	}
	if d := detect("hinted_default", typing.Cap, typing.DetCfg); len(d.Keystrokes) == 0 {
		t.Fatal("hinted typing capture detected nothing")
	}
	blindDet := typing.DetCfg
	blindDet.ExpectedF0 = 0
	detect("blind", typing.Cap, blindDet)
	untracked := typing.DetCfg
	untracked.TrackBlock = 0
	detect("trackblock_0", typing.Cap, untracked)
	detect("gapaware_faults", faulted.Cap, faulted.DetCfg)
	tiny := typing.DetCfg
	tiny.Window = sim.Nanosecond
	detect("window_rounds_to_zero", typing.Cap, tiny)

	// Checkpoint bytes of one mid-stream processor of each kind.
	rx, err := stream.NewCovertReceiver(clean.RXCfg, clean.Cap.SampleRate, clean.Cap.CenterFreqHz)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range stream.Chunks(clean.Cap.IQ[:len(clean.Cap.IQ)/2], 20000) {
		rx.Push(c)
	}
	out["ckpt/covert_mid"] = bytesDigest(rx.EncodeState())
	kd, err := stream.NewKeylogDetector(typing.DetCfg, typing.Cap.SampleRate, typing.Cap.CenterFreqHz)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range stream.Chunks(typing.Cap.IQ[:600000], 30000) {
		kd.Push(c)
	}
	out["ckpt/keylog_mid"] = bytesDigest(kd.EncodeState())
	return out
}

// TestReceiveDigests pins the receive layer's output bit for bit across
// commits: every field of the Demod and Detection for hinted, blind,
// faulted, short, silent and degenerate inputs, plus the EMCK
// checkpoint bytes. Regenerate with `go test ./internal/core -run
// TestReceiveDigests -update` only for a deliberate, documented change.
func TestReceiveDigests(t *testing.T) {
	got := receiveDigests(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateDigests {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cases, the test computes %d", digestFile, len(want), len(got))
	}
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: digest %s, pinned %s", name, got[name], want[name])
		}
	}
}

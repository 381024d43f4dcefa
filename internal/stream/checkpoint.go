package stream

// Checkpoint files for the daemon's stream processors — the piece that
// extends the repo's determinism contract across process death. A
// processor's carried state is compact by construction (never raw IQ),
// and both receivers serialize it as an EMCK v1 checkpoint (package
// ckpt) plus the consumed-sample count. Restoring it into a freshly
// constructed processor and replaying the capture from Consumed()
// onward finishes byte-identical to an uninterrupted run: float bits
// round-trip exactly, and both receivers are chunk-size-invariant, so
// the resumed chunk boundaries need not match the original ones.
// Restoring a truncated, corrupted, or wrong-kind checkpoint returns an
// error, never a panic; FuzzCheckpointDecode pins that contract.

import (
	"os"
	"path/filepath"

	"pmuleak/internal/telemetry"
)

var (
	ckptWrites = telemetry.NewCounter("stream.checkpoint.writes")
	ckptBytes  = telemetry.NewCounter("stream.checkpoint.bytes")
	ckptErrors = telemetry.NewCounter("stream.checkpoint.errors")
)

// Checkpointer is a Processor whose carried state can be serialized and
// restored. Both receivers implement it. RestoreState must be called on
// a freshly constructed processor built from the same config and
// tuning as the one that produced the checkpoint; the byte-identity
// guarantee only holds under that pairing (the checkpoint carries the
// mutable state, the constructor re-derives everything else).
type Checkpointer interface {
	Processor
	// EncodeState serializes the processor's carried state, including
	// the consumed-sample count.
	EncodeState() []byte
	// RestoreState replaces a fresh processor's state with a previously
	// encoded one. It returns an error — never panics — on corrupted,
	// truncated, or mismatched input, and leaves the processor
	// untouched when it does.
	RestoreState(data []byte) error
	// Consumed returns how many samples the processor has absorbed —
	// the offset a resuming producer must continue from.
	Consumed() int
}

// CheckpointPath returns the file a stream's checkpoints live at inside
// a checkpoint directory. Stream names are used verbatim as file stems,
// so daemon stream names must not contain path separators.
func CheckpointPath(dir, name string) string {
	return filepath.Join(dir, name+".ckpt")
}

// WriteCheckpoint atomically persists a processor's state to
// CheckpointPath(dir, name): the bytes land in a temp file first and
// are renamed into place, so a crash mid-write leaves the previous
// checkpoint intact rather than a torn one.
func WriteCheckpoint(dir, name string, ck Checkpointer) error {
	data := ck.EncodeState()
	path := CheckpointPath(dir, name)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		ckptErrors.Inc()
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		ckptErrors.Inc()
		os.Remove(tmp)
		return err
	}
	ckptWrites.Inc()
	ckptBytes.Add(uint64(len(data)))
	return nil
}

// RestoreCheckpoint loads CheckpointPath(dir, name) into a freshly
// constructed processor. The error distinguishes a missing file
// (os.IsNotExist) from a corrupt or mismatched one.
func RestoreCheckpoint(dir, name string, ck Checkpointer) error {
	data, err := os.ReadFile(CheckpointPath(dir, name))
	if err != nil {
		return err
	}
	return ck.RestoreState(data)
}

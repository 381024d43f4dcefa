// Command emscope renders ASCII spectrograms of the simulated VRM
// emanations — the terminal equivalent of the paper's Fig. 2 (the
// active/idle micro-benchmark) and Fig. 11 (a typed sentence).
//
// Examples:
//
//	emscope                             # Fig. 2 micro-benchmark view
//	emscope -mode keys -text "hello hpca"
//	emscope -laptop "Sony Ultrabook" -active 5ms -idle 5ms
//	emscope -mode serve -streams 8 -workers 4 -verify   # emscoped daemon
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pmuleak/internal/core"
	"pmuleak/internal/dsp"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sim"
	"pmuleak/internal/workload"
)

func main() {
	var (
		mode     = flag.String("mode", "microbench", "microbench | keys | serve")
		model    = flag.String("laptop", laptop.Reference().Model, "target laptop model (see -list)")
		list     = flag.Bool("list", false, "list available laptop models and exit")
		active   = flag.Duration("active", 2*time.Millisecond, "micro-benchmark active period (t1)")
		idle     = flag.Duration("idle", 2*time.Millisecond, "micro-benchmark idle period (t2)")
		cycles   = flag.Int("cycles", 40, "micro-benchmark active/idle cycles")
		text     = flag.String("text", "can you hear me", "text for -mode keys")
		rows     = flag.Int("rows", 24, "display rows")
		cols     = flag.Int("cols", 100, "display columns")
		seed     = flag.Int64("seed", 1, "experiment seed")
		distance = flag.Float64("distance", 0.10, "antenna distance in meters")
		hifi     = flag.Bool("hifi", false, "use the pulse-train emission model (spectrum emerges from pulse timing)")
		csvPath  = flag.String("csv", "", "also write the spectrogram as CSV to this file")

		// -mode serve (emscoped): concurrent capture streams over the
		// stream.Daemon worker pool.
		streams = flag.Int("streams", 8, "serve: number of concurrent capture streams")
		workers = flag.Int("workers", 4, "serve: worker pool size")
		chunk   = flag.Int("chunk", 65536, "serve: samples per pushed chunk")
		queue   = flag.Int("queue", 8, "serve: per-stream queue depth in chunks (backpressure bound)")
		kind    = flag.String("kind", "mixed", "serve: stream mix — covert | keys | mixed")
		verify  = flag.Bool("verify", false, "serve: rerun each capture as one chunk through the same receiver and require the chunked stream's output to be byte-identical")
		adminA  = flag.String("admin", "", "serve: expose the live introspection plane (/metrics, /streams, /healthz, /debug/pprof) on this address, e.g. :9110 or 127.0.0.1:0")
		linger  = flag.Duration("linger", 0, "serve: keep the process (and -admin listener) alive this long after the final report")

		// Supervision: checkpoint/restore across process death, and the
		// deterministic chaos harness.
		checkpoint = flag.String("checkpoint", "", "serve: checkpoint directory — persist per-stream processor state and restore from it at startup (kill-and-resume)")
		ckptEvery  = flag.Int("ckpt-every", 8, "serve: write a checkpoint every N processed chunks per stream")
		chaosCls   = flag.String("chaos", "off", "serve: inject a deterministic chaos class — off | stall | slow | kill | corrupt")
		chaosSeed  = flag.Int64("chaos-seed", 1, "serve: seed for the chaos fault schedules (replayable)")
	)
	flag.Parse()

	if *list {
		for _, p := range laptop.Profiles() {
			fmt.Printf("%-24s %s, %s, VRM %.0f kHz\n",
				p.Model, p.OS(), p.Arch, p.VRM.SwitchingFreqHz/1e3)
		}
		return
	}
	prof, err := laptop.Lookup(*model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emscope: %v (try -list)\n", err)
		os.Exit(2)
	}
	tb := core.NewTestbed(
		core.WithLaptop(prof),
		core.WithSeed(*seed),
		core.WithDistance(*distance),
	)
	if err := tb.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "emscope: %v\n", err)
		os.Exit(2)
	}

	switch *mode {
	case "microbench":
		fmt.Printf("%s — VRM at %.0f kHz, tuned to %.0f kHz, t1=%v t2=%v\n",
			prof, prof.VRM.SwitchingFreqHz/1e3, 1.5*prof.VRM.SwitchingFreqHz/1e3,
			*active, *idle)
		var s *dsp.Spectrogram
		if *hifi {
			s = hifiSpectrogram(prof, sim.Time(active.Nanoseconds()),
				sim.Time(idle.Nanoseconds()), *cycles, *seed)
		} else {
			s = tb.MicrobenchSpectrogram(sim.Time(active.Nanoseconds()),
				sim.Time(idle.Nanoseconds()), *cycles)
		}
		core.RenderSpectrogram(os.Stdout, s, *rows, *cols)
		writeCSV(*csvPath, s)
		fmt.Println("\nThe horizontal stripes are the VRM switching fundamental and its")
		fmt.Println("first harmonic; they appear during active phases and vanish while idle.")
	case "keys":
		fmt.Printf("%s — typing %q\n", prof, *text)
		s, events := tb.KeylogSpectrogram(*text)
		core.RenderSpectrogram(os.Stdout, s, *rows, *cols)
		writeCSV(*csvPath, s)
		fmt.Printf("\n%d keystrokes injected; each vertical burst is one key press.\n", len(events))
	case "serve":
		os.Exit(runServe(prof, *seed, *distance, serveOptions{
			streams: *streams,
			workers: *workers,
			chunk:   *chunk,
			queue:   *queue,
			kind:    *kind,
			verify:  *verify,
			admin:   *adminA,
			linger:  *linger,

			checkpoint: *checkpoint,
			ckptEvery:  *ckptEvery,
			chaos:      *chaosCls,
			chaosSeed:  *chaosSeed,
		}))
	default:
		fmt.Fprintf(os.Stderr, "emscope: unknown mode %q\n", *mode)
		os.Exit(1)
	}
}

// writeCSV dumps the spectrogram to path when one was requested.
func writeCSV(path string, s *dsp.Spectrogram) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emscope: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := s.WriteCSV(f); err != nil {
		fmt.Fprintf(os.Stderr, "emscope: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("(spectrogram written to %s)\n", path)
}

// hifiSpectrogram runs the micro-benchmark and renders it with the
// pulse-train emission model, where the VRM comb emerges from the
// switching pulse timing itself.
func hifiSpectrogram(prof laptop.Profile, active, idle sim.Time, cycles int, seed int64) *dsp.Spectrogram {
	sys := laptop.NewSystem(prof, seed)
	defer sys.Close()
	workload.Microbench(sys.Kernel(), active, idle, cycles)
	horizon := sim.Time(float64(active+idle)*float64(cycles)*1.3) + 2*sim.Millisecond
	sys.Run(horizon)
	plan := sys.DefaultPlan()
	iq := sys.EmanationsPulseTrain(horizon, plan)
	return dsp.STFT(iq, 1024, 512, dsp.Hann(1024), plan.SampleRate)
}

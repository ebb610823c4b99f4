package hotpotato_test

// Benchmarks for the crash-safety layer: engine snapshot capture, restore,
// the checkpoint codec in both encodings, and the end-to-end overhead of
// running with periodic checkpointing enabled. These quantify the cost a
// long run pays for being resumable.

import (
	"bytes"
	"context"
	"io"
	"testing"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// midRunEngine builds the standard 16x16 uniform instance and steps it to
// the middle of the run, where queues are at their fullest and a snapshot
// is most expensive.
func midRunEngine(b *testing.B) *sim.Engine {
	b.Helper()
	m := mesh.MustNew(2, 16)
	packets := freshUniform(b, m, 128, 7)
	e, err := sim.New(m, core.NewRestrictedPriority(), packets, sim.Options{
		Seed: 7, Validation: sim.ValidateGreedy, DetectLivelock: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkSnapshot times capturing the full engine state mid-run.
func BenchmarkSnapshot(b *testing.B) {
	e := midRunEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore times rebuilding a runnable engine from a snapshot —
// the cost a resumed process pays once at startup.
func BenchmarkRestore(b *testing.B) {
	e := midRunEngine(b)
	snap, err := e.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	m := mesh.MustNew(2, 16)
	restoreOnce := func() {
		fresh, err := sim.New(m, core.NewRestrictedPriority(), nil, sim.Options{
			Seed: 7, Validation: sim.ValidateGreedy, DetectLivelock: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := fresh.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
	restoreOnce() // warm up the mesh's lazily built topology tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restoreOnce()
	}
}

// BenchmarkCheckpointEncode times serializing a snapshot in each encoding.
func BenchmarkCheckpointEncode(b *testing.B) {
	e := midRunEngine(b)
	snap, err := e.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []struct {
		name   string
		format checkpoint.Format
	}{{"json", checkpoint.JSON}, {"binary", checkpoint.Binary}} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := checkpoint.Write(io.Discard, snap, f.format); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointDecode times parsing and verifying a checkpoint in
// each encoding.
func BenchmarkCheckpointDecode(b *testing.B) {
	e := midRunEngine(b)
	snap, err := e.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []struct {
		name   string
		format checkpoint.Format
	}{{"json", checkpoint.JSON}, {"binary", checkpoint.Binary}} {
		b.Run(f.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := checkpoint.Write(&buf, snap, f.format); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := checkpoint.Read(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunCheckpointed times a complete run that encodes its state every
// 16 steps — straight from the engine, as a periodic binary checkpoint does —
// against BenchmarkRunPlain's uncheckpointed baseline of the same instance:
// the steady-state cost of crash safety.
func BenchmarkRunCheckpointed(b *testing.B) {
	m := mesh.MustNew(2, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packets := freshUniform(b, m, 128, int64(i))
		e, err := sim.New(m, core.NewRestrictedPriority(), packets, sim.Options{
			Seed: int64(i), Validation: sim.ValidateGreedy, DetectLivelock: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		save := func(e *sim.Engine) error { return checkpoint.WriteValue(io.Discard, e, checkpoint.Binary) }
		res, err := e.RunCheckpointed(context.Background(), 16, save)
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered != res.Total {
			b.Fatal("undelivered")
		}
	}
}

// BenchmarkRunPlain is the baseline for BenchmarkRunCheckpointed: the same
// instance with checkpointing off.
func BenchmarkRunPlain(b *testing.B) {
	m := mesh.MustNew(2, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packets := freshUniform(b, m, 128, int64(i))
		e, err := sim.New(m, core.NewRestrictedPriority(), packets, sim.Options{
			Seed: int64(i), Validation: sim.ValidateGreedy, DetectLivelock: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered != res.Total {
			b.Fatal("undelivered")
		}
	}
}

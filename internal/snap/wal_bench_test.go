package snap_test

import (
	"path/filepath"
	"testing"

	"graphmat/internal/snap"
)

// WAL benchmarks: the per-batch durability cost an ApplyEdges caller pays
// before its ack (Append fsyncs every record) and the boot-time replay read,
// run by make bench-snap.

func walBenchUpdates(n int) []snap.WALUpdate {
	ups := make([]snap.WALUpdate, n)
	for i := range ups {
		ups[i] = snap.WALUpdate{
			Src: uint32(i * 7), Dst: uint32(i*13 + 1),
			Val: float32(i%255) + 1, Del: i%10 == 0,
		}
	}
	return ups
}

func BenchmarkWALAppend(b *testing.B) {
	w, err := snap.CreateWAL(filepath.Join(b.TempDir(), "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	ups := walBenchUpdates(1024)
	b.SetBytes(int64(len(ups) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(uint64(i+1), ups); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "wal.log")
	w, err := snap.CreateWAL(path)
	if err != nil {
		b.Fatal(err)
	}
	ups := walBenchUpdates(1024)
	const batches = 64
	for i := 0; i < batches; i++ {
		if err := w.Append(uint64(i+1), ups); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(batches * len(ups) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := snap.ReadWAL(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != batches {
			b.Fatalf("replayed %d batches, want %d", len(got), batches)
		}
	}
}

package dataset_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"verfploeter/internal/dataset"
	"verfploeter/internal/monitor"
	"verfploeter/internal/scenario"
	"verfploeter/internal/topology"
	"verfploeter/internal/verfploeter"
)

// deltaBomb is a series whose baseline is valid and whose one epoch
// declares 2^27 changed deltas, then ends: a reader that trusts the
// declared count allocates for all of them before finding EOF.
func deltaBomb(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := &dataset.Series{
		Baseline: verfploeter.NewCatchment(1),
		Epochs:   []dataset.SeriesEpoch{{Epoch: 1}},
	}
	if err := dataset.WriteSeries(&buf, s); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// The epoch ends with four u32 counts: changed, added, removed,
	// events. Declare 2^27 changed deltas and cut the rest.
	payload = payload[:len(payload)-12]
	binary.BigEndian.PutUint32(payload[len(payload)-4:], dataset.MaxEntries)
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	zw.Write(payload)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestReadSeriesDeclaredCountBounded: a declared delta count is not an
// allocation size. Reading the delta bomb must fail with ErrFormat
// after allocating a few MB at most, not the 2 GB the count declares.
func TestReadSeriesDeclaredCountBounded(t *testing.T) {
	bomb := deltaBomb(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := dataset.ReadSeries(bytes.NewReader(bomb))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, dataset.ErrFormat) {
		t.Fatalf("ReadSeries(delta bomb) = %v, want ErrFormat", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("ReadSeries allocated %d bytes for a %d-byte input", alloc, len(bomb))
	}
}

// monitorSeries runs a small monitor session and returns its serialized
// series.
func monitorSeries(t testing.TB, seed uint64, cfg monitor.Config) []byte {
	t.Helper()
	s := scenario.BRoot(topology.SizeTiny, seed)
	s.OnEpoch(func(sc *scenario.Scenario, e int) {
		if e == 2 {
			down := make([]bool, len(sc.Sites))
			down[1] = true
			sc.ReannounceFull(sc.Prepends(), down, sc.RoutingEpoch())
		}
	})
	res, err := monitor.Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteSeries(&buf, res.Series); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSeries: the series decoder never panics, fails only with
// ErrFormat or ErrLimit, and for every input it accepts, write → read →
// write reproduces the same bytes. The seed corpus is real monitor
// output (a prepend, a blackout, sampled and full modes) plus the delta
// bomb.
func FuzzReadSeries(f *testing.F) {
	f.Add(monitorSeries(f, 7, monitor.Config{Epochs: 4, Sample: 0.25,
		Actions: []monitor.Action{{Epoch: 1, Prepend: []int{2, 0}}}}))
	f.Add(monitorSeries(f, 3, monitor.Config{Epochs: 3}))
	f.Add(deltaBomb(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := dataset.ReadSeries(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, dataset.ErrFormat) && !errors.Is(err, dataset.ErrLimit) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		var w1, w2 bytes.Buffer
		if err := dataset.WriteSeries(&w1, s); err != nil {
			t.Fatalf("accepted series does not write: %v", err)
		}
		back, err := dataset.ReadSeries(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("rewritten series does not read: %v", err)
		}
		if err := dataset.WriteSeries(&w2, back); err != nil {
			t.Fatalf("re-read series does not write: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write → read → write differs: %d vs %d bytes", w1.Len(), w2.Len())
		}
	})
}

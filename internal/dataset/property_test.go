package dataset

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"verfploeter/internal/ipv4"
	"verfploeter/internal/verfploeter"
)

// randomDataset builds an arbitrary-but-valid dataset from a seeded
// source. RTTs are quantized to whole microseconds, the v2 on-disk
// granularity, so the round trip can demand exact equality.
func randomDataset(r *rand.Rand) *Dataset {
	nSite := 1 + r.Intn(5)
	sites := make([]string, nSite)
	for i := range sites {
		sites[i] = fmt.Sprintf("s%02d-%x", i, r.Uint32())
	}
	c := verfploeter.NewCatchment(nSite)
	for i, n := 0, r.Intn(200); i < n; i++ {
		b := ipv4.Block(r.Uint32())
		site := r.Intn(nSite)
		if r.Intn(2) == 0 {
			c.SetRTT(b, site, time.Duration(1+r.Intn(500000))*time.Microsecond)
		} else {
			c.Set(b, site)
		}
	}
	return &Dataset{
		Meta: Meta{
			ID:          fmt.Sprintf("SBV-%d-%d", r.Intn(12)+1, r.Intn(28)+1),
			Scenario:    "b-root",
			Sites:       sites,
			RoundID:     uint16(r.Uint32()),
			Seed:        r.Uint64(),
			CreatedUnix: r.Int63(),
		},
		Catchment: c,
		Stats: verfploeter.Stats{
			Sent: r.Intn(1 << 20), SendErrs: r.Intn(100),
			Elapsed: time.Duration(r.Int63n(int64(time.Hour))), MedianRTT: time.Duration(r.Int63n(int64(time.Second))),
			Clean: verfploeter.CleanStats{
				Total: r.Intn(1 << 20), WrongRound: r.Intn(100), Late: r.Intn(100),
				Unsolicited: r.Intn(100), Duplicates: r.Intn(100), Kept: r.Intn(1 << 20),
			},
			Targets: r.Intn(1 << 20), Responded: r.Intn(1 << 20), Retried: r.Intn(1 << 10),
		},
	}
}

func catchmentsExactlyEqual(t *testing.T, want, got *verfploeter.Catchment) {
	t.Helper()
	if want.NSite != got.NSite || want.Len() != got.Len() || want.RTTCount() != got.RTTCount() {
		t.Fatalf("shape differs: %d/%d/%d sites/blocks/rtts vs %d/%d/%d",
			want.NSite, want.Len(), want.RTTCount(), got.NSite, got.Len(), got.RTTCount())
	}
	want.Range(func(b ipv4.Block, site int) bool {
		s2, ok := got.SiteOf(b)
		if !ok || s2 != site {
			t.Fatalf("site differs at %v: %d vs %d (ok=%v)", b, site, s2, ok)
		}
		wr, wok := want.RTTOf(b)
		gr, gok := got.RTTOf(b)
		if wok != gok || wr != gr {
			t.Fatalf("RTT differs at %v: %v/%v vs %v/%v", b, wr, wok, gr, gok)
		}
		return true
	})
}

// TestRoundTripProperty is the v2 writer/reader property test: many
// randomized datasets must survive a write/read cycle without losing or
// altering a single field.
func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		ds := randomDataset(r)
		var buf bytes.Buffer
		if err := Write(&buf, ds); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if back.Meta.ID != ds.Meta.ID || back.Meta.Scenario != ds.Meta.Scenario ||
			back.Meta.RoundID != ds.Meta.RoundID || back.Meta.Seed != ds.Meta.Seed ||
			back.Meta.CreatedUnix != ds.Meta.CreatedUnix {
			t.Fatalf("trial %d: meta differs: %+v vs %+v", trial, back.Meta, ds.Meta)
		}
		if len(back.Meta.Sites) != len(ds.Meta.Sites) {
			t.Fatalf("trial %d: site count differs", trial)
		}
		for i := range ds.Meta.Sites {
			if back.Meta.Sites[i] != ds.Meta.Sites[i] {
				t.Fatalf("trial %d: site %d differs: %q vs %q", trial, i, back.Meta.Sites[i], ds.Meta.Sites[i])
			}
		}
		if back.Stats != ds.Stats {
			t.Fatalf("trial %d: stats differ: %+v vs %+v", trial, back.Stats, ds.Stats)
		}
		catchmentsExactlyEqual(t, ds.Catchment, back.Catchment)
	}
}

// gunzip decompresses a complete in-memory gzip stream.
func gunzip(t *testing.T, data []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// regzip recompresses a raw payload so the reader sees a well-formed
// gzip stream whose content ends early.
func regzip(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncatedDatasetErrors cuts a valid v2 file at every interior
// byte — both of the compressed stream and of the decompressed payload
// — and requires a clean error (never a panic, never a silent success).
func TestTruncatedDatasetErrors(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ds := randomDataset(r)
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Compressed-stream truncation: gzip header or checksum damage.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("compressed truncation at %d/%d bytes read successfully", cut, len(raw))
		}
	}

	// Payload truncation behind an intact gzip envelope: every interior
	// cut must surface as ErrFormat from the record readers.
	payload := gunzip(t, raw)
	for cut := 0; cut < len(payload); cut++ {
		_, err := Read(bytes.NewReader(regzip(t, payload[:cut])))
		if err == nil {
			t.Fatalf("payload truncation at %d/%d bytes read successfully", cut, len(payload))
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("payload truncation at %d: error not ErrFormat: %v", cut, err)
		}
	}
}

// TestTruncatedSeriesErrors is the same every-interior-byte sweep for
// the v3 series reader.
// smallSeries is a two-block baseline (0x01020300 at site 0 with a
// 40 ms RTT, 0x01020400 at site 1 without) and one epoch that moves
// 0x01020400 to site 0 with a 1 ms RTT and removes 0x01020300.
func smallSeries() *Series {
	base := verfploeter.NewCatchment(2)
	base.SetRTT(ipv4.Block(0x01020300), 0, 40*time.Millisecond)
	base.Set(ipv4.Block(0x01020400), 1)
	return &Series{
		Meta:     Meta{ID: "mon", Scenario: "b-root", Sites: []string{"lax", "mia"}, RoundID: 900},
		Strata:   4,
		Baseline: base,
		Epochs: []SeriesEpoch{{
			Epoch:   1,
			Probes:  10,
			Changed: []Delta{{Block: ipv4.Block(0x01020400), Site: 0, RTT: time.Millisecond}},
			Removed: []ipv4.Block{ipv4.Block(0x01020300)},
			Events:  []Event{{Epoch: 1, Type: EventFlips, Cause: CauseUnexplained, Site: -1, Blocks: 1, Magnitude: 0.5}},
		}},
	}
}

func TestTruncatedSeriesErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeries(&buf, smallSeries()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadSeries(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("compressed series truncation at %d/%d read successfully", cut, len(raw))
		}
	}
	payload := gunzip(t, raw)
	for cut := 0; cut < len(payload); cut++ {
		_, err := ReadSeries(bytes.NewReader(regzip(t, payload[:cut])))
		if err == nil {
			t.Fatalf("series payload truncation at %d/%d read successfully", cut, len(payload))
		}
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("series payload truncation at %d: error not ErrFormat: %v", cut, err)
		}
	}
}

// TestSeriesRejectsMalformedEntries hand-crafts series whose entries a
// v4 dataset reader would reject — an RTT above math.MaxInt64 in the
// baseline or in a delta, and a repeated or descending baseline block —
// and requires ReadSeries to fail with ErrFormat instead of turning the
// RTT negative or folding entries together.
func TestSeriesRejectsMalformedEntries(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSeries(&buf, smallSeries()); err != nil {
		t.Fatal(err)
	}
	payload := gunzip(t, buf.Bytes())
	if _, err := ReadSeries(bytes.NewReader(regzip(t, payload))); err != nil {
		t.Fatalf("unpatched series: %v", err)
	}
	// entry is one encoded catchment entry or delta: u32 block, u16
	// site, u64 RTT in nanoseconds.
	entry := func(blk uint32, site uint16, rtt uint64) []byte {
		b := binary.BigEndian.AppendUint32(nil, blk)
		b = binary.BigEndian.AppendUint16(b, site)
		return binary.BigEndian.AppendUint64(b, rtt)
	}
	baseFirst := entry(0x01020300, 0, uint64(40*time.Millisecond))
	baseSecond := entry(0x01020400, 1, 0)
	delta := entry(0x01020400, 0, uint64(time.Millisecond))
	for _, tc := range []struct {
		name     string
		old, new []byte
	}{
		{"baseline rtt overflow", baseFirst, entry(0x01020300, 0, 1<<63)},
		{"delta rtt overflow", delta, entry(0x01020400, 0, math.MaxUint64)},
		{"repeated baseline block", baseSecond, entry(0x01020300, 1, 0)},
		{"descending baseline block", baseSecond, entry(0x01020200, 1, 0)},
	} {
		if n := bytes.Count(payload, tc.old); n != 1 {
			t.Fatalf("%s: entry found %d times in the payload", tc.name, n)
		}
		bad := bytes.Replace(payload, tc.old, tc.new, 1)
		if _, err := ReadSeries(bytes.NewReader(regzip(t, bad))); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: error %v, want ErrFormat", tc.name, err)
		}
	}
}

// writeV1 mirrors Write's field order as of format version 1: no
// sweep-health stats (Targets/Responded/Retried) at the end of the
// stats block. The v1 reader path has no writer anymore, so the test
// carries the legacy layout itself.
func writeV1(t *testing.T, w io.Writer, ds *Dataset) {
	t.Helper()
	zw := gzip.NewWriter(w)
	bw := bufio.NewWriter(zw)
	bw.Write(magic[:])
	writeU16(bw, 1)
	writeString(bw, ds.Meta.ID)
	writeString(bw, ds.Meta.Scenario)
	writeU16(bw, uint16(len(ds.Meta.Sites)))
	for _, s := range ds.Meta.Sites {
		writeString(bw, s)
	}
	writeU16(bw, ds.Meta.RoundID)
	writeU64(bw, ds.Meta.Seed)
	writeU64(bw, uint64(ds.Meta.CreatedUnix))
	writeU64(bw, uint64(ds.Stats.Sent))
	writeU64(bw, uint64(ds.Stats.SendErrs))
	writeU64(bw, uint64(ds.Stats.Elapsed))
	writeU64(bw, uint64(ds.Stats.MedianRTT))
	writeU64(bw, uint64(ds.Stats.Clean.Total))
	writeU64(bw, uint64(ds.Stats.Clean.WrongRound))
	writeU64(bw, uint64(ds.Stats.Clean.Late))
	writeU64(bw, uint64(ds.Stats.Clean.Unsolicited))
	writeU64(bw, uint64(ds.Stats.Clean.Duplicates))
	writeU64(bw, uint64(ds.Stats.Clean.Kept))
	writeU32(bw, uint32(ds.Catchment.NSite))
	blocks := ds.Catchment.Blocks()
	writeU32(bw, uint32(len(blocks)))
	for _, b := range blocks {
		site, _ := ds.Catchment.SiteOf(b)
		writeU32(bw, uint32(b))
		writeU16(bw, uint16(site))
		rttMicros := uint32(0)
		if rtt, ok := ds.Catchment.RTTOf(b); ok {
			rttMicros = uint32(rtt.Microseconds())
		}
		writeU32(bw, rttMicros)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadV1Compatibility: version-1 files (no sweep-health stats)
// still read, with the missing fields zero and everything else intact.
func TestReadV1Compatibility(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ds := randomDataset(r)
	var buf bytes.Buffer
	writeV1(t, &buf, ds)
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.ID != ds.Meta.ID || back.Meta.RoundID != ds.Meta.RoundID {
		t.Fatalf("v1 meta differs: %+v vs %+v", back.Meta, ds.Meta)
	}
	if back.Stats.Targets != 0 || back.Stats.Responded != 0 || back.Stats.Retried != 0 {
		t.Fatalf("v1 sweep-health stats should be zero, got %+v", back.Stats)
	}
	if back.Stats.Sent != ds.Stats.Sent || back.Stats.Clean != ds.Stats.Clean {
		t.Fatalf("v1 stats differ: %+v vs %+v", back.Stats, ds.Stats)
	}
	catchmentsExactlyEqual(t, ds.Catchment, back.Catchment)
}

package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(1)
	a := root.Derive("topology")
	b := root.Derive("querylog")
	if a.Uint64() == b.Uint64() {
		t.Fatal("derived streams should differ")
	}
	// Deriving with the same label from identically-seeded roots matches.
	x := New(1).Derive("topology")
	y := New(1).Derive("topology")
	for i := 0; i < 100; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatal("derive must be deterministic")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	s.Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-trials/n) > 4*math.Sqrt(trials/n) {
			t.Errorf("bucket %d count %d deviates from %d", i, c, trials/n)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.48 || mean > 0.52 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatal("exponential variate must be non-negative")
		}
		sum += v
	}
	if mean := sum / n; mean < 0.97 || mean > 1.03 {
		t.Errorf("mean = %v, want ~1", mean)
	}
}

func TestParetoTail(t *testing.T) {
	s := New(9)
	const n = 20000
	over10 := 0
	for i := 0; i < n; i++ {
		v := s.Pareto(1.2, 1)
		if v < 1 {
			t.Fatal("Pareto variate below xmin")
		}
		if v > 10 {
			over10++
		}
	}
	// P(X>10) = 10^-1.2 ≈ 0.063
	frac := float64(over10) / n
	if frac < 0.045 || frac > 0.085 {
		t.Errorf("tail fraction = %v, want ~0.063", frac)
	}
}

func TestWeightedChoice(t *testing.T) {
	s := New(13)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[s.WeightedChoice(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero total weight should panic")
		}
	}()
	s.WeightedChoice([]float64{0, 0})
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate %d", v)
		}
		seen[v] = true
	}
}

func TestNormFloat64(t *testing.T) {
	s := New(21)
	const n = 50000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean) > 0.02 || math.Abs(sd-1) > 0.02 {
		t.Errorf("mean=%v sd=%v, want ~0, ~1", mean, sd)
	}
}

func TestPermutationIsBijection(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 100, 1000, 4097} {
		p := NewPermutation(New(uint64(n)), n)
		if p.Len() != n {
			t.Fatalf("Len = %d, want %d", p.Len(), n)
		}
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			v := p.Index(i)
			if v < 0 || v >= n {
				t.Fatalf("n=%d: Index(%d) = %d out of range", n, i, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate output %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestPermutationScrambles(t *testing.T) {
	const n = 10000
	p := NewPermutation(New(99), n)
	inOrder := 0
	prev := p.Index(0)
	for i := 1; i < n; i++ {
		cur := p.Index(i)
		if cur == prev+1 {
			inOrder++
		}
		prev = cur
	}
	if inOrder > n/100 {
		t.Errorf("%d/%d consecutive outputs were sequential; not scrambled", inOrder, n)
	}
}

func TestPermutationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		p := NewPermutation(New(seed), n)
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			v := p.Index(i)
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPermutationInverse: Inverse undoes Index and Index undoes Inverse
// at every position. The sizes cover single-element and tiny domains,
// odd bit widths (257, 4097 pad to the next even width, so most Feistel
// outputs cycle-walk) and a power of two; 2^20+3 is checked
// exhaustively, which is where a cycle-walk tail that only shows at
// scale would surface.
func TestPermutationInverse(t *testing.T) {
	sizes := []int{1, 2, 3, 255, 256, 257, 4097, 1<<20 + 3}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	for _, n := range sizes {
		for _, seed := range []uint64{1, 0xdeadbeef} {
			p := NewPermutation(New(seed), n)
			for i := 0; i < n; i++ {
				if got := p.Inverse(p.Index(i)); got != i {
					t.Fatalf("n=%d seed=%#x: Inverse(Index(%d)) = %d", n, seed, i, got)
				}
				if got := p.Index(p.Inverse(i)); got != i {
					t.Fatalf("n=%d seed=%#x: Index(Inverse(%d)) = %d", n, seed, i, got)
				}
			}
		}
	}
}

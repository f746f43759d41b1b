package verfploeter

import (
	"testing"

	"verfploeter/internal/ipv4"
)

func blk(s string) ipv4.Block {
	b, err := ipv4.ParseBlock(s)
	if err != nil {
		panic(err)
	}
	return b
}

func TestCatchmentBasics(t *testing.T) {
	c := NewCatchment(2)
	c.Set(blk("10.0.0.0"), 0)
	c.Set(blk("10.0.1.0"), 1)
	c.Set(blk("10.0.2.0"), 1)

	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if s, ok := c.SiteOf(blk("10.0.1.0")); !ok || s != 1 {
		t.Errorf("SiteOf = %d, %v", s, ok)
	}
	if _, ok := c.SiteOf(blk("10.9.9.0")); ok {
		t.Error("unknown block should miss")
	}
	counts := c.Counts()
	if counts[0] != 1 || counts[1] != 2 {
		t.Errorf("Counts = %v", counts)
	}
	if f := c.Fraction(1); f < 0.66 || f > 0.67 {
		t.Errorf("Fraction(1) = %v", f)
	}
	blocks := c.Blocks()
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1] >= blocks[i] {
			t.Fatal("Blocks not sorted")
		}
	}
}

func TestCatchmentFirstObservationWins(t *testing.T) {
	c := NewCatchment(2)
	c.Set(blk("10.0.0.0"), 0)
	c.Set(blk("10.0.0.0"), 1) // mid-round flip: ignored
	if s, _ := c.SiteOf(blk("10.0.0.0")); s != 0 {
		t.Errorf("site = %d, want first observation", s)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCatchmentSetValidation(t *testing.T) {
	c := NewCatchment(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range site should panic")
		}
	}()
	c.Set(blk("10.0.0.0"), 5)
}

func TestDiff(t *testing.T) {
	prev := NewCatchment(2)
	cur := NewCatchment(2)
	prev.Set(blk("10.0.0.0"), 0) // stays 0 -> stable
	cur.Set(blk("10.0.0.0"), 0)
	prev.Set(blk("10.0.1.0"), 0) // flips to 1
	cur.Set(blk("10.0.1.0"), 1)
	prev.Set(blk("10.0.2.0"), 1) // disappears -> to-NR
	cur.Set(blk("10.0.3.0"), 1)  // appears -> from-NR

	d := Diff(prev, cur)
	if d.Stable != 1 || d.Flipped != 1 || d.ToNR != 1 || d.FromNR != 1 {
		t.Errorf("Diff = %+v", d)
	}
}

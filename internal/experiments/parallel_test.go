package experiments

import (
	"strings"
	"sync"
	"testing"

	"verfploeter/internal/topology"
)

func workersConfig(workers int) Config {
	return Config{Size: topology.SizeSmall, Seed: 13, AtlasVPs: 150, Rounds: 4, Workers: workers}
}

// TestExperimentsRunConcurrently drives several experiments — including
// routing mutators and the shared multi-round campaign — at once. Under
// -race this asserts the world cache hands out properly isolated forks.
func TestExperimentsRunConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent experiment sweep")
	}
	ids := []string{"table4", "fig5", "fig7", "ablation-hotpotato", "ext-stale", "fig4"}
	cfg := workersConfig(2)

	solo, err := Run("table4", cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	texts := make([]string, len(ids))
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			res, err := Run(id, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			texts[i] = res.Text
		}(i, id)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
	}
	// Cache integrity: a run that raced against routing mutators must
	// still match the solo run.
	if texts[0] != solo.Text {
		t.Errorf("table4 differs when run concurrently with routing mutators:\n--- solo\n%s\n--- concurrent\n%s", solo.Text, texts[0])
	}
}

func TestShapeSlug(t *testing.T) {
	cases := map[string]string{
		"Verfploeter covers 100x more ASes: 10 vs 1000": "verfploeter-covers-100x-more-ases",
		"coverage: blah":        "coverage",
		"  Spaced  Words  ":     "spaced-words",
		"LAX>MIA under prepend": "lax-mia-under-prepend",
	}
	for desc, want := range cases {
		if got := shapeSlug(desc); got != want {
			t.Errorf("shapeSlug(%q) = %q, want %q", desc, got, want)
		}
	}
}

// TestShapeDuplicateSlugPanics: two shape checks whose descriptions
// reduce to the same slug must fail loudly instead of silently
// overwriting each other's metric (the old first-word keying bug).
func TestShapeDuplicateSlugPanics(t *testing.T) {
	r := newReport()
	r.shape(true, "coverage wins: 10x")
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("duplicate shape slug did not panic")
		}
		if !strings.Contains(p.(string), "duplicate shape slug") {
			t.Fatalf("unexpected panic %v", p)
		}
	}()
	r.shape(false, "coverage wins: but differently")
}

// TestShapeDistinctLeadingWordsNoCollision guards the regression the
// first-word keying had: descriptions sharing a first word must produce
// distinct metrics.
func TestShapeDistinctLeadingWordsNoCollision(t *testing.T) {
	r := newReport()
	r.shape(true, "coverage beats atlas: yes")
	r.shape(false, "coverage tracks paper: no")
	if len(r.metrics) != 2 {
		t.Fatalf("expected 2 shape metrics, got %v", r.metrics)
	}
	if v := r.metrics["shape_coverage-beats-atlas"]; v != 1 {
		t.Errorf("first metric = %v", v)
	}
	if v, ok := r.metrics["shape_coverage-tracks-paper"]; !ok || v != 0 {
		t.Errorf("second metric = %v (present %v)", v, ok)
	}
}

package main

import (
	"math"
	"testing"
)

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p90 is the highest candidate with 10 samples beyond it.
	p, v, beyond, ok := tail(xs)
	if !ok || p != 90 || v != 90 || beyond != 10 {
		t.Fatalf("tail(1..100) = p%v %v beyond %d ok %v, want p90 90 beyond 10", p, v, beyond, ok)
	}
	if p, _, _, ok := tail(xs[:40]); !ok || p != 75 {
		t.Fatal("40 samples should give p75")
	}
	if _, _, _, ok := tail(xs[:39]); ok {
		t.Fatal("39 samples leave fewer than 10 beyond p75")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

// TestSelfTimeUnion checks that overlapping children on other
// goroutines are subtracted once, and that a child sticking out of its
// parent counts only inside it.
func TestSelfTimeUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Layer: "sweep", Start: 0, End: 100, Parent: -1},
		{ID: 1, Layer: "core", Start: 10, End: 60, Parent: 0},
		{ID: 2, Layer: "core", Start: 40, End: 90, Parent: 0},
		{ID: 3, Layer: "vrm", Start: 20, End: 30, Parent: 1},
		{ID: 4, Layer: "em", Start: 85, End: 120, Parent: 2},
	}}
	lt := tr.times()
	want := map[string]float64{
		"sweep": 20e-9, // 0-10 and 90-100
		"core":  85e-9, // span 1: 50-10, span 2: 50-5
		"vrm":   10e-9,
		"em":    35e-9,
	}
	for l, w := range want {
		if math.Abs(lt.self[l]-w) > 1e-15 {
			t.Errorf("self[%s] = %v, want %v", l, lt.self[l], w)
		}
	}
}

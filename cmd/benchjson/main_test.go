package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckAgainstWorkCounters(t *testing.T) {
	ref := File{Benchmarks: []Record{{
		Suite: "ilp", Op: "BenchmarkKnapsackMILP", NsPerOp: 100,
		Metrics: map[string]float64{"lp-iters/op": 1678, "nodes/op": 664, "B/op": 10},
	}}}
	buf, err := json.Marshal(&ref)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	measure := func(ns float64, metrics map[string]float64) []Record {
		return []Record{{Suite: "ilp", Op: "BenchmarkKnapsackMILP", NsPerOp: ns, Metrics: metrics}}
	}
	cases := []struct {
		name    string
		got     []Record
		wantErr string
	}{
		{"equal counters, slower within tolerance, other metrics free",
			measure(190, map[string]float64{"lp-iters/op": 1678, "nodes/op": 664, "B/op": 99}), ""},
		{"lp iterations changed",
			measure(50, map[string]float64{"lp-iters/op": 1982, "nodes/op": 664}), "lp-iters/op 1982 vs committed 1678"},
		{"node counter missing",
			measure(50, map[string]float64{"lp-iters/op": 1678}), "nodes/op missing vs committed 664"},
		{"ns/op past tolerance",
			measure(201, map[string]float64{"lp-iters/op": 1678, "nodes/op": 664}), "201 ns/op vs committed 100 ns/op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkAgainst(path, tc.got, 2)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected failure: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("got %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

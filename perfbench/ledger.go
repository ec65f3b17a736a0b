package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
)

// ledgerDir holds one work ledger per (workload, seed, mode, code under
// test), relative to the directory the benchmark runs from. It sits
// next to the build output, which version control ignores.
const ledgerDir = ".bench_build/perfbench-ledger"

// ledgerEntry is the deterministic work of one operation: every field
// must be identical whenever the same seed reaches the same operation
// again, on any machine and at any load.
type ledgerEntry struct {
	Op       int               `json:"op"`
	Kind     string            `json:"kind"`
	Input    string            `json:"input"`
	Counters map[string]int64  `json:"counters"`
	Outputs  map[string]string `json:"outputs,omitempty"`
}

// note appends one operation's counters to the run's ledger.
func (r *run) note(kind, input string, counters map[string]int64, outputs map[string]string) {
	r.ledger = append(r.ledger, ledgerEntry{Op: len(r.ledger), Kind: kind, Input: input, Counters: counters, Outputs: outputs})
}

func workCounters(w work) map[string]int64 {
	return map[string]int64{
		"ilp.solves":      w.Solves,
		"ilp.bb_nodes":    w.Nodes,
		"ilp.lp_iters":    w.LPIters,
		"ilp.timeouts":    w.Timeouts,
		"solstore.hits":   w.StoreHits,
		"solstore.misses": w.StoreMisses,
	}
}

// codeID names the code under test: a prefix of the SHA-256 of the
// running benchmark binary, which links the whole program in. A change
// to the program gives another binary, and so a ledger of its own.
func codeID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkLedger compares this run's ledger with the one an earlier run of
// the same code at the same seed left in dir, over the operations both
// reached (runs are time-bounded, so one may get further than the
// other), then keeps the longer of the two. A difference means the work
// depended on something other than the inputs and the code — the wall
// clock, thread timing or state leaking between operations — and fails
// the run. A changed program starts a fresh ledger: its work may differ
// from its parent's by design.
func (r *run) checkLedger(dir, code string) error {
	mode := 0
	if r.trace {
		mode = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%s.json", r.workload, r.seed, mode, code))
	var prev []ledgerEntry
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("ledger %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("ledger: %w", err)
	}
	if err := compareLedgers(prev, r.ledger); err != nil {
		return fmt.Errorf("work differs from an earlier run at seed %d: %w", r.seed, err)
	}
	if len(prev) >= len(r.ledger) {
		return nil
	}
	out, err := json.MarshalIndent(r.ledger, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return os.WriteFile(path, out, 0o644)
}

// compareLedgers checks the common prefix of two ledgers entry by entry.
func compareLedgers(a, b []ledgerEntry) error {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Input != y.Input {
			return fmt.Errorf("op %d: %s %s, earlier %s %s", i, y.Kind, y.Input, x.Kind, x.Input)
		}
		if !reflect.DeepEqual(x.Counters, y.Counters) {
			return fmt.Errorf("op %d (%s %s): counters %v, earlier %v", i, y.Kind, y.Input, y.Counters, x.Counters)
		}
		if !reflect.DeepEqual(x.Outputs, y.Outputs) {
			return fmt.Errorf("op %d (%s %s): outputs %v, earlier %v", i, y.Kind, y.Input, y.Outputs, x.Outputs)
		}
	}
	return nil
}

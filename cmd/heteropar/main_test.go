package main

import (
	"testing"

	"repro"
	"repro/internal/minic"
)

// TestErrLinePrefixOnce feeds a checker-rejected program through the
// facade, whose errors carry their own "heteropar: " prefix, and
// requires the CLI line to name the tool once.
func TestErrLinePrefixOnce(t *testing.T) {
	src := "int main(int a) { return 0; }"
	_, err := heteropar.Parallelize(src, heteropar.Options{})
	if err == nil {
		t.Fatal("Parallelize accepted a main with parameters")
	}
	want := "heteropar: 1:5: error: main must take no parameters"
	if got := errLine(err); got != want {
		t.Errorf("errLine = %q, want %q", got, want)
	}
	// The facade's own text keeps its prefix (the daemon's 422 bodies
	// carry it), and errors from elsewhere gain one.
	if got := err.Error(); got != want {
		t.Errorf("facade error = %q, want %q", got, want)
	}
	if _, cerr := minic.Compile(src); cerr == nil {
		t.Fatal("minic.Compile accepted a main with parameters")
	} else if got := errLine(cerr); got != "heteropar: "+cerr.Error() {
		t.Errorf("errLine(checker error) = %q", got)
	}
}

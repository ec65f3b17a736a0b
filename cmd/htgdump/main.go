// Command htgdump prints the Augmented Hierarchical Task Graph of a mini-C
// program in Graphviz DOT format (pipe into `dot -Tsvg`), or, with
// -sections, the array-section dependence report: every sibling dependence
// with its per-array sections and communication volume before/after
// section sharpening, plus the dependences the section analysis dropped.
//
// Usage:
//
//	htgdump file.c
//	htgdump -bench compress
//	htgdump -sections -bench bound_value
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/htg"
)

// dump compiles and profiles source, builds the HTG and renders it: the
// section report when sections is set, Graphviz DOT otherwise. Both
// renderings are deterministic for equal inputs.
func dump(source string, sections bool) (string, error) {
	g, err := htg.FromSource(source, nil)
	if err != nil {
		return "", err
	}
	if sections {
		return g.SectionReport(), nil
	}
	return g.DOT(), nil
}

func main() {
	benchFlag := flag.String("bench", "", "use a bundled benchmark instead of a file")
	sectionsFlag := flag.Bool("sections", false, "print the array-section dependence report instead of DOT")
	flag.Parse()

	var source string
	switch {
	case *benchFlag != "":
		b := bench.ByName(*benchFlag)
		if b == nil {
			fmt.Fprintf(os.Stderr, "htgdump: unknown benchmark %q\n", *benchFlag)
			os.Exit(1)
		}
		source = b.Source
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "htgdump: %v\n", err)
			os.Exit(1)
		}
		source = string(data)
	default:
		flag.Usage()
		os.Exit(2)
	}

	out, err := dump(source, *sectionsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "htgdump: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

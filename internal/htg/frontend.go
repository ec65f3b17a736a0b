package htg

import (
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/obs"
)

// Stage names one step of the front end; each step is also the name of
// its span.
type Stage string

// Front-end stages, in order.
const (
	StageCompile Stage = "compile"
	StageProfile Stage = "profile"
	StageBuild   Stage = "htg-build"
)

// StageError is a front-end failure and the stage it happened in. Its
// text is the cause's, so callers choose their own prefix per stage.
type StageError struct {
	Stage Stage
	Err   error
}

func (e *StageError) Error() string { return e.Err.Error() }

func (e *StageError) Unwrap() error { return e.Err }

// FromSource runs the whole front end on source: compile and check,
// profile under the interpreter, and build the HTG with the default
// Config. Each stage is a span on tr (nil for none). The checked program
// is the graph's Program; the profile is consumed by the build. Errors
// are *StageError.
func FromSource(source string, tr *obs.Tracer) (*Graph, error) {
	span := tr.Start(string(StageCompile), obs.Int("source_bytes", len(source)))
	prog, err := minic.Compile(source)
	span.End()
	if err != nil {
		return nil, &StageError{StageCompile, err}
	}
	span = tr.Start(string(StageProfile))
	prof, err := interp.New(prog).Run()
	span.End()
	if err != nil {
		return nil, &StageError{StageProfile, err}
	}
	span = tr.Start(string(StageBuild))
	g, err := Build(prog, prof, Config{})
	span.End()
	if err != nil {
		return nil, &StageError{StageBuild, err}
	}
	return g, nil
}

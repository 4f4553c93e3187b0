package harness

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"ctbia/internal/obs"
)

// PointError describes one measurement point (or whole experiment) that
// could not be produced: a panicking worker or a simulator-verification
// failure. RunAll and the sweep
// experiments recover worker panics into PointErrors so a single bad
// point costs one FAILED row, never the sweep.
type PointError struct {
	// Experiment is the experiment id, when known at capture time
	// (RunAll fills it in for experiment-level failures).
	Experiment string
	// Point labels the failing data point ("hist_4000"); empty for
	// experiment-level failures.
	Point string
	// Strategy names the failing strategy when the point fans out per
	// strategy (runAllStrategies).
	Strategy string
	// Err is the underlying cause.
	Err error
	// Stack is the goroutine stack captured at the recovery site.
	Stack []byte
}

// Error renders the failure with its location chain.
func (e *PointError) Error() string {
	var b strings.Builder
	b.WriteString("point failed")
	if e.Experiment != "" {
		fmt.Fprintf(&b, " [%s]", e.Experiment)
	}
	if e.Point != "" {
		fmt.Fprintf(&b, " %s", e.Point)
	}
	if e.Strategy != "" {
		fmt.Fprintf(&b, " (%s)", e.Strategy)
	}
	fmt.Fprintf(&b, ": %v", e.Err)
	return b.String()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Err }

// toPointError converts a recovered panic value into a PointError,
// preserving an already-typed one and capturing the stack otherwise.
// Every recovery funnel passes through here, so it doubles as the
// observability layer's failure counter.
func toPointError(p any) *PointError {
	obs.Add("harness.point_errors", 1)
	switch v := p.(type) {
	case *PointError:
		if v.Stack == nil {
			v.Stack = debug.Stack()
		}
		return v
	case error:
		return &PointError{Err: v, Stack: debug.Stack()}
	default:
		return &PointError{Err: fmt.Errorf("panic: %v", v), Stack: debug.Stack()}
	}
}

// Fail records one unmeasurable point on the table: a row whose
// non-label cells read FAILED, plus a Failures entry that RunAll keeps
// out of the result cache and ctbench surfaces in its exit status.
func (t *Table) Fail(label string, err error) {
	row := make([]string, 0, len(t.Headers))
	row = append(row, label)
	for i := 1; i < len(t.Headers); i++ {
		row = append(row, "FAILED")
	}
	t.Rows = append(t.Rows, row)
	pe := toPointErrorValue(err)
	pe.Experiment = t.ID
	if pe.Point == "" {
		pe.Point = label
	}
	t.Failures = append(t.Failures, pe)
	t.Notes = append(t.Notes, fmt.Sprintf("FAILED %s: %s", label, firstLine(pe.Err.Error())))
}

// toPointErrorValue is toPointError for error values (no re-capture of
// the stack when the error already carries one).
func toPointErrorValue(err error) *PointError {
	var pe *PointError
	if errors.As(err, &pe) {
		return pe
	}
	return &PointError{Err: err}
}

// Failed reports whether any of the table's points failed.
func (t *Table) Failed() bool { return len(t.Failures) > 0 }

// failedTable is the placeholder rendered for an experiment whose Run
// panicked outright (no partial rows survive an experiment-level
// failure; point-level failures keep their partial tables instead).
func failedTable(e Experiment, pe *PointError) *Table {
	t := &Table{ID: e.ID, Title: e.Title, Paper: e.Paper,
		Headers: []string{"status", "error"}}
	t.AddRow("FAILED", firstLine(pe.Err.Error()))
	t.Failures = append(t.Failures, pe)
	return t
}

// firstLine truncates s at its first newline, for one-line summaries.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Failures flattens every failure in a RunAll result set —
// experiment-level panics and per-point FAILED rows alike — in result
// order, for the CLI's summary and exit status.
func Failures(results []Result) []*PointError {
	var out []*PointError
	for _, r := range results {
		if r.Err != nil {
			// The experiment-level error is also recorded on the
			// placeholder table; report it once.
			out = append(out, r.Err)
			continue
		}
		if r.Table != nil {
			out = append(out, r.Table.Failures...)
		}
	}
	return out
}

// Command tectrace summarizes a solve-path flight recording produced by
// the -trace flag of the solver CLIs: per-regime solve counts (SMW /
// direct / beyond-limit), the top spans by cumulative and self time,
// the critical path of the slowest solve, and every degradation (SMW
// guard trips, trace truncation).
//
// Usage:
//
//	tectrace [-top 10] trace-file
//
// Both trace formats are accepted and auto-detected: hierarchical
// JSONL (-trace-format=flight) and Chrome trace-event JSON
// (-trace-format=perfetto). Flat JSONL (the default -trace output)
// parses too, but carries no span hierarchy, so the parent-dependent
// reports (self time, critical path) degrade to per-span durations.
//
// Exit status follows the tecerr taxonomy (0 ok, 2 invalid input).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

func main() {
	top := flag.Int("top", 10, "number of spans in the top-by-time tables")
	logFlags := obs.BindLogFlags(flag.CommandLine)
	flag.Parse()
	restoreLog, err := logFlags.Install(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tectrace:", err)
		os.Exit(tecerr.ExitCode(tecerr.New(tecerr.CodeInvalidInput, "tectrace", err.Error())))
	}
	defer restoreLog()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tectrace [-top N] trace-file")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *top, os.Stdout); err != nil {
		if l := obs.Logger(); l != nil {
			l.Error("tectrace failed", tecerr.LogAttrs(err)...)
		}
		fmt.Fprintln(os.Stderr, "tectrace:", err)
		os.Exit(tecerr.ExitCode(err))
	}
}

func run(path string, top int, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return tecerr.Wrap(tecerr.CodeInvalidInput, "tectrace", "reading trace", err)
	}
	events, err := parseTrace(data)
	if err != nil {
		return err
	}
	rep := analyze(events, top)
	_, err = io.WriteString(out, rep.format())
	return err
}

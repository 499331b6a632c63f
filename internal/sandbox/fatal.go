package sandbox

import (
	"fmt"
	"strings"
)

// SummarizeFatal builds the deterministic one-line classification of an
// abnormal exit. The Go runtime prints "fatal error: stack overflow" (or
// "panic: ..." for an unrecovered panic) before dying, and those lines are
// stable across runs — unlike the goroutine dump that follows them, which
// is full of addresses and must never reach a reproducible report. The
// worker pool classifies every dead case server with it.
func SummarizeFatal(exitDesc string, stderr []byte) string {
	var runtimeLine string
	for _, line := range strings.Split(string(stderr), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "fatal error:"), strings.HasPrefix(line, "panic:"):
			return fmt.Sprintf("%s (%s)", line, exitDesc)
		case runtimeLine == "" && strings.HasPrefix(line, "runtime:"):
			runtimeLine = line
		}
	}
	if runtimeLine != "" {
		return fmt.Sprintf("%s (%s)", runtimeLine, exitDesc)
	}
	return exitDesc
}

// Command robotron drives the declarative scenario harness
// (internal/scenario): a YAML drill declares a fleet, timed events and
// assertions, and runs against the full stack — design → FBNet →
// config generation → verify → deployment → monitoring → reconciliation
// (SIGCOMM '16, §5) — on a deterministic virtual clock.
//
// Usage:
//
//	robotron sim run [-realtime] [-v] [-journal] <file>...
//	robotron sim validate <file>...
//	robotron sim list [dir]
//	robotron obs <alarms|timeline|series|jobs|reconcile> [-v] [file]
//
// The drills under examples/scenarios cover the life cycle end to end;
// `make sim` runs all of them.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sim":
			os.Exit(runSim(os.Args[2:]))
		case "obs":
			os.Exit(runObs(os.Args[2:]))
		}
	}
	fmt.Fprintln(os.Stderr, "usage: robotron sim <run|validate|list> [flags] [args]")
	fmt.Fprintln(os.Stderr, "       robotron obs <alarms|timeline|series|jobs|reconcile> [flags] [scenario-file]")
	os.Exit(2)
}

// Command hrsweep regenerates the tables and figures of "Microarchitecture
// of a High-Radix Router" (ISCA 2005). Each experiment prints an aligned
// text table whose series correspond to the lines of the paper's figure.
//
// Usage:
//
//	hrsweep -list
//	hrsweep -exp fig9
//	hrsweep -exp all [-quick] [-seed N] [-j N]
//
// -quick runs reduced simulation windows (the scale used by the test
// suite and benchmarks); the default is publication scale, which takes
// minutes for the simulation-heavy figures.
//
// -j sizes the parallel sweep pool the per-figure (arch, load, pattern)
// points fan out on (default: GOMAXPROCS; -j 1 runs serially). Every
// run owns its RNG, so the output is byte-identical at every -j.
// -cache DIR keeps every simulation point in a content-addressed store:
// a rerun simulates only the points the store lacks and prints the same
// bytes, because each table is always its current generator run over
// the points. The store's counters go to stderr.
// -cpuprofile writes a pprof CPU profile of the whole invocation.
//
// After the last table, -exp all prints the paper's claims
// (experiments.Claims) checked against the tables it printed: one row
// per claim with the paper's statement, the measured numbers and the
// verdict. -csv prints no verdicts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"highradix/internal/cache"
	"highradix/internal/experiments"
	"highradix/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, output streams and exit status made
// explicit, so that a test can drive it and a failure at any point
// still runs the deferred profile stop, file close and cache counter
// line.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("hrsweep", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		exp      = flags.String("exp", "", "experiment to run (see -list), or 'all'")
		quick    = flags.Bool("quick", false, "reduced simulation windows")
		seed     = flags.Uint64("seed", 1, "random seed")
		list     = flags.Bool("list", false, "list available experiments")
		csv      = flags.Bool("csv", false, "emit CSV instead of the text table")
		plot     = flags.Bool("plot", false, "append an ASCII plot of the series")
		jobs     = flags.Int("j", 0, "sweep pool workers (0 = GOMAXPROCS, 1 = serial)")
		profile  = flags.String("cpuprofile", "", "write a CPU profile to this file")
		cacheDir = flags.String("cache", "", "content-addressed result cache directory: warm points are read from it byte-identically instead of resimulated")
	)
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	fail := func(status int, err error) int {
		fmt.Fprintln(stderr, "hrsweep:", err)
		return status
	}
	if *jobs < 0 {
		return fail(2, fmt.Errorf("-j %d: want a worker count >= 0", *jobs))
	}

	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range experiments.Registry {
			fmt.Fprintf(stdout, "  %-10s %s\n", e.Name, e.Desc)
		}
		fmt.Fprintln(stdout, "  all        run everything")
		// Asked for, the list is the answer; printed because no -exp
		// was given, it is a usage error.
		if !*list {
			return 2
		}
		return 0
	}

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	scale.Seed = *seed
	scale.Workers = *jobs
	if *cacheDir != "" {
		st, err := cache.Open(*cacheDir)
		if err != nil {
			return fail(1, err)
		}
		scale.Cache = st
		// Stats go to stderr when the run finishes; stdout stays
		// byte-identical to an uncached invocation.
		defer func() {
			c := st.Counters()
			fmt.Fprintf(stderr, "cache: hits=%d misses=%d computes=%d puts=%d corrupt=%d\n",
				c.Hits, c.Misses, c.Computes, c.Puts, c.Corrupt)
		}()
	}

	figure := func(name string) (*stats.Table, error) {
		t0 := time.Now()
		table, _, err := experiments.Table(name, scale)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if *csv {
			fmt.Fprint(stdout, table.CSV())
		} else {
			fmt.Fprint(stdout, table.String())
		}
		if *plot {
			fmt.Fprint(stdout, table.Plot(72, 20))
		}
		// Timing goes to stderr: stdout carries only the tables, so two
		// invocations of one experiment are byte-comparable regardless
		// of wall-clock (which is the point of -cache).
		fmt.Fprintf(stderr, "[%s completed in %.1fs]\n", name, time.Since(t0).Seconds())
		fmt.Fprintln(stdout)
		return table, nil
	}

	if *exp == "all" {
		tables := map[string]*stats.Table{}
		for _, e := range experiments.Registry {
			t, err := figure(e.Name)
			if err != nil {
				return fail(1, err)
			}
			tables[e.Name] = t
		}
		if !*csv {
			fmt.Fprint(stdout, experiments.VerdictTable(experiments.Evaluate(experiments.Claims, tables, !*quick)))
		}
		return 0
	}
	if _, err := experiments.ByName(*exp); err != nil {
		return fail(2, err)
	}
	if _, err := figure(*exp); err != nil {
		return fail(1, err)
	}
	return 0
}

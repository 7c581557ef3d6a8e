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
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"highradix/internal/cache"
	"highradix/internal/experiments"
	"highradix/internal/traffic"
)

func main() { os.Exit(run()) }

// run is main with an exit status instead of os.Exit, so that a failure
// at any point still runs the deferred profile stop, file close and
// cache counter line.
func run() int {
	var (
		exp      = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		quick    = flag.Bool("quick", false, "reduced simulation windows")
		seed     = flag.Uint64("seed", 1, "random seed")
		list     = flag.Bool("list", false, "list available experiments")
		csv      = flag.Bool("csv", false, "emit CSV instead of the text table")
		plot     = flag.Bool("plot", false, "append an ASCII plot of the series")
		jobs     = flag.Int("j", 0, "sweep pool workers (0 = GOMAXPROCS, 1 = serial)")
		profile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		inj      = flag.String("inj", "percycle", "injection sampling: percycle|gap (gap is event-driven, O(events) at low load, distribution-equivalent)")
		cacheDir = flag.String("cache", "", "content-addressed result cache directory: warm points are read from it byte-identically instead of resimulated")
	)
	flag.Parse()

	fail := func(status int, err error) int {
		fmt.Fprintln(os.Stderr, "hrsweep:", err)
		return status
	}
	injMode, err := traffic.InjModeByName(*inj)
	if err != nil {
		return fail(2, err)
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
		fmt.Println("experiments:")
		for _, e := range experiments.Registry {
			fmt.Printf("  %-10s %s\n", e.Name, e.Desc)
		}
		fmt.Println("  all        run everything")
		if *exp == "" {
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
	scale.Injection = injMode
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
			fmt.Fprintf(os.Stderr, "cache: hits=%d misses=%d computes=%d puts=%d corrupt=%d\n",
				c.Hits, c.Misses, c.Computes, c.Puts, c.Corrupt)
		}()
	}

	figure := func(name string) error {
		t0 := time.Now()
		table, _, err := experiments.Table(name, scale)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if *csv {
			fmt.Print(table.CSV())
		} else {
			fmt.Print(table.String())
		}
		if *plot {
			fmt.Print(table.Plot(72, 20))
		}
		// Timing goes to stderr: stdout carries only the tables, so two
		// invocations of one experiment are byte-comparable regardless
		// of wall-clock (which is the point of -cache).
		fmt.Fprintf(os.Stderr, "[%s completed in %.1fs]\n", name, time.Since(t0).Seconds())
		fmt.Println()
		return nil
	}

	if *exp == "all" {
		for _, e := range experiments.Registry {
			if err := figure(e.Name); err != nil {
				return fail(1, err)
			}
		}
		return 0
	}
	if _, err := experiments.ByName(*exp); err != nil {
		return fail(2, err)
	}
	if err := figure(*exp); err != nil {
		return fail(1, err)
	}
	return 0
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// KnownExperiments is every experiment name dssmem accepts, in the
// order `-exp all` runs them. The order matters: it is the published
// output contract (goldens diff against it), and it front-loads the
// cheap table before the sweeps. The list is the scenario package's
// preset registry — every named experiment is a preset spec.
var KnownExperiments = scenario.PresetNames()

// IsKnown reports whether name is a valid experiment ("all" is not an
// experiment; callers expand it over KnownExperiments).
func IsKnown(name string) bool {
	for _, k := range KnownExperiments {
		if k == name {
			return true
		}
	}
	return false
}

// Render runs one experiment through this Exec and writes its report to
// w. The text is byte-for-byte what cmd/dssmem historically printed for
// that experiment. Experiments that share measurements (fig6/fig7 share
// the baseline runs, fig8/fig9 the line sweep, fig10/fig11 the cache
// sweep, fig13 the baseline again) deduplicate through the pool's
// result cache instead of through caller-side plumbing.
//
// When the Exec was built with a metrics registry, each successful
// render observes its wall-clock into dssmem_experiment_seconds{exp}
// and charges the simulated cycles of its results (where the result
// type carries clocks) to dssmem_experiment_simulated_cycles_total.
// Metrics go to the side channel only; the rendered bytes are
// untouched.
func (e *Exec) Render(w io.Writer, name string, o Options) error {
	start := time.Now()
	err := e.renderExperiment(w, name, o)
	if err == nil {
		e.met.seconds.With(name).Observe(time.Since(start).Seconds())
	}
	return err
}

// queryClocks extracts the per-query completion clocks of a cold run.
func queryClocks(results []QueryResult) []int64 {
	out := make([]int64, len(results))
	for i, r := range results {
		out[i] = r.Report.MaxClock()
	}
	return out
}

// sweepClocks extracts the per-point completion clocks of a sweep.
func sweepClocks(points []SweepPoint) []int64 {
	out := make([]int64, len(points))
	for i, p := range points {
		out[i] = p.Clock
	}
	return out
}

// ablationClocks extracts the per-point clocks of an ablation sweep.
func ablationClocks(points []AblationPoint) []int64 {
	out := make([]int64, len(points))
	for i, p := range points {
		out[i] = p.Clock
	}
	return out
}

func (e *Exec) renderExperiment(w io.Writer, name string, o Options) error {
	switch name {
	case "table1":
		t, err := e.Table1(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Table 1: operations in the read-only TPC-D queries")
		fmt.Fprint(w, t)

	case "fig6":
		baseline, err := e.RunCold(o, machine.Baseline())
		if err != nil {
			return err
		}
		e.addCycles(name, queryClocks(baseline)...)
		a, b := Fig6(baseline)
		fmt.Fprintln(w, "Figure 6(a): execution time breakdown")
		fmt.Fprint(w, a)
		fmt.Fprintln(w, "\nFigure 6(b): memory stall time by data structure")
		fmt.Fprint(w, b)

	case "fig7":
		baseline, err := e.RunCold(o, machine.Baseline())
		if err != nil {
			return err
		}
		e.addCycles(name, queryClocks(baseline)...)
		for _, r := range baseline {
			l1, l2, rates := Fig7(r)
			fmt.Fprintf(w, "Figure 7: %s primary-cache read misses (normalized to 100)\n", r.Query)
			fmt.Fprint(w, l1)
			fmt.Fprintf(w, "\nFigure 7: %s secondary-cache read misses (normalized to 100)\n", r.Query)
			fmt.Fprint(w, l2)
			fmt.Fprintln(w, rates)
			fmt.Fprintln(w)
		}

	case "fig8":
		lineSweep, err := e.RunLineSweep(o)
		if err != nil {
			return err
		}
		e.addCycles(name, sweepClocks(lineSweep)...)
		for _, q := range o.Queries {
			l1, l2 := Fig8(lineSweep, q)
			fmt.Fprintf(w, "Figure 8: %s misses vs line size, primary cache (baseline 64B = 100)\n", q)
			fmt.Fprint(w, l1)
			fmt.Fprintf(w, "\nFigure 8: %s misses vs line size, secondary cache\n", q)
			fmt.Fprint(w, l2)
			fmt.Fprintln(w)
		}

	case "fig9":
		lineSweep, err := e.RunLineSweep(o)
		if err != nil {
			return err
		}
		e.addCycles(name, sweepClocks(lineSweep)...)
		for _, q := range o.Queries {
			fmt.Fprintf(w, "Figure 9: %s execution time vs line size (baseline 64B = 100)\n", q)
			fmt.Fprint(w, Fig9(lineSweep, q))
			fmt.Fprintln(w)
		}

	case "fig10":
		cacheSweep, err := e.RunCacheSweep(o)
		if err != nil {
			return err
		}
		e.addCycles(name, sweepClocks(cacheSweep)...)
		for _, q := range o.Queries {
			l1, l2 := Fig10(cacheSweep, q)
			fmt.Fprintf(w, "Figure 10: %s misses vs cache size, primary cache (baseline 128KB L2 = 100)\n", q)
			fmt.Fprint(w, l1)
			fmt.Fprintf(w, "\nFigure 10: %s misses vs cache size, secondary cache\n", q)
			fmt.Fprint(w, l2)
			fmt.Fprintln(w)
		}

	case "fig11":
		cacheSweep, err := e.RunCacheSweep(o)
		if err != nil {
			return err
		}
		e.addCycles(name, sweepClocks(cacheSweep)...)
		for _, q := range o.Queries {
			fmt.Fprintf(w, "Figure 11: %s execution time vs cache size (baseline = 100)\n", q)
			fmt.Fprint(w, Fig11(cacheSweep, q))
			fmt.Fprintln(w)
		}

	case "fig12":
		results, err := e.RunWarmCache(o)
		if err != nil {
			return err
		}
		for _, q := range []string{"Q3", "Q12"} {
			fmt.Fprintf(w, "Figure 12: %s secondary-cache misses, cold vs warmed (cold = 100)\n", q)
			fmt.Fprint(w, Fig12(results, q))
			fmt.Fprintln(w)
		}

	case "update":
		results, err := RunUpdate(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Extension: the update functions the paper declined to trace")
		fmt.Fprintln(w, "(relation-level locking makes writers serialize; cf. Section 2.2.2)")
		fmt.Fprint(w, UpdateTable(results))

	case "ablations":
		// The three sweeps are independent jobs on their own fresh
		// systems: one batch lets them run side by side.
		sections := []struct{ title, axis, query string }{
			{"Ablation: prefetch degree on Q6 (paper fixes 4)", scenario.AxisPrefetch, "Q6"},
			{"Ablation: write-buffer depth on Q6 (paper fixes 16)", scenario.AxisWriteBuf, "Q6"},
			{"Ablation: directory contention on Q3 (paper models all but network)", scenario.AxisContention, "Q3"},
		}
		jobs := make([]*runner.Job, len(sections))
		for i, sec := range sections {
			jobs[i] = e.runConfigs(o, sec.axis, sec.query)
		}
		sweeps, err := e.runAblations(jobs...)
		if err != nil {
			return err
		}
		for i, pts := range sweeps {
			if i > 0 {
				fmt.Fprintln(w)
			}
			e.addCycles(name, ablationClocks(pts)...)
			fmt.Fprintln(w, sections[i].title)
			fmt.Fprint(w, AblationTable(pts))
		}

	case "intraquery":
		results, err := RunIntraQuery(o)
		if err != nil {
			return err
		}
		for _, r := range results {
			e.addCycles(name, r.Clock)
		}
		fmt.Fprintln(w, "Extension: intra-query parallelism (a paper future-work item):")
		fmt.Fprintln(w, "one Q6 page-partitioned across the processors vs the paper's")
		fmt.Fprintln(w, "inter-query model")
		fmt.Fprint(w, IntraQueryTable(results))

	case "streams":
		points, err := RunStreams(o, 9)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Extension: multi-round query streams on 1MB/32MB caches")
		fmt.Fprintln(w, "(later rounds of Sequential queries run on warm data)")
		fmt.Fprint(w, StreamsTable(points))

	case "topology":
		results, err := e.CompareTopology(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Extension: directory CC-NUMA (the paper's machine) vs a")
		fmt.Fprintln(w, "bus-based snooping SMP with identical caches (per-query numa = 100);")
		fmt.Fprintln(w, "at only 4 processors the bus's shorter round trip beats remote NUMA")
		fmt.Fprintln(w, "latency — the paper's NUMA is built for scaling beyond a bus's reach")
		fmt.Fprint(w, TopologyTable(results))

	case "scorecard":
		claims, err := e.RunScorecard(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Scorecard: the paper's headline claims graded against this run")
		fmt.Fprint(w, ScorecardTable(claims))
		failed := 0
		for _, c := range claims {
			if !c.Pass {
				failed++
			}
		}
		fmt.Fprintf(w, "%d/%d claims hold\n", len(claims)-failed, len(claims))

	case "fig13":
		results, err := e.RunPrefetch(o)
		if err != nil {
			return err
		}
		for _, r := range results {
			e.addCycles(name, r.BaseClk, r.OptClk)
		}
		fmt.Fprintln(w, "Figure 13: impact of sequential data prefetching (Base = 100)")
		fmt.Fprint(w, Fig13(results))

	case "mixedstreams":
		res, err := e.RunScenario(applyOptions(presetScenario("mixedstreams"), o))
		if err != nil {
			return err
		}
		e.addCycles(name, streamClocks(res.Stream)...)
		fmt.Fprintln(w, "Extension: concurrent client streams mixing reads and updates")
		fmt.Fprintln(w, "(phases share cache/buffer state; Index: Q3,Q12; Sequential: Q6)")
		fmt.Fprint(w, StreamPhaseTable(res.Stream))
		fmt.Fprintln(w, "\nPer-phase secondary-cache misses by structure (phase 0 = 100)")
		fmt.Fprint(w, StreamMissTable(res.Stream))

	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// Command laxtrace renders per-job trace waterfalls and fleet-wide slack
// attribution from a live laxd/laxgw daemon or a recorded trace file (laxtrace
// -o, or a simulated run's laxsim -trace).
//
// Usage:
//
//	laxtrace                          # recent traces from :8080: miss causes + slack thieves
//	laxtrace -job 7                   # one job's waterfall + attribution
//	laxtrace -addr http://gw:8090 -n 50 -top 10
//	laxtrace -o traces.json           # record the fetched docs for later
//	laxtrace -file traces.json        # analyze a recording offline
//	laxtrace -file t.json             # ... or a simulated run (laxsim -run CELL -trace t.json)
//	laxtrace -job 7 -perfetto out.json  # also export the waterfall for ui.perfetto.dev
//
// A waterfall is the job's phase partition (parse | queue | exec) plus its
// kernel spans and instant events, drawn against the job's latency; the
// attribution table below it shows each phase's share of the slack budget
// (deadline − arrival) and, for misses, the dominant-cause verdict. The
// multi-trace report aggregates the same data: a miss-cause breakdown and
// the top-K "slack thieves" — the phases that consumed the most slack across
// missed jobs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"laxgpu/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("laxtrace", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8080", "laxd or laxgw base URL")
		job      = fs.Int64("job", -1, "render one job's waterfall (default: analyze recent traces)")
		n        = fs.Int("n", 20, "recent traces to fetch")
		top      = fs.Int("top", 5, "top-K slack thieves to list")
		file     = fs.String("file", "", "read recorded trace docs (JSON) instead of HTTP")
		record   = fs.String("o", "", "write the fetched trace docs to this JSON file")
		width    = fs.Int("width", 48, "waterfall bar width in columns")
		perfetto = fs.String("perfetto", "", "export the analyzed traces as Perfetto JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	docs, err := load(*file, strings.TrimRight(*addr, "/"), *job, *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "laxtrace:", err)
		return 1
	}
	if len(docs) == 0 {
		fmt.Fprintln(os.Stderr, "laxtrace: no traces (is tracing enabled and has a job finished?)")
		return 1
	}
	if *record != "" {
		if err := writeDocs(*record, docs); err != nil {
			fmt.Fprintln(os.Stderr, "laxtrace:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "laxtrace: recorded %d trace(s) to %s\n", len(docs), *record)
	}

	if *job >= 0 || len(docs) == 1 {
		waterfall(out, docs[0], *width)
	} else {
		summarize(out, docs, *top)
	}

	if *perfetto != "" {
		p := obs.NewPerfetto()
		for _, d := range docs {
			p.AddWireTrace(d.Trace)
		}
		if err := p.WriteFile(*perfetto); err != nil {
			fmt.Fprintln(os.Stderr, "laxtrace:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "laxtrace: wrote Perfetto trace to %s\n", *perfetto)
	}
	return 0
}

// load gathers trace docs from a recording, a single job endpoint, or the
// recent-traces listing.
func load(file, base string, job int64, n int) ([]obs.TraceDoc, error) {
	if file != "" {
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return obs.ParseTraceDocs(raw)
	}
	if job >= 0 {
		raw, err := httpGet(fmt.Sprintf("%s/v1/jobs/%d/trace", base, job))
		if err != nil {
			return nil, err
		}
		var doc obs.TraceDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, err
		}
		return []obs.TraceDoc{doc}, nil
	}
	raw, err := httpGet(fmt.Sprintf("%s/v1/traces?n=%d", base, n))
	if err != nil {
		return nil, err
	}
	return obs.ParseTraceDocs(raw)
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

func writeDocs(path string, docs []obs.TraceDoc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := obs.WriteTraceDocs(f, docs)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// waterfall renders one trace as an ASCII timeline: every span gets a bar
// positioned against the job's latency, instants get a '|' marker, followed
// by the slack-budget attribution table.
func waterfall(out io.Writer, doc obs.TraceDoc, width int) {
	t := doc.Trace
	if width < 10 {
		width = 10
	}
	verdict := "MET"
	if !t.Met {
		verdict = "MISS"
	}
	if t.State != "done" {
		verdict = strings.ToUpper(t.State)
	}
	fmt.Fprintf(out, "job %s (%s) trace %s — %s, slack %.0fus, latency %.0fus\n",
		t.Job, t.Benchmark, t.TraceID, verdict, t.SlackUs, t.LatencyUs)
	span := t.LatencyUs
	for _, s := range t.Spans {
		if s.EndUs > span {
			span = s.EndUs
		}
	}
	if span <= 0 {
		span = 1
	}
	scale := float64(width) / span
	for _, s := range t.Spans {
		bar := make([]byte, width+1)
		for i := range bar {
			bar[i] = ' '
		}
		// A hostile or clock-skewed doc can put a span outside [0, span].
		from := min(max(int(s.StartUs*scale), 0), width)
		to := min(max(int(s.EndUs*scale), 0), width)
		if s.EndUs > s.StartUs {
			for i := from; i <= to; i++ {
				bar[i] = '='
			}
			fmt.Fprintf(out, "  [%s] %-8s %-14s %9.1f..%-9.1fus %-8s %s\n",
				string(bar), s.Kind, s.Name, s.StartUs, s.EndUs, s.Node, s.Detail)
			continue
		}
		bar[from] = '|'
		fmt.Fprintf(out, "  [%s] %-8s %-14s %9.1fus           %-8s %s\n",
			string(bar), s.Kind, s.Name, s.StartUs, s.Node, s.Detail)
	}
	fmt.Fprintln(out, "slack attribution:")
	for _, p := range doc.Attribution.Phases {
		fmt.Fprintf(out, "  %-10s %10.1fus  %5.1f%% of slack\n", p.Name, p.DurUs, p.PctOfSlack)
	}
	if doc.Attribution.Cause != "" {
		fmt.Fprintf(out, "  verdict: %s — %s\n", doc.Attribution.Cause, doc.Attribution.Detail)
	}
}

// summarize prints the multi-trace report: outcome counts, the miss-cause
// breakdown, and the top-K slack thieves across missed jobs.
func summarize(out io.Writer, docs []obs.TraceDoc, top int) {
	met, missed := 0, 0
	causes := map[string]int{}
	thief := map[string]float64{} // phase name -> slack-µs consumed across misses
	for _, d := range docs {
		if d.Trace.Met {
			met++
			continue
		}
		missed++
		if d.Attribution.Cause != "" {
			causes[d.Attribution.Cause]++
		}
		for _, p := range d.Attribution.Phases {
			thief[p.Name] += p.DurUs
		}
	}
	fmt.Fprintf(out, "laxtrace: %d trace(s): %d met, %d missed\n", len(docs), met, missed)
	if len(causes) > 0 {
		fmt.Fprintln(out, "miss causes:")
		for _, k := range sortedKeys(causes) {
			fmt.Fprintf(out, "  %-10s %4d  (%.0f%% of misses)\n",
				k, causes[k], 100*float64(causes[k])/float64(missed))
		}
	}
	if len(thief) > 0 {
		type row struct {
			name string
			us   float64
		}
		rows := make([]row, 0, len(thief))
		for k, v := range thief {
			rows = append(rows, row{k, v})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].us != rows[j].us {
				return rows[i].us > rows[j].us
			}
			return rows[i].name < rows[j].name
		})
		if top > 0 && len(rows) > top {
			rows = rows[:top]
		}
		fmt.Fprintf(out, "top %d slack thieves (phase-µs across missed jobs):\n", len(rows))
		for _, r := range rows {
			fmt.Fprintf(out, "  %-10s %12.1fus\n", r.name, r.us)
		}
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

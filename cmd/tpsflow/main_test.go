package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tps"
	"tps/internal/serve"
)

// A hand-written scenario through the -scenario code path: quadratic
// placement, discretization, then a protected relocation pass that
// demands an impossible slack improvement (tol=-1e9) — the robustness
// layer must reject and roll it back, and the flow must still finish
// with a consistent design and metrics.
const guardedScript = `# hand-written scenario: placement + guarded relocation
scenario guarded-demo
set objective slack
set budget 16
init {
  mode m=wireload
  assign_gains gain=4
  discretize_actual setmode=0
  qplace
  subdivide_full
  legalize
  sync
  mode m=actual
  # must improve worst slack by 1e9 ps to be kept - always rejected
  relieve frac=0.25 protect tol=-1e9
  logslack label=after-guard
}
final {
  evaluate flow=demo
}
`

func TestRunScenarioFileWithRejectedStep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "guarded.tps")
	if err := os.WriteFile(path, []byte(guardedScript), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.jsonl")
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}

	d := tps.NewDesign(tps.DesignParams{Name: "cli", NumGates: 300, Levels: 8, Seed: 3})
	defer d.Close()
	d.SetTrace(tps.NewJSONLTracer(tf))

	m, err := runScenarioFile(d, path)
	if err != nil {
		t.Fatalf("scenario run failed: %v", err)
	}
	tf.Close()

	if m.Flow != "demo" || m.ICells == 0 {
		t.Fatalf("bad metrics from scenario: %+v", m)
	}
	ctx := d.Context()
	if ctx.Rejects < 1 {
		t.Fatalf("rejects = %d, want ≥ 1 (the guarded relieve step must be rolled back)", ctx.Rejects)
	}
	if err := d.Netlist().Check(); err != nil {
		t.Fatalf("netlist inconsistent after rollback: %v", err)
	}

	// The JSONL trace must be parseable and must record the rejection.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sawReject := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e tps.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if e.Type == "reject" && e.Step == "relieve" {
			sawReject = true
		}
	}
	if !sawReject {
		t.Fatal("trace has no reject event for the guarded relieve step")
	}
}

func TestScenarioFileErrors(t *testing.T) {
	d := tps.NewDesign(tps.DesignParams{Name: "cli", NumGates: 100, Levels: 6, Seed: 4})
	defer d.Close()
	if _, err := runScenarioFile(d, filepath.Join(t.TempDir(), "missing.tps")); err == nil {
		t.Error("missing scenario file not reported")
	}
	bad := filepath.Join(t.TempDir(), "bad.tps")
	os.WriteFile(bad, []byte("scenario x\ninit {\nnot_a_transform\n}\n"), 0o644)
	if _, err := runScenarioFile(d, bad); err == nil {
		t.Error("unknown transform not reported at load")
	}
}

// traced owns every tpsflow trace file: it closes the stream with
// flow_end carrying the run's error, and a trace it cannot write fails
// the command instead of leaving an empty file behind a zero exit.
func TestTracedClosesAndReportsWriteErrors(t *testing.T) {
	boom := errors.New("boom")
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	err := traced(path, func(tr tps.Tracer) error {
		if tr == nil {
			t.Fatal("no tracer handed to the run despite a trace path")
		}
		return boom
	})
	if !errors.Is(err, boom) || err.Error() != "boom" {
		t.Fatalf("traced returned %v, want the run's error alone", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var end tps.TraceEvent
	if err := json.Unmarshal(b, &end); err != nil || end.Type != tps.EvFlowEnd || end.Err != "boom" {
		t.Fatalf("trace %q does not end with flow_end err=boom (%v)", b, err)
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to provoke a write error")
	}
	if err := traced("/dev/full", func(tps.Tracer) error { return nil }); err == nil {
		t.Fatal("a trace write to a full device was not reported")
	}
}

// submitted prints info as a -submit run does after fetching it from
// tpsd: a done job, through its JSON encoding. It returns what went to
// stdout and to stderr.
func submitted(t *testing.T, info serve.JobInfo) (stdout, stderr string) {
	t.Helper()
	info.State = serve.JobDone
	b, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	var fetched serve.JobInfo
	if err := json.Unmarshal(b, &fetched); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if err := reportJob(&out, &errw, fetched); err != nil {
		t.Fatal(err)
	}
	return out.String(), errw.String()
}

// A local -portfolio or -autotune run and the same job through -submit
// print one report: the winner lines are the same bytes, and -submit
// moves only the race's verdict table to stderr.
func TestReportSameLocalAndSubmit(t *testing.T) {
	d := tps.NewDesign(tps.DesignParams{Name: "cli", NumGates: 60, Levels: 4, Seed: 1})
	defer d.Close()

	race, err := tps.ParseRaceSpec("portfolio r\nentrant name=a flow=tps seed=1\nentrant name=b flow=spr seed=2\n", flowResolver(""))
	if err != nil {
		t.Fatal(err)
	}
	rres, err := d.Race(context.Background(), *race)
	if err != nil {
		t.Fatal(err)
	}
	m := rres.Verdicts[rres.Winner].Metrics
	var local bytes.Buffer
	printRace(&local, &local, serve.RaceSummary(rres), m)
	out, table := submitted(t, serve.JobInfo{Metrics: m, Race: serve.RaceSummary(rres)})
	if !strings.Contains(out, "RACE winner=") || table+out != local.String() {
		t.Fatalf("race report differs:\nlocal:\n%s\n-submit stderr:\n%s\n-submit stdout:\n%s", &local, table, out)
	}

	search, err := tps.ParseAutotuneSpec("autotune s\nflow tps\npopulation 1\noffspring 1\ngenerations 1\nseed 2\n", flowResolver(""))
	if err != nil {
		t.Fatal(err)
	}
	ares, err := d.Autotune(context.Background(), *search)
	if err != nil {
		t.Fatal(err)
	}
	failedBase := *ares
	failedBase.BaseObjective = math.Inf(-1)
	for _, res := range []*tps.AutotuneResult{ares, &failedBase} {
		var local bytes.Buffer
		printAutotune(&local, serve.AutotuneSummary(res))
		out, errw := submitted(t, serve.JobInfo{Metrics: res.BestMetrics, Autotune: serve.AutotuneSummary(res)})
		if !strings.Contains(out, "AUTOTUNE winner=") || out != local.String() || errw != "" {
			t.Fatalf("search report differs:\nlocal:\n%s\n-submit stdout:\n%s\n-submit stderr:\n%s", &local, out, errw)
		}
		if res == &failedBase && !strings.Contains(out, " baseline=-Inf ") {
			t.Errorf("failed base flow not reported as baseline=-Inf:\n%s", out)
		}
	}
}

package tps

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewDesignAndAccessors(t *testing.T) {
	d := NewDesign(DesignParams{Name: "api", NumGates: 200, Levels: 6, Seed: 1})
	defer d.Close()
	if d.Netlist() == nil || d.Timing() == nil || d.Context() == nil {
		t.Fatal("nil accessors")
	}
	if d.Period() <= 0 {
		t.Fatalf("period %g", d.Period())
	}
	if w, h := d.Chip(); w <= 0 || h <= 0 {
		t.Fatalf("chip %gx%g", w, h)
	}
	if d.WireLength() < 0 {
		t.Fatalf("wirelength")
	}
	m := d.Evaluate()
	if m.ICells == 0 {
		t.Fatalf("no cells in metrics")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := NewDesign(DesignParams{Name: "rt", NumGates: 150, Levels: 6, Seed: 2})
	defer d.Close()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Netlist().NumGates() != d.Netlist().NumGates() {
		t.Fatalf("gate counts differ")
	}
	if d2.Period() != d.Period() {
		t.Fatalf("period differs")
	}
}

func TestLoadRejectsUnconstrained(t *testing.T) {
	if _, err := Load(strings.NewReader("design x\nnet n\n")); err == nil {
		t.Fatal("no error for missing period")
	}
	if _, err := Load(strings.NewReader("design x\nperiod 100\n")); err == nil {
		t.Fatal("no error for missing chip")
	}
}

func TestRunTPSPublicAPI(t *testing.T) {
	d := NewDesign(DesignParams{Name: "flow", NumGates: 250, Levels: 6, Seed: 3})
	defer d.Close()
	opt := DefaultTPSOptions()
	opt.SkipRouting = true
	opt.TransformBudget = 8
	m, err := d.RunTPS(opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Flow != "TPS" {
		t.Fatalf("flow %q", m.Flow)
	}
	if err := d.CheckLegal(); err != nil {
		t.Fatal(err)
	}
}

// A failed built-in flow is an error, not a panic: an objective outside
// the engine's vocabulary fails RunTPS and RunSPR before any step runs.
func TestRunFlowsReturnErrors(t *testing.T) {
	runs := map[string]func(*Design) (Metrics, error){
		"TPS": func(d *Design) (Metrics, error) { return d.RunTPS(DefaultTPSOptions()) },
		"SPR": func(d *Design) (Metrics, error) { return d.RunSPR(DefaultSPROptions()) },
	}
	for flow, run := range runs {
		d := NewDesign(DesignParams{Name: "bad", NumGates: 120, Levels: 5, Seed: 1})
		d.Context().Params = map[string]string{"objective": "area"}
		_, err := run(d)
		d.Close()
		if err == nil || !strings.Contains(err.Error(), `unknown objective "area"`) {
			t.Errorf("%s with objective=area: err = %v, want unknown objective", flow, err)
		}
	}
}

func TestTable1ParamsExposed(t *testing.T) {
	for i := 1; i <= 5; i++ {
		p, err := Table1Params(i, 0.05)
		if err != nil || p.NumGates <= 0 || p.Name == "" {
			t.Fatalf("Des%d params %+v, err %v", i, p, err)
		}
	}
}

// TestTable1ParamsRejectsUnknownDesign: an index outside 1–5 is caller
// input, so it must come back as an error, not a panic.
func TestTable1ParamsRejectsUnknownDesign(t *testing.T) {
	for _, i := range []int{0, 6, -1} {
		if _, err := Table1Params(i, 0.05); err == nil {
			t.Errorf("Table1Params(%d) returned no error", i)
		}
	}
}

func TestWireLoadHistogramsAPI(t *testing.T) {
	d := NewDesign(DesignParams{Name: "h", NumGates: 250, Levels: 6, Seed: 4})
	defer d.Close()
	opt := DefaultTPSOptions()
	opt.SkipRouting = true
	opt.TransformBudget = 8
	if _, err := d.RunTPS(opt); err != nil {
		t.Fatal(err)
	}
	hs := d.WireLoadHistograms([]float64{0, 0.2}, 10, 50)
	if len(hs) != 2 {
		t.Fatalf("histograms %d", len(hs))
	}
	sum := 0
	for _, c := range hs[0].Counts {
		sum += c
	}
	if sum == 0 {
		t.Fatal("empty histogram")
	}
}

func TestDefaultLibraryExposed(t *testing.T) {
	lib := DefaultLibrary()
	if lib.Cell("INV") == nil {
		t.Fatal("library not wired")
	}
}

package scenario_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netlist"
	"tps/internal/scenario"

	// Link the full transform registry (core blank-imports every
	// transform package).
	_ "tps/internal/core"
)

// Test-only transforms. Registered once for the package.
func init() {
	scenario.Register(scenario.Transform{
		Name: "probe", Doc: "test: record the status at each execution",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			hits, _ := c.Scratch["probe"].([]int)
			c.Scratch["probe"] = append(hits, c.Status)
			return scenario.Report{Changed: 1}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "spoil_wire", Doc: "test: fling alternate gates to opposite die corners",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			n := 0
			c.NL.Gates(func(g *netlist.Gate) {
				if !g.IsPad() && !g.Fixed {
					if n%2 == 0 {
						c.NL.MoveGate(g, 0, 0)
					} else {
						c.NL.MoveGate(g, c.ChipW-1, c.ChipH-1)
					}
					n++
				}
			})
			return scenario.Report{Changed: n}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "noop_ok", Doc: "test: does nothing",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			return scenario.Report{}, nil
		},
	})
	scenario.Register(scenario.Transform{
		Name: "fail", Doc: "test: always errors",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			return scenario.Report{}, errTest
		},
	})
	scenario.Register(scenario.Transform{
		Name: "sleepy", Doc: "test: sleeps 30ms",
		Run: func(c *scenario.Context, a scenario.Args) (scenario.Report, error) {
			time.Sleep(30 * time.Millisecond)
			return scenario.Report{}, nil
		},
	})
}

type testErr struct{}

func (testErr) Error() string { return "deliberate test failure" }

var errTest = testErr{}

func rig(t *testing.T, seed int64) *scenario.Context {
	t.Helper()
	p, err := gen.Des(1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = seed
	d := gen.Generate(cell.Default(), p)
	c := scenario.NewContext(d, seed)
	c.SetWorkers(1)
	t.Cleanup(c.Close)
	return c
}

func mustParse(t *testing.T, text string) *scenario.Script {
	t.Helper()
	s, err := scenario.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\nscript:\n%s", err, text)
	}
	return s
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, script, want string }{
		{"no-name", "init {\n}\n", "no `scenario <name>`"},
		{"unterminated", "scenario x\ninit {\nnoop_ok\n", "unterminated init"},
		{"unknown-transform", "scenario x\ninit {\nbogus_step\n}\n", `unknown transform "bogus_step"`},
		{"protect-structural", "scenario x\ninit {\npartition protect\n}\n", "structural and cannot be protected"},
		{"bad-window", "scenario x\ninit {\nnoop_ok at banana\n}\n", "bad window"},
		{"bad-repeat", "scenario x\nrepeat zero {\nnoop_ok\n}\n", "bad repeat count"},
		{"bad-condition", "scenario x\ninit {\nnoop_ok when phase=moon\n}\n", "unknown condition"},
		{"bad-mode", "scenario x\ninit {\nnoop_ok when mode=psychic\n}\n", "unknown mode"},
		{"stray-token", "scenario x\ninit {\nnoop_ok rogue\n}\n", "unexpected token"},
		{"outside-block", "scenario x\nnoop_ok\n", "outside a block"},
	}
	for _, tc := range cases {
		_, err := scenario.Parse(tc.script)
		if err == nil {
			t.Errorf("%s: parse accepted bad script", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseStepOptions(t *testing.T) {
	s := mustParse(t, `
scenario opts
set budget 7
status {
  noop_ok at 30..50 when mode=actual once tol=2.5 maxsec=9 extra=v
  noop_ok at 20..
  noop_ok at ..40
  noop_ok at 80+ protect
}
`)
	if s.Name != "opts" || s.Params["budget"] != "7" {
		t.Fatalf("header parsed wrong: %+v", s)
	}
	st := s.Blocks[0].Steps
	if st[0].Lo != 30 || st[0].Hi != 50 || st[0].WhenMode != "actual" || !st[0].Once ||
		st[0].Tol != 2.5 || st[0].MaxSec != 9 || st[0].Args["extra"] != "v" {
		t.Errorf("full step parsed wrong: %+v", st[0])
	}
	if st[1].Lo != 20 || st[1].Hi != 101 {
		t.Errorf("open-high window parsed wrong: %+v", st[1])
	}
	if st[2].Lo != -1 || st[2].Hi != 40 {
		t.Errorf("open-low window parsed wrong: %+v", st[2])
	}
	if st[3].Lo != 80 || !st[3].GE || !st[3].Protect {
		t.Errorf("a+ window parsed wrong: %+v", st[3])
	}
}

// Status triggers replicate the legacy loop's crossing semantics: with
// step 20, a 30..50 window fires on the advances 20→40 and 40→60 (both
// overlap the open interval), never before or after.
func TestStatusWindowCrossing(t *testing.T) {
	c := rig(t, 1)
	s := mustParse(t, `
scenario windows
set step 20
status {
  probe at 30..50
}
`)
	if _, err := scenario.Run(c, s); err != nil {
		t.Fatal(err)
	}
	hits, _ := c.Scratch["probe"].([]int)
	want := []int{40, 60}
	if len(hits) != len(want) || hits[0] != want[0] || hits[1] != want[1] {
		t.Errorf("30..50 with step 20 fired at %v, want %v", hits, want)
	}
}

func TestOnceRetiresStep(t *testing.T) {
	c := rig(t, 2)
	s := mustParse(t, `
scenario once
set step 25
status {
  probe at 30.. once
}
`)
	if _, err := scenario.Run(c, s); err != nil {
		t.Fatal(err)
	}
	hits, _ := c.Scratch["probe"].([]int)
	if len(hits) != 1 || hits[0] != 50 {
		t.Errorf("once step fired at %v, want [50]", hits)
	}
}

func TestUnprotectedErrorAborts(t *testing.T) {
	c := rig(t, 3)
	s := mustParse(t, "scenario boom\ninit {\nfail\n}\n")
	_, err := scenario.Run(c, s)
	if err == nil || !strings.Contains(err.Error(), "deliberate test failure") {
		t.Fatalf("unprotected failure did not abort the run: %v", err)
	}
}

// The robustness layer: a protected step that wrecks the wire objective
// is rolled back — netlist and image state return to the checkpoint and
// the step counts as rejected; a protected no-op is accepted. The trace
// stream records both outcomes.
func TestProtectedStepRollback(t *testing.T) {
	c := rig(t, 4)
	var buf bytes.Buffer
	c.Trace = scenario.NewJSONLTracer(&buf)

	wireBefore := c.St.Total()
	s := mustParse(t, `
scenario guardrails
set objective wire
init {
  noop_ok protect
  spoil_wire protect tol=0
}
`)
	if _, err := scenario.Run(c, s); err != nil {
		t.Fatal(err)
	}
	if c.Accepts != 1 || c.Rejects != 1 {
		t.Fatalf("accepts=%d rejects=%d, want 1/1", c.Accepts, c.Rejects)
	}
	if err := c.NL.Check(); err != nil {
		t.Fatalf("netlist inconsistent after rollback: %v", err)
	}
	if got := c.St.Total(); got != wireBefore {
		t.Errorf("wire %.1f after rollback, want %.1f", got, wireBefore)
	}

	// The JSONL trace must carry the reject with its reason.
	var rejects, accepts int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e scenario.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch e.Type {
		case scenario.EvReject:
			rejects++
			if e.Step != "spoil_wire" || e.Reason != "regression" {
				t.Errorf("reject event wrong: %+v", e)
			}
			if e.ObjBefore == nil || e.ObjAfter == nil || *e.ObjAfter >= *e.ObjBefore {
				t.Errorf("reject objectives wrong: %+v", e)
			}
		case scenario.EvStepEnd:
			if e.Accepted {
				accepts++
			}
		}
	}
	if rejects != 1 || accepts != 1 {
		t.Errorf("trace shows %d rejects / %d accepted protected steps, want 1/1", rejects, accepts)
	}
}

// An objective outside the vocabulary fails the run before its first
// step, whether a script `set` line or a Context.Params overlay (a race
// entrant's, a CLI override) names it — it is never silently judged as
// slack.
func TestUnknownObjectiveRejected(t *testing.T) {
	script := "scenario o\n%sinit {\n  noop_ok protect\n}\n"
	for _, tc := range []struct {
		name, set string
		params    map[string]string
	}{
		{"set line", "set objective area\n", nil},
		{"params overlay", "set objective wire\n", map[string]string{"objective": "area"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := rig(t, 6)
			c.Params = tc.params
			_, err := scenario.Run(c, mustParse(t, fmt.Sprintf(script, tc.set)))
			if err == nil || !strings.Contains(err.Error(), `unknown objective "area"`) {
				t.Fatalf("err = %v, want the unknown objective", err)
			}
			if c.Accepts+c.Rejects != 0 {
				t.Fatalf("%d protected steps judged under an unknown objective", c.Accepts+c.Rejects)
			}
		})
	}
	for _, name := range []string{"", "slack", "tns", "wire"} {
		if err := scenario.CheckObjective(name); err != nil {
			t.Errorf("CheckObjective(%q) = %v", name, err)
		}
	}
}

func TestProtectedTimeoutRejected(t *testing.T) {
	c := rig(t, 5)
	s := mustParse(t, "scenario slow\ninit {\nsleepy protect maxsec=0.001\n}\n")
	if _, err := scenario.Run(c, s); err != nil {
		t.Fatal(err)
	}
	if c.Rejects != 1 {
		t.Errorf("rejects=%d, want 1 (wall-clock budget exceeded)", c.Rejects)
	}
}

func TestProtectedErrorRolledBackAndContinues(t *testing.T) {
	c := rig(t, 6)
	s := mustParse(t, "scenario softfail\ninit {\nfail protect\nprobe\n}\n")
	if _, err := scenario.Run(c, s); err != nil {
		t.Fatalf("protected failure aborted the run: %v", err)
	}
	if c.Rejects != 1 {
		t.Errorf("rejects=%d, want 1", c.Rejects)
	}
	if hits, _ := c.Scratch["probe"].([]int); len(hits) != 1 {
		t.Errorf("run did not continue past the rejected step")
	}
}

func TestRepeatBlockConvergence(t *testing.T) {
	c := rig(t, 7)
	// noop never improves slack, so the stall check exits after one
	// iteration despite the cap of 6.
	s := mustParse(t, "scenario conv\nrepeat 6 stall=1 {\nprobe\n}\n")
	m, err := scenario.Run(c, s)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := c.Scratch["probe"].([]int)
	if len(hits) != 1 {
		t.Errorf("stalled repeat ran %d iterations, want 1", len(hits))
	}
	if m.Iterations != 2 {
		t.Errorf("Iterations=%d, want 2 (1 + one repeat iteration)", m.Iterations)
	}
}

func TestParamOverridePrecedence(t *testing.T) {
	c := rig(t, 8)
	c.Params = map[string]string{"step": "50"}
	s := mustParse(t, "scenario override\nset step 5\nstatus {\nprobe\n}\n")
	if _, err := scenario.Run(c, s); err != nil {
		t.Fatal(err)
	}
	hits, _ := c.Scratch["probe"].([]int)
	if len(hits) != 2 {
		t.Errorf("context step override ignored: %d status advances, want 2", len(hits))
	}
}

func TestListAndLookup(t *testing.T) {
	all := scenario.List()
	if len(all) < 25 {
		t.Fatalf("registry has %d transforms, expected the full set (≥25)", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatalf("List not sorted: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
	for _, name := range []string{"partition", "weight", "size_speed", "congest", "route", "qplace"} {
		if scenario.Lookup(name) == nil {
			t.Errorf("transform %q not registered", name)
		}
	}
}

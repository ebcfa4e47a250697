package portfolio_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tps/internal/portfolio"
)

// FuzzParseRaceSpec: no input panics the race spec parser, and every
// spec it accepts passes Validate, so it can be raced as parsed.
func FuzzParseRaceSpec(f *testing.F) {
	examples, err := filepath.Glob("../../examples/portfolio/*.race")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example race specs: %v", err)
	}
	for _, p := range examples {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add("portfolio p\nobjective tns\ndeadline 2.5\nworkers 3\nentrant name=a flow=tps\nentrant name=b script=x.tps seed=42 bound=-5 set.budget=16\n")
	f.Add("portfolio p\nentrant name=a flow=tps\nentrant name=a flow=spr\n")
	f.Add("portfolio p\nobjective area\nentrant flow=tps script=x.tps set.=v\n")
	f.Add("portfolio p\nentrant script=missing\n")

	// flow=tps|spr and script=*.tps resolve to a runnable script; any
	// other script path is a missing file.
	resolve := func(flow, script string) (string, error) {
		if flow == "tps" || flow == "spr" || strings.HasSuffix(script, ".tps") {
			return quickScript, nil
		}
		if flow != "" {
			return "", errors.New("unknown flow " + flow)
		}
		return "", errors.New("no such file " + script)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := portfolio.ParseSpec(text, resolve)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v\ninput: %q", err, text)
		}
	})
}

package autoflow

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseAutotuneSpec: no input panics the autotune spec parser, and
// every spec it accepts passes Validate, so it can be searched as parsed.
func FuzzParseAutotuneSpec(f *testing.F) {
	examples, err := filepath.Glob("../../examples/autoflow/*.at")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example autotune specs: %v", err)
	}
	for _, p := range examples {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add("autotune a\nscript x.tps\nobjective tns\npopulation 3\noffspring 6\nstall 2\ndeadline 2.5\nfreeze qplace sync\ninsert relieve\nweights param=6 cross=2\nparam budget int 4 64\nparam gain float 2 8\nparam reflow enum 0 1\n")
	f.Add("autotune a\nflow tps\nparam k int 1 2\nparam k enum x\n")
	f.Add("autotune a\nflow tps\noffspring 64\nfreeze no_such\n")
	f.Add("autotune a\nscript missing\n")

	// flow tps|spr and script *.tps resolve to a runnable script; any
	// other script path is a missing file.
	resolve := func(flow, script string) (string, error) {
		if flow == "tps" || flow == "spr" || strings.HasSuffix(script, ".tps") {
			return baseScript, nil
		}
		if flow != "" {
			return "", errors.New("unknown flow " + flow)
		}
		return "", errors.New("no such file " + script)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpec(text, resolve)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v\ninput: %q", err, text)
		}
	})
}

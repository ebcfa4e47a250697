package netio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tps/internal/cell"
	"tps/internal/image"
	"tps/internal/netlist"
)

// FuzzRead asserts the parser's contract: for arbitrary input it either
// returns an error or a structurally consistent design — never a design
// that fails later (NaN/negative coordinates, duplicate names, broken
// back-references, a frame past the bin-grid bound). Accepted designs
// must survive a Write→Read round trip, and a State fork of the design
// must equal that round trip in full state, with Steiner trees seeded
// from the State equal to a fresh build (checkForkTrees) and a timing
// pass installed from the State equal to a fork's own (checkForkTiming).
func FuzzRead(f *testing.F) {
	f.Add("design d\nperiod 1000\nchip 100 100\nnet n1\ngate g1 INV size=X1 at 5 5 A=n1\n")
	f.Add("# comment\nperiod 1000\nchip 100 100\nnet clk clock\nnet s scan\n")
	f.Add("design d\ngate g1 INV sizeless gain=4 A=n1\n")
	f.Add("gate g1 NAND2 size=X2 at 1e9 -3 A=a B=b Z=c\n")
	f.Add("net n\nnet n\n")
	f.Add("gate g INV at NaN 5\nperiod -1\nchip NaN 4\n")
	f.Add("design \x00\nperiod 1\nchip 1 1\nnet ü\ngate ü PAD\n")
	f.Add("period 1e308\nchip 1e308 1e308\n")
	f.Add("design d\nperiod 500\nchip 50 50\nnet a\nnet b\nnet z\ngate g NAND2 size=X2 gain=3 Z=z B=b A=a\ngate h INV sizeless gain=2 at -0 7 fixed A=z\n")

	lib := cell.Default()
	f.Fuzz(func(t *testing.T, in string) {
		d, err := Read(strings.NewReader(in), lib)
		if err != nil {
			return
		}
		if err := d.NL.Check(); err != nil {
			t.Fatalf("accepted inconsistent netlist: %v\ninput: %q", err, in)
		}
		if !(d.Period > 0) || !(d.ChipW > 0) || !(d.ChipH > 0) ||
			math.IsInf(d.Period, 1) || math.IsInf(d.ChipW, 1) || math.IsInf(d.ChipH, 1) ||
			image.LevelFor(d.ChipH, lib.Tech.RowHeight) > image.MaxGridLevel {
			t.Fatalf("accepted invalid frame period=%g chip=%g×%g\ninput: %q", d.Period, d.ChipW, d.ChipH, in)
		}
		gateNames := map[string]bool{}
		bad := ""
		d.NL.Gates(func(g *netlist.Gate) {
			if bad != "" {
				return
			}
			if math.IsNaN(g.X) || math.IsNaN(g.Y) || math.IsInf(g.X, 0) || math.IsInf(g.Y, 0) || g.X < 0 || g.Y < 0 {
				bad = "coordinates"
			}
			if math.IsNaN(g.Gain) || g.Gain <= 0 && g.SizeIdx < 0 {
				bad = "gain"
			}
			if gateNames[g.Name] {
				bad = "duplicate gate " + g.Name
			}
			gateNames[g.Name] = true
		})
		if bad != "" {
			t.Fatalf("accepted design with bad %s\ninput: %q", bad, in)
		}
		// Round trip: what we accept we must be able to re-read.
		var out bytes.Buffer
		if err := Write(&out, d); err != nil {
			t.Fatalf("write failed on accepted design: %v", err)
		}
		rt, err := Read(bytes.NewReader(out.Bytes()), lib)
		if err != nil {
			// Names with embedded whitespace can round-trip imperfectly;
			// only flag round-trip failures for inputs whose names are
			// plain tokens (the Write format's own constraint).
			if !strings.ContainsAny(in, "\x00") {
				t.Fatalf("round trip rejected: %v\nre-read input: %q", err, out.String())
			}
			return
		}
		fk := CaptureDesign(d).Fork()
		if err := fk.NL.Check(); err != nil {
			t.Fatalf("forked netlist inconsistent: %v\ninput: %q", err, in)
		}
		if got, want := dump(t, fk), dump(t, rt); got != want {
			t.Fatalf("fork differs from Read(Write(d)):\n%s\ninput: %q", firstDiff(got, want), in)
		}
		checkForkTrees(t, CaptureDesign(d))
		checkForkTiming(t, CaptureDesign(d))
	})
}

func TestReadRejectsInvalidInputs(t *testing.T) {
	lib := cell.Default()
	// hdr is a valid frame, so each case below fails on its own check.
	const hdr = "period 1000\nchip 100 100\n"
	cases := []struct{ name, in string }{
		{"nan-x", hdr + "net n\ngate g INV at NaN 5 A=n\n"},
		{"nan-y", hdr + "net n\ngate g INV at 5 NaN A=n\n"},
		{"neg-x", hdr + "net n\ngate g INV at -3 5 A=n\n"},
		{"neg-y", hdr + "net n\ngate g INV at 3 -5 A=n\n"},
		{"inf-x", hdr + "net n\ngate g INV at Inf 5 A=n\n"},
		{"dup-gate", hdr + "gate g INV\ngate g INV\n"},
		{"dup-net", hdr + "net n\nnet n\n"},
		{"nan-period", hdr + "period NaN\n"},
		{"neg-period", hdr + "period -10\n"},
		{"nan-chip", hdr + "chip NaN 10\n"},
		{"neg-chip", hdr + "chip 10 -10\n"},
		{"inf-chip", "period 1000\nchip inf inf\n"},
		{"huge-chip", "period 1000\nchip 1e308 1e308\n"},
		{"huge-chip-1e5", "period 1000\nchip 100 1e5\n"},
		{"zero-chip", "period 1000\nchip 0 10\n"},
		{"no-chip", "period 1000\nnet n\n"},
		{"no-period", "chip 100 100\nnet n\n"},
		{"nan-gain", hdr + "gate g INV sizeless gain=NaN\n"},
		{"zero-gain", hdr + "gate g INV sizeless gain=0\n"},
		{"port-bound-twice", hdr + "net a\nnet b\ngate g INV A=a A=b\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.in), lib); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.in)
		}
	}
}

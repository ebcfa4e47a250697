// Package netio reads and writes the .tpn text netlist format used by the
// command-line tools. The format is line-oriented and diff-friendly:
//
//	# comment
//	design <name>
//	period <ps>
//	chip <w> <h>
//	net <name> [clock|scan]
//	gate <name> <master> [size=<Xname>|sizeless] [gain=<g>] [at <x> <y>] [fixed] <port>=<net> ...
//
// Nets are declared before use; gate lines bind ports to nets. Weights and
// other transient optimization state are deliberately not serialized — a
// .tpn file captures a design, not a flow snapshot.
package netio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"tps/internal/cell"
	"tps/internal/gen"
	"tps/internal/netlist"
)

// Write serializes the design to w.
func Write(w io.Writer, d *gen.Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# tpn netlist\ndesign %s\n", d.NL.Name)
	fmt.Fprintf(bw, "period %g\n", d.Period)
	fmt.Fprintf(bw, "chip %g %g\n", d.ChipW, d.ChipH)

	var nets []*netlist.Net
	d.NL.Nets(func(n *netlist.Net) { nets = append(nets, n) })
	sort.Slice(nets, func(i, j int) bool { return nets[i].ID < nets[j].ID })
	for _, n := range nets {
		switch n.Kind {
		case netlist.Clock:
			fmt.Fprintf(bw, "net %s clock\n", n.Name)
		case netlist.Scan:
			fmt.Fprintf(bw, "net %s scan\n", n.Name)
		default:
			fmt.Fprintf(bw, "net %s\n", n.Name)
		}
	}

	var gates []*netlist.Gate
	d.NL.Gates(func(g *netlist.Gate) { gates = append(gates, g) })
	sort.Slice(gates, func(i, j int) bool { return gates[i].ID < gates[j].ID })
	for _, g := range gates {
		fmt.Fprintf(bw, "gate %s %s", g.Name, g.Cell.Name)
		if g.SizeIdx >= 0 {
			fmt.Fprintf(bw, " size=%s", g.Cell.Sizes[g.SizeIdx].Name)
		} else {
			fmt.Fprintf(bw, " sizeless gain=%g", g.Gain)
		}
		if g.Placed {
			fmt.Fprintf(bw, " at %g %g", g.X, g.Y)
		}
		if g.Fixed {
			fmt.Fprint(bw, " fixed")
		}
		for _, p := range g.Pins {
			if p.Net != nil {
				fmt.Fprintf(bw, " %s=%s", g.Cell.Ports[p.PortIdx].Name, p.Net.Name)
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Read parses a .tpn stream into a design over lib. The design frame is
// required: a period line and a chip line, with finite, positive values.
func Read(r io.Reader, lib *cell.Library) (*gen.Design, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	d := &gen.Design{NL: netlist.New("design", lib)}
	nets := map[string]*netlist.Net{}
	gates := map[string]bool{}
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "design":
			if len(f) != 2 {
				return nil, fmt.Errorf("netio: line %d: design needs a name", lineNo)
			}
			d.NL.Name = f[1]
		case "period":
			v, err := parseF(f, 1, lineNo, "period")
			if err != nil {
				return nil, err
			}
			if !(v > 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("netio: line %d: period %g is not a valid constraint", lineNo, v)
			}
			d.Period = v
		case "chip":
			w, err := parseF(f, 1, lineNo, "chip")
			if err != nil {
				return nil, err
			}
			h, err := parseF(f, 2, lineNo, "chip")
			if err != nil {
				return nil, err
			}
			if !(w > 0) || !(h > 0) || math.IsInf(w, 1) || math.IsInf(h, 1) {
				return nil, fmt.Errorf("netio: line %d: chip dimensions %g×%g invalid", lineNo, w, h)
			}
			d.ChipW, d.ChipH = w, h
		case "net":
			if len(f) < 2 {
				return nil, fmt.Errorf("netio: line %d: net needs a name", lineNo)
			}
			if _, dup := nets[f[1]]; dup {
				return nil, fmt.Errorf("netio: line %d: duplicate net %s", lineNo, f[1])
			}
			n := d.NL.AddNet(f[1])
			if len(f) > 2 {
				switch f[2] {
				case "clock":
					d.NL.SetNetKind(n, netlist.Clock)
				case "scan":
					d.NL.SetNetKind(n, netlist.Scan)
				default:
					return nil, fmt.Errorf("netio: line %d: unknown net kind %q", lineNo, f[2])
				}
			}
			nets[f[1]] = n
		case "gate":
			if len(f) >= 2 {
				if gates[f[1]] {
					return nil, fmt.Errorf("netio: line %d: duplicate gate %s", lineNo, f[1])
				}
				gates[f[1]] = true
			}
			if err := parseGate(d, nets, f, lineNo); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("netio: line %d: unknown directive %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The line checks above keep both values finite and positive, so a
	// zero means the line is missing.
	if d.Period == 0 {
		return nil, fmt.Errorf("netio: no period line")
	}
	if d.ChipW == 0 {
		return nil, fmt.Errorf("netio: no chip line")
	}
	if err := d.NL.Check(); err != nil {
		return nil, fmt.Errorf("netio: inconsistent netlist: %w", err)
	}
	return d, nil
}

func parseF(f []string, idx, line int, what string) (float64, error) {
	if idx >= len(f) {
		return 0, fmt.Errorf("netio: line %d: %s needs a value", line, what)
	}
	v, err := strconv.ParseFloat(f[idx], 64)
	if err != nil {
		return 0, fmt.Errorf("netio: line %d: bad %s %q", line, what, f[idx])
	}
	return v, nil
}

func parseGate(d *gen.Design, nets map[string]*netlist.Net, f []string, line int) error {
	if len(f) < 3 {
		return fmt.Errorf("netio: line %d: gate needs name and master", line)
	}
	master := d.NL.Lib.Cell(f[2])
	if master == nil {
		return fmt.Errorf("netio: line %d: unknown master %q", line, f[2])
	}
	g := d.NL.AddGate(f[1], master)
	i := 3
	var x, y float64
	placed := false
	for i < len(f) {
		tok := f[i]
		switch {
		case tok == "sizeless":
			g.SizeIdx = -1
			i++
		case strings.HasPrefix(tok, "size="):
			name := tok[len("size="):]
			found := -1
			for si, s := range master.Sizes {
				if s.Name == name {
					found = si
					break
				}
			}
			if found < 0 {
				return fmt.Errorf("netio: line %d: master %s has no size %q", line, master.Name, name)
			}
			g.SizeIdx = found
			i++
		case strings.HasPrefix(tok, "gain="):
			v, err := strconv.ParseFloat(tok[len("gain="):], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("netio: line %d: bad gain %q", line, tok)
			}
			g.Gain = v
			i++
		case tok == "at":
			if i+2 >= len(f) {
				return fmt.Errorf("netio: line %d: at needs x y", line)
			}
			var err error
			if x, err = strconv.ParseFloat(f[i+1], 64); err != nil {
				return fmt.Errorf("netio: line %d: bad x %q", line, f[i+1])
			}
			if y, err = strconv.ParseFloat(f[i+2], 64); err != nil {
				return fmt.Errorf("netio: line %d: bad y %q", line, f[i+2])
			}
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) || x < 0 || y < 0 {
				return fmt.Errorf("netio: line %d: coordinates (%g, %g) outside the chip frame", line, x, y)
			}
			placed = true
			i += 3
		case tok == "fixed":
			g.Fixed = true
			i++
		case strings.Contains(tok, "="):
			eq := strings.IndexByte(tok, '=')
			port, netName := tok[:eq], tok[eq+1:]
			pin := g.Pin(port)
			if pin == nil {
				return fmt.Errorf("netio: line %d: master %s has no port %q", line, master.Name, port)
			}
			if pin.Net != nil {
				return fmt.Errorf("netio: line %d: port %s bound twice", line, port)
			}
			n, ok := nets[netName]
			if !ok {
				return fmt.Errorf("netio: line %d: undeclared net %q", line, netName)
			}
			if pin.Dir() == cell.Output && n.Driver() != nil {
				return fmt.Errorf("netio: line %d: net %s already driven", line, netName)
			}
			d.NL.Connect(pin, n)
			i++
		default:
			return fmt.Errorf("netio: line %d: unexpected token %q", line, tok)
		}
	}
	if placed {
		d.NL.MoveGate(g, x, y)
	}
	return nil
}

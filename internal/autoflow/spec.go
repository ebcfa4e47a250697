package autoflow

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"tps/internal/scenario"
)

// ParseSpec parses the autotune spec format — line-oriented and
// diff-friendly like the scenario and portfolio grammars:
//
//	# comment
//	autotune <name>
//	flow tps|spr            # exactly one of flow / script
//	script <path>
//	objective slack|tns|wire
//	population <µ>
//	offspring <λ>
//	generations <n>
//	stall <n>
//	seed <s>
//	deadline <seconds>      # per-generation race deadline
//	workers <n>
//	freeze <transform> ...
//	insert <transform> ...
//	weights reorder=1 shift=1 param=4 insert=1 delete=1 cross=1
//	param <key> int <lo> <hi>
//	param <key> float <lo> <hi>
//	param <key> enum <v1> <v2> ...
//
// `flow`/`script` name the base scenario exactly one way; resolve turns
// the reference into script text (the CLI reads script paths relative to
// the spec file and renders flows via core's generators; tests stub it).
// `param` lines declare scenario-level `set` domains the mutator may
// retune, on top of the step-argument domains transforms declare in the
// registry. A parsed spec has passed Validate.
func ParseSpec(text string, resolve func(flow, script string) (string, error)) (*Spec, error) {
	spec := &Spec{}
	var flow, script string
	lineNo := 0
	for _, raw := range strings.Split(text, "\n") {
		lineNo++
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "autotune":
			if len(f) != 2 {
				return nil, specErr(lineNo, "autotune needs a name")
			}
			spec.Name = f[1]
		case "flow":
			if len(f) != 2 {
				return nil, specErr(lineNo, "flow needs a value")
			}
			flow = f[1]
		case "script":
			if len(f) != 2 {
				return nil, specErr(lineNo, "script needs a path")
			}
			script = f[1]
		case "objective":
			if len(f) != 2 {
				return nil, specErr(lineNo, "objective needs a value")
			}
			if err := scenario.CheckObjective(f[1]); err != nil {
				return nil, specErr(lineNo, err.Error())
			}
			spec.Objective = f[1]
		case "population", "offspring", "generations", "stall", "workers":
			if len(f) != 2 {
				return nil, specErr(lineNo, f[0]+" needs a count")
			}
			n, err := strconv.Atoi(f[1])
			if err != nil || n < 0 || (n == 0 && f[0] != "stall") {
				return nil, specErr(lineNo, fmt.Sprintf("bad %s %q", f[0], f[1]))
			}
			switch f[0] {
			case "population":
				spec.Population = n
			case "offspring":
				spec.Offspring = n
			case "generations":
				spec.Generations = n
			case "stall":
				spec.Stall = n
			case "workers":
				spec.Workers = n
			}
		case "seed":
			if len(f) != 2 {
				return nil, specErr(lineNo, "seed needs a value")
			}
			s, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, specErr(lineNo, fmt.Sprintf("bad seed %q", f[1]))
			}
			spec.Seed = s
		case "deadline":
			if len(f) != 2 {
				return nil, specErr(lineNo, "deadline needs seconds")
			}
			sec, err := strconv.ParseFloat(f[1], 64)
			if err != nil || sec <= 0 {
				return nil, specErr(lineNo, fmt.Sprintf("bad deadline %q", f[1]))
			}
			spec.Deadline = time.Duration(sec * float64(time.Second))
		case "freeze":
			if len(f) < 2 {
				return nil, specErr(lineNo, "freeze needs transform names")
			}
			spec.Freeze = append(spec.Freeze, f[1:]...)
		case "insert":
			if len(f) < 2 {
				return nil, specErr(lineNo, "insert needs transform names")
			}
			spec.Insert = append(spec.Insert, f[1:]...)
		case "weights":
			if len(f) < 2 {
				return nil, specErr(lineNo, "weights needs op=weight pairs")
			}
			for _, tok := range f[1:] {
				k, v, ok := strings.Cut(tok, "=")
				w, err := strconv.Atoi(v)
				if !ok || err != nil || w < 0 {
					return nil, specErr(lineNo, fmt.Sprintf("malformed weight %q", tok))
				}
				switch k {
				case "reorder":
					spec.Weights.Reorder = w
				case "shift":
					spec.Weights.Shift = w
				case "param":
					spec.Weights.Param = w
				case "insert":
					spec.Weights.Insert = w
				case "delete":
					spec.Weights.Delete = w
				case "cross":
					spec.Weights.Cross = w
				default:
					return nil, specErr(lineNo, fmt.Sprintf("unknown mutation operator %q", k))
				}
			}
		case "param":
			d, err := parseDomain(f[1:], lineNo)
			if err != nil {
				return nil, err
			}
			spec.Params = append(spec.Params, *d)
		default:
			return nil, specErr(lineNo, fmt.Sprintf("unknown directive %q", f[0]))
		}
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("autotune spec: missing `autotune <name>` line")
	}
	if (flow == "") == (script == "") {
		return nil, fmt.Errorf("autotune spec: need exactly one of `flow` or `script`")
	}
	base, err := resolve(flow, script)
	if err != nil {
		return nil, fmt.Errorf("autotune spec: %w", err)
	}
	spec.Script = base
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

func parseDomain(f []string, line int) (*scenario.ParamDomain, error) {
	if len(f) < 3 {
		return nil, specErr(line, "param needs <key> <kind> <values…>")
	}
	d := &scenario.ParamDomain{Key: f[0]}
	switch f[1] {
	case "int", "float":
		if len(f) != 4 {
			return nil, specErr(line, "param "+f[1]+" needs <lo> <hi>")
		}
		lo, err1 := strconv.ParseFloat(f[2], 64)
		hi, err2 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil || lo > hi {
			return nil, specErr(line, fmt.Sprintf("bad param range %q..%q", f[2], f[3]))
		}
		d.Lo, d.Hi = lo, hi
		if f[1] == "int" {
			d.Kind = scenario.ParamInt
		} else {
			d.Kind = scenario.ParamFloat
		}
	case "enum":
		d.Kind = scenario.ParamEnum
		d.Enum = append(d.Enum, f[2:]...)
	default:
		return nil, specErr(line, fmt.Sprintf("unknown param kind %q (want int, float, or enum)", f[1]))
	}
	return d, nil
}

func specErr(line int, msg string) error {
	return fmt.Errorf("autotune spec: line %d: %s", line, msg)
}

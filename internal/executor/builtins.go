package executor

import (
	"fmt"
	"math"
	"strings"

	"perm/internal/value"
)

// builtinFn evaluates one scalar function over already-evaluated arguments.
type builtinFn func(args []value.Value) (value.Value, error)

// builtin is one registry entry. tolerant functions see NULL arguments
// (COALESCE-style NULL rules); strict functions propagate NULL before the
// body runs.
type builtin struct {
	fn       builtinFn
	tolerant bool
}

// lookupBuiltin resolves a scalar function by (lower-case) name. Compile
// resolves every function call through this registry once, when the call is
// compiled, so function semantics live in exactly one place.
func lookupBuiltin(name string) (builtin, bool) {
	b, ok := builtins[name]
	return b, ok
}

var builtins = map[string]builtin{
	"coalesce": {tolerant: true, fn: func(args []value.Value) (value.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return value.Null, nil
	}},
	"nullif": {tolerant: true, fn: func(args []value.Value) (value.Value, error) {
		if !args[0].IsNull() && !args[1].IsNull() && value.Equal(args[0], args[1]) {
			return value.Null, nil
		}
		return args[0], nil
	}},
	"concat": {tolerant: true, fn: func(args []value.Value) (value.Value, error) {
		var b strings.Builder
		for _, a := range args {
			if !a.IsNull() {
				b.WriteString(a.String())
			}
		}
		return value.NewString(b.String()), nil
	}},
	"greatest": {tolerant: true, fn: bestOf(1)},
	"least":    {tolerant: true, fn: bestOf(-1)},
	"upper": {fn: func(args []value.Value) (value.Value, error) {
		return value.NewString(strings.ToUpper(args[0].String())), nil
	}},
	"lower": {fn: func(args []value.Value) (value.Value, error) {
		return value.NewString(strings.ToLower(args[0].String())), nil
	}},
	"length": {fn: func(args []value.Value) (value.Value, error) {
		return value.NewInt(int64(len([]rune(args[0].String())))), nil
	}},
	"abs": {fn: func(args []value.Value) (value.Value, error) {
		switch args[0].K {
		case value.KindInt:
			n := args[0].I
			if n < 0 {
				n = -n
			}
			return value.NewInt(n), nil
		default:
			return value.NewFloat(math.Abs(args[0].Float())), nil
		}
	}},
	"substr":    {fn: substrFn},
	"substring": {fn: substrFn},
	"trim": {fn: func(args []value.Value) (value.Value, error) {
		return value.NewString(strings.TrimSpace(args[0].String())), nil
	}},
	"ltrim": {fn: func(args []value.Value) (value.Value, error) {
		return value.NewString(strings.TrimLeft(args[0].String(), " \t\n")), nil
	}},
	"rtrim": {fn: func(args []value.Value) (value.Value, error) {
		return value.NewString(strings.TrimRight(args[0].String(), " \t\n")), nil
	}},
	"replace": {fn: func(args []value.Value) (value.Value, error) {
		return value.NewString(strings.ReplaceAll(args[0].String(), args[1].String(), args[2].String())), nil
	}},
	"round": {fn: func(args []value.Value) (value.Value, error) {
		f := args[0].Float()
		digits := 0
		if len(args) == 2 {
			digits = int(args[1].Int())
		}
		scale := math.Pow(10, float64(digits))
		return value.NewFloat(math.Round(f*scale) / scale), nil
	}},
	"floor": {fn: func(args []value.Value) (value.Value, error) {
		return value.NewFloat(math.Floor(args[0].Float())), nil
	}},
	"ceil":    {fn: ceilFn},
	"ceiling": {fn: ceilFn},
	"sqrt": {fn: func(args []value.Value) (value.Value, error) {
		f := args[0].Float()
		if f < 0 {
			return value.Null, fmt.Errorf("sqrt of negative number")
		}
		return value.NewFloat(math.Sqrt(f)), nil
	}},
	"power": {fn: func(args []value.Value) (value.Value, error) {
		return value.NewFloat(math.Pow(args[0].Float(), args[1].Float())), nil
	}},
	"mod": {fn: func(args []value.Value) (value.Value, error) {
		return value.Mod(args[0], args[1])
	}},
	"strpos": {fn: func(args []value.Value) (value.Value, error) {
		idx := strings.Index(args[0].String(), args[1].String())
		return value.NewInt(int64(idx + 1)), nil
	}},
}

// bestOf builds GREATEST (dir=1) / LEAST (dir=-1), skipping NULLs.
func bestOf(dir int) builtinFn {
	return func(args []value.Value) (value.Value, error) {
		best := value.Null
		for _, a := range args {
			if a.IsNull() {
				continue
			}
			if best.IsNull() {
				best = a
				continue
			}
			c, err := value.Compare(a, best)
			if err != nil {
				return value.Null, err
			}
			if c*dir > 0 {
				best = a
			}
		}
		return best, nil
	}
}

func substrFn(args []value.Value) (value.Value, error) {
	s := []rune(args[0].String())
	start64, err := value.Coerce(args[1], value.KindInt)
	if err != nil {
		return value.Null, err
	}
	start := int(start64.I) - 1 // SQL is 1-based
	if start < 0 {
		start = 0
	}
	end := len(s)
	if len(args) == 3 {
		ln64, err := value.Coerce(args[2], value.KindInt)
		if err != nil {
			return value.Null, err
		}
		end = start + int(ln64.I)
	}
	if start > len(s) {
		start = len(s)
	}
	if end > len(s) {
		end = len(s)
	}
	if end < start {
		end = start
	}
	return value.NewString(string(s[start:end])), nil
}

func ceilFn(args []value.Value) (value.Value, error) {
	return value.NewFloat(math.Ceil(args[0].Float())), nil
}

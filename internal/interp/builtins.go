package interp

import (
	"fmt"
	"math"

	"jumpstart/internal/bytecode"
	"jumpstart/internal/value"
)

// builtinError reports a bad builtin invocation.
func builtinError(b bytecode.Builtin, format string, args ...interface{}) error {
	return &Fault{Msg: fmt.Sprintf("%s: %s", b, fmt.Sprintf(format, args...))}
}

// builtin dispatches an intrinsic call. args aliases the operand stack
// and must not be retained.
func (ip *Interp) builtin(b bytecode.Builtin, args []value.Value) (value.Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return builtinError(b, "expects %d args, got %d", n, len(args))
		}
		return nil
	}
	switch b {
	case bytecode.BPrint:
		if ip.out != nil {
			for _, a := range args {
				fmt.Fprint(ip.out, a.ToStr())
			}
			fmt.Fprintln(ip.out)
		}
		return value.Null, nil

	case bytecode.BLen:
		if err := need(1); err != nil {
			return value.Null, err
		}
		switch args[0].Kind() {
		case value.KindArr:
			return value.Int(int64(args[0].AsArr().Len())), nil
		case value.KindStr:
			return value.Int(int64(len(args[0].AsStr()))), nil
		default:
			return value.Null, builtinError(b, "wants array or string, got %s", args[0].Kind())
		}

	case bytecode.BPush:
		if err := need(2); err != nil {
			return value.Null, err
		}
		if args[0].Kind() != value.KindArr {
			return value.Null, builtinError(b, "wants array, got %s", args[0].Kind())
		}
		args[0].AsArr().Append(args[1])
		return args[0], nil

	case bytecode.BKeys:
		if err := need(1); err != nil {
			return value.Null, err
		}
		if args[0].Kind() != value.KindArr {
			return value.Null, builtinError(b, "wants array, got %s", args[0].Kind())
		}
		arr := args[0].AsArr()
		out := value.NewArray(arr.Len())
		for i := 0; i < arr.Len(); i++ {
			out.Append(arr.At(i).Key())
		}
		return value.Arr(out), nil

	case bytecode.BVals:
		if err := need(1); err != nil {
			return value.Null, err
		}
		if args[0].Kind() != value.KindArr {
			return value.Null, builtinError(b, "wants array, got %s", args[0].Kind())
		}
		arr := args[0].AsArr()
		out := value.NewArray(arr.Len())
		for i := 0; i < arr.Len(); i++ {
			out.Append(arr.At(i).Val)
		}
		return value.Arr(out), nil

	case bytecode.BSqrt:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Float(math.Sqrt(args[0].ToFloat())), nil

	case bytecode.BAbs:
		if err := need(1); err != nil {
			return value.Null, err
		}
		if args[0].Kind() == value.KindInt {
			i := args[0].AsInt()
			if i < 0 && i != math.MinInt64 {
				return value.Int(-i), nil
			}
			if i >= 0 {
				return value.Int(i), nil
			}
		}
		return value.Float(math.Abs(args[0].ToFloat())), nil

	case bytecode.BMin, bytecode.BMax:
		if len(args) < 1 {
			return value.Null, builtinError(b, "expects at least 1 arg")
		}
		best := args[0]
		for _, a := range args[1:] {
			c := value.Compare(a, best)
			if (b == bytecode.BMin && c < 0) || (b == bytecode.BMax && c > 0) {
				best = a
			}
		}
		return best, nil

	case bytecode.BPow:
		if err := need(2); err != nil {
			return value.Null, err
		}
		if args[0].Kind() == value.KindInt && args[1].Kind() == value.KindInt && args[1].AsInt() >= 0 {
			base, exp := args[0].AsInt(), args[1].AsInt()
			result := int64(1)
			overflow := false
			for i := int64(0); i < exp; i++ {
				next := result * base
				if base != 0 && next/base != result {
					overflow = true
					break
				}
				result = next
			}
			if !overflow {
				return value.Int(result), nil
			}
		}
		return value.Float(math.Pow(args[0].ToFloat(), args[1].ToFloat())), nil

	case bytecode.BFloor:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Float(math.Floor(args[0].ToFloat())), nil

	case bytecode.BCeil:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Float(math.Ceil(args[0].ToFloat())), nil

	case bytecode.BStrlen:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Int(int64(len(args[0].ToStr()))), nil

	case bytecode.BSubstr:
		if err := need(3); err != nil {
			return value.Null, err
		}
		s := args[0].ToStr()
		start := int(args[1].ToInt())
		length := int(args[2].ToInt())
		if start < 0 {
			start = len(s) + start
		}
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return value.Str(""), nil
		}
		end := start + length
		if length < 0 {
			end = len(s) + length
		}
		if end > len(s) {
			end = len(s)
		}
		if end < start {
			return value.Str(""), nil
		}
		return value.Str(s[start:end]), nil

	case bytecode.BOrd:
		if err := need(1); err != nil {
			return value.Null, err
		}
		s := args[0].ToStr()
		if s == "" {
			return value.Int(0), nil
		}
		return value.Int(int64(s[0])), nil

	case bytecode.BChr:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Str(string([]byte{byte(args[0].ToInt() & 0xff)})), nil

	case bytecode.BIntVal:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Int(args[0].ToInt()), nil

	case bytecode.BFloatVal:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Float(args[0].ToFloat()), nil

	case bytecode.BStrVal:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Str(args[0].ToStr()), nil

	case bytecode.BIsNull:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Bool(args[0].IsNull()), nil

	case bytecode.BIsInt:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Bool(args[0].Kind() == value.KindInt), nil

	case bytecode.BIsStr:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Bool(args[0].Kind() == value.KindStr), nil

	case bytecode.BIsArr:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Bool(args[0].Kind() == value.KindArr), nil

	case bytecode.BIsObj:
		if err := need(1); err != nil {
			return value.Null, err
		}
		return value.Bool(args[0].Kind() == value.KindObj), nil

	case bytecode.BHash:
		if err := need(1); err != nil {
			return value.Null, err
		}
		// FNV-1a, masked to keep results positive int64s so workload
		// code can take modulo without sign surprises.
		h := uint64(14695981039346656037)
		for _, c := range []byte(args[0].ToStr()) {
			h ^= uint64(c)
			h *= 1099511628211
		}
		return value.Int(int64(h & 0x7fffffffffffffff)), nil

	default:
		return value.Null, builtinError(b, "unknown builtin")
	}
}

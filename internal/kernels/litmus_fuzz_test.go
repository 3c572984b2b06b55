package kernels_test

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"awgsim/internal/kernels"
	"awgsim/internal/litmus"
)

// splitDecodeLitmus is the reference decoder FuzzDecodeLitmus holds
// DecodeLitmus to: it splits the name into program strings and those into
// op tokens, appending each program's ops to a slice of its own, then
// validates the pattern and checks the name is canonical.
func splitDecodeLitmus(name string) (kernels.Litmus, error) {
	body, ok := strings.CutPrefix(name, kernels.LitmusPrefix)
	if !ok {
		return kernels.Litmus{}, fmt.Errorf("%q is not a litmus pattern name", name)
	}
	var l kernels.Litmus
	for wi, progStr := range strings.Split(body, ";") {
		var prog []kernels.LitmusOp
		if progStr != "" {
			for _, tok := range strings.Split(progStr, ",") {
				op, err := splitDecodeOp(tok)
				if err != nil {
					return kernels.Litmus{}, fmt.Errorf("WG %d: %w", wi, err)
				}
				prog = append(prog, op)
			}
		}
		l.Progs = append(l.Progs, prog)
	}
	if err := l.Validate(); err != nil {
		return kernels.Litmus{}, err
	}
	if l.Encode() != name {
		return kernels.Litmus{}, fmt.Errorf("non-canonical litmus name %q", name)
	}
	return l, nil
}

func splitDecodeOp(tok string) (kernels.LitmusOp, error) {
	if tok == "" {
		return kernels.LitmusOp{}, fmt.Errorf("empty op token")
	}
	kind := tok[0]
	rest := tok[1:]
	parseInt := func(s string) (int64, error) {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("op token %q: %w", tok, err)
		}
		return n, nil
	}
	switch kind {
	case 'a':
		v, err := parseInt(rest)
		if err != nil {
			return kernels.LitmusOp{}, err
		}
		return kernels.LitmusOp{Kind: kernels.LitmusAdd, Var: int(v)}, nil
	case 'c':
		n, err := parseInt(rest)
		if err != nil {
			return kernels.LitmusOp{}, err
		}
		return kernels.LitmusOp{Kind: kernels.LitmusWork, Val: n}, nil
	case 's', 'g', 'e':
		varStr, valStr, ok := strings.Cut(rest, ".")
		if !ok {
			return kernels.LitmusOp{}, fmt.Errorf("op token %q: missing value", tok)
		}
		v, err := parseInt(varStr)
		if err != nil {
			return kernels.LitmusOp{}, err
		}
		n, err := parseInt(valStr)
		if err != nil {
			return kernels.LitmusOp{}, err
		}
		k := kernels.LitmusSet
		switch kind {
		case 'g':
			k = kernels.LitmusWaitGE
		case 'e':
			k = kernels.LitmusWaitEq
		}
		return kernels.LitmusOp{Kind: k, Var: int(v), Val: n}, nil
	default:
		return kernels.LitmusOp{}, fmt.Errorf("op token %q: unknown kind %q", tok, kind)
	}
}

// FuzzDecodeLitmus checks the one-pass decoder against the split-based
// reference: for any input both accept or both reject, and an accepted
// name decodes to equal patterns.
func FuzzDecodeLitmus(f *testing.F) {
	for _, tc := range litmusRoundTrips {
		f.Add(tc.name)
	}
	for _, name := range litmusRejects {
		f.Add(name)
	}
	for _, name := range []string{
		"litmus:1:;;",     // three empty programs
		"litmus:1:a0,,a1", // empty op token
		"litmus:1:a0;",    // trailing ';': an empty last program
		"litmus:1:;a0",    // an empty first program
		"litmus:1:a+1",    // explicit sign on a variable
		"litmus:1:g0.-1",  // negative wait target
		"litmus:1:c+5",    // explicit sign on work
		"litmus:1:s0.1.2", // extra value
		"litmus:1:a9999999999999999999",
	} {
		f.Add(name)
	}
	// 256 variables over 32 WGs: more ops, programs and name bytes than
	// the decoder's stack scratch holds.
	var wide kernels.Litmus
	for wg := 0; wg < 32; wg++ {
		var prog []kernels.LitmusOp
		for v := 8 * wg; v < 8*wg+8; v++ {
			prog = append(prog, kernels.LitmusOp{Kind: kernels.LitmusAdd, Var: v})
		}
		wide.Progs = append(wide.Progs, append(prog, kernels.LitmusOp{Kind: kernels.LitmusWaitGE, Var: 8 * wg, Val: 1}))
	}
	f.Add(wide.Encode())
	for _, l := range litmus.Generate(1, 64) {
		f.Add(l.Encode())
	}
	f.Fuzz(func(t *testing.T, name string) {
		got, err := kernels.DecodeLitmus(name)
		want, wantErr := splitDecodeLitmus(name)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeLitmus(%q) error %v; reference decoder error %v", name, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeLitmus(%q) = %+v; reference decoder %+v", name, got, want)
		}
	})
}

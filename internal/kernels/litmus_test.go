package kernels_test

import (
	"testing"

	"awgsim/internal/kernels"
)

// litmusRoundTrips pairs patterns with their literal encodings. Each
// encoding pins the name grammar, so the encoder cannot drift from the
// canonical names recorded in goldens.
var litmusRoundTrips = []struct {
	l    kernels.Litmus
	name string
}{
	// Two-WG producer/consumer chain over a flag.
	{kernels.Litmus{Progs: [][]kernels.LitmusOp{
		{{Kind: kernels.LitmusWaitEq, Var: 0, Val: 1}},
		{{Kind: kernels.LitmusSet, Var: 0, Val: 1}},
	}}, "litmus:1:e0.1;s0.1"},
	// Counter gather with work skew.
	{kernels.Litmus{Progs: [][]kernels.LitmusOp{
		{{Kind: kernels.LitmusAdd, Var: 0}, {Kind: kernels.LitmusWaitGE, Var: 0, Val: 3}},
		{{Kind: kernels.LitmusWork, Val: 40}, {Kind: kernels.LitmusAdd, Var: 0}},
		{{Kind: kernels.LitmusAdd, Var: 0}, {Kind: kernels.LitmusWaitGE, Var: 0, Val: 2}},
	}}, "litmus:1:a0,g0.3;c40,a0;a0,g0.2"},
	// A WG with an empty program is legal (pure bystander).
	{kernels.Litmus{Progs: [][]kernels.LitmusOp{
		{{Kind: kernels.LitmusSet, Var: 1, Val: 7}},
		nil,
	}}, "litmus:1:s1.7;"},
	// Every kind, with multi-digit vars and values.
	{kernels.Litmus{Progs: [][]kernels.LitmusOp{
		{{Kind: kernels.LitmusAdd, Var: 255}, {Kind: kernels.LitmusSet, Var: 12, Val: 345}},
		{{Kind: kernels.LitmusWaitEq, Var: 12, Val: 345}, {Kind: kernels.LitmusWaitGE, Var: 255, Val: 1}, {Kind: kernels.LitmusWork, Val: 4096}},
	}}, "litmus:1:a255,s12.345;e12.345,g255.1,c4096"},
}

func TestLitmusEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range litmusRoundTrips {
		name := tc.l.Encode()
		if name != tc.name {
			t.Fatalf("Encode() = %q, want %q", name, tc.name)
		}
		got, err := kernels.DecodeLitmus(name)
		if err != nil {
			t.Fatalf("DecodeLitmus(%q): %v", name, err)
		}
		if got.Encode() != name {
			t.Fatalf("round trip: %q -> %q", name, got.Encode())
		}
	}
}

// litmusRejects lists names DecodeLitmus must refuse.
var litmusRejects = []string{
	"litmus:1:",                  // no ops anywhere but also no WGs? (single empty WG is valid; see below)
	"litmus:1:x0",                // unknown op kind
	"litmus:1:s0",                // set without value
	"litmus:1:s0.0",              // zero set value
	"litmus:1:g0.0",              // zero wait target
	"litmus:1:c0",                // zero work
	"litmus:1:a0,s0.1",           // var both counter and flag
	"litmus:1:s0.1;s0.2",         // flag set twice
	"litmus:1:e0.1;a0",           // eq-wait on counter
	"litmus:1:a01",               // non-canonical integer
	"litmus:1:a0,",               // trailing comma
	"litmus:2:a0",                // wrong version prefix
	"litmus:1:a999",              // var out of range
	"SPM_G",                      // not litmus at all
	"litmus:1:s0.1,s1.1,e0.1,,a", // garbage
}

func TestLitmusDecodeRejects(t *testing.T) {
	for _, name := range litmusRejects {
		if name == "litmus:1:" {
			// One empty program is a valid (if useless) pattern only if
			// Validate allows zero vars; it does — skip, covered elsewhere.
			continue
		}
		if _, err := kernels.DecodeLitmus(name); err == nil {
			t.Errorf("DecodeLitmus(%q): want error, got none", name)
		}
	}
}

func TestLitmusFairFinal(t *testing.T) {
	// Reverse chain: WG1 sets flag 0, WG0 waits for it. Completes fairly.
	rev := kernels.Litmus{Progs: [][]kernels.LitmusOp{
		{{Kind: kernels.LitmusWaitEq, Var: 0, Val: 1}},
		{{Kind: kernels.LitmusSet, Var: 0, Val: 1}},
	}}
	vals, complete := rev.FairFinal()
	if !complete || vals[0] != 1 {
		t.Fatalf("revchain FairFinal = %v, %v; want [1], true", vals, complete)
	}

	// Gather: three adders each waiting for the full count.
	gather := kernels.Litmus{Progs: [][]kernels.LitmusOp{
		{{Kind: kernels.LitmusAdd, Var: 0}, {Kind: kernels.LitmusWaitGE, Var: 0, Val: 3}},
		{{Kind: kernels.LitmusAdd, Var: 0}, {Kind: kernels.LitmusWaitGE, Var: 0, Val: 3}},
		{{Kind: kernels.LitmusAdd, Var: 0}, {Kind: kernels.LitmusWaitGE, Var: 0, Val: 3}},
	}}
	vals, complete = gather.FairFinal()
	if !complete || vals[0] != 3 {
		t.Fatalf("gather FairFinal = %v, %v; want [3], true", vals, complete)
	}

	// Broken: a wait on a never-signalled flag cannot complete even fairly.
	broken := kernels.Litmus{Progs: [][]kernels.LitmusOp{
		{{Kind: kernels.LitmusWaitEq, Var: 0, Val: 1}},
		{{Kind: kernels.LitmusAdd, Var: 1}},
	}}
	vals, complete = broken.FairFinal()
	if complete {
		t.Fatalf("broken FairFinal complete; want stuck")
	}
	if vals[1] != 1 {
		t.Fatalf("broken FairFinal vals = %v; non-stuck WG should still run", vals)
	}

	// Cyclic rendezvous ring needs all three resident simultaneously under
	// fair scheduling — completes abstractly (no occupancy bound).
	ring := kernels.Litmus{Progs: [][]kernels.LitmusOp{
		{{Kind: kernels.LitmusAdd, Var: 0}, {Kind: kernels.LitmusWaitGE, Var: 1, Val: 1}},
		{{Kind: kernels.LitmusAdd, Var: 1}, {Kind: kernels.LitmusWaitGE, Var: 2, Val: 1}},
		{{Kind: kernels.LitmusAdd, Var: 2}, {Kind: kernels.LitmusWaitGE, Var: 0, Val: 1}},
	}}
	if _, complete = ring.FairFinal(); !complete {
		t.Fatalf("ring FairFinal stuck; want complete")
	}
}

func TestLitmusBenchViaGet(t *testing.T) {
	name := "litmus:1:a0,g0.2;c25,a0,g0.2"
	b, err := kernels.Build(name, kernels.Params{NumWGs: 2, Groups: 1, WIsPerWG: 1, Iters: 1})
	if err != nil {
		t.Fatalf("Build(%q): %v", name, err)
	}
	if b.Spec.Name != name {
		t.Fatalf("spec name %q, want %q", b.Spec.Name, name)
	}
	if b.Spec.NumWGs != 2 || b.Spec.WIsPerWG != 1 {
		t.Fatalf("spec shape %d WGs x %d WIs, want 2x1", b.Spec.NumWGs, b.Spec.WIsPerWG)
	}
	if b.Verify == nil {
		t.Fatalf("litmus benchmark without Verify")
	}
	// Params/pattern WG mismatch is a construction error, not a panic.
	if _, err := kernels.Build(name, kernels.Params{NumWGs: 3, Groups: 1, WIsPerWG: 1, Iters: 1}); err == nil {
		t.Fatalf("Build with mismatched NumWGs: want error")
	}
}

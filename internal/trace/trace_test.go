package trace

import (
	"strings"
	"testing"

	"awgsim/internal/event"
)

func TestRecorderOrdersEvents(t *testing.T) {
	r := NewRecorder(0)
	r.Record(50, 1, Attempt)
	r.Record(10, 0, Start)
	r.Record(30, 1, Start)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of order: %+v", evs)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRecorderLimit(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 10; i++ {
		r.Record(0, 0, Attempt)
	}
	if r.Len() != 2 {
		t.Fatalf("limit ignored: %d events", r.Len())
	}
}

// TestRecorderKeepsNewest: a full recorder drops its oldest events, so a
// run cut just past a stall keeps the timeline leading into it.
func TestRecorderKeepsNewest(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(event.Cycle(10*i), i, Attempt)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("kept %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if want := event.Cycle(10 * (i + 2)); e.At != want || e.WG != i+2 {
			t.Fatalf("event %d = %+v, want WG %d at %d (the newest three, in time order)", i, e, i+2, want)
		}
	}
}

func TestCountByKind(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, 0, Attempt)
	r.Record(1, 0, Attempt)
	r.Record(2, 0, Resume)
	c := r.CountByKind()
	if c[Attempt] != 2 || c[Resume] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestTimelineRendering(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, 0, Start)
	r.Record(500, 0, Attempt)
	r.Record(1000, 0, Finish)
	r.Record(0, 3, Start)
	r.Record(1000, 3, Finish)
	out := r.Timeline(40)
	if !strings.Contains(out, "WG0") || !strings.Contains(out, "WG3") {
		t.Fatalf("missing lanes:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 lanes
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	lane0 := lines[1]
	if !strings.Contains(lane0, "[") || !strings.HasSuffix(lane0, "]") {
		t.Fatalf("lane missing start/finish glyphs: %q", lane0)
	}
	if !strings.Contains(lane0, "a") {
		t.Fatalf("lane missing attempt glyph: %q", lane0)
	}
}

func TestTimelineEmpty(t *testing.T) {
	r := NewRecorder(0)
	if got := r.Timeline(40); !strings.Contains(got, "no events") {
		t.Fatalf("empty timeline rendered %q", got)
	}
}

func TestTimelineSingleInstant(t *testing.T) {
	r := NewRecorder(0)
	r.Record(7, 0, Start)
	out := r.Timeline(10)
	if !strings.Contains(out, "[") {
		t.Fatalf("glyph missing: %q", out)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Start: "start", Resume: "resume", TimeoutFire: "timeout"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if Kind(99).String() != "?" {
		t.Error("unknown kind")
	}
}

// TestRenderingDeterministic: identical event sets must render identically
// regardless of recording order, and every Kind must carry a name and
// glyph (the Kind-indexed arrays leave no room for map-order drift, but a
// newly added Kind could still be forgotten).
func TestRenderingDeterministic(t *testing.T) {
	build := func(perm []int) *Recorder {
		r := NewRecorder(0)
		for _, i := range perm {
			// 17 WGs recorded in permuted order; unique timestamps give the
			// time sort a total order (same-cycle ties keep recording order
			// by design, which a permutation would legitimately change).
			r.Record(event.Cycle(i)*7, i%17, Kind(i%int(NumKinds)))
		}
		return r
	}
	fwd := make([]int, 200)
	rev := make([]int, 200)
	for i := range fwd {
		fwd[i], rev[len(rev)-1-i] = i, i
	}
	a, b := build(fwd), build(rev)
	if at, bt := a.Timeline(60), b.Timeline(60); at != bt {
		t.Fatalf("timeline depends on recording order:\n%s\nvs\n%s", at, bt)
	}
	if ac, bc := a.CountByKind(), b.CountByKind(); ac != bc {
		t.Fatalf("counts depend on recording order: %v vs %v", ac, bc)
	}
	if as, bs := a.Signature(), b.Signature(); as != bs {
		t.Fatalf("signature depends on recording order: %q vs %q", as, bs)
	}
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" || k.String() == "?" {
			t.Errorf("kind %d has no name", k)
		}
		if glyphs[k] == 0 {
			t.Errorf("kind %d has no glyph", k)
		}
	}
}

func TestSignature(t *testing.T) {
	r := NewRecorder(0)
	r.Record(0, 0, Attempt)
	r.Record(1, 0, StallBegin)
	r.Record(2, 0, Resume)
	s := r.Signature()
	for _, want := range []string{"atomics=1", "stalls=1", "resumes=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("signature %q missing %q", s, want)
		}
	}
}

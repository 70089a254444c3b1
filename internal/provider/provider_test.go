package provider

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/privacy"
)

func newTestProvider(t *testing.T) *MemProvider {
	t.Helper()
	p, err := New(Info{Name: "T", PL: privacy.High, CL: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Info{Name: "", PL: privacy.Low, CL: 0}, Options{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New(Info{Name: "x", PL: privacy.Level(9), CL: 0}, Options{}); err == nil {
		t.Fatal("invalid PL accepted")
	}
	if _, err := New(Info{Name: "x", PL: privacy.Low, CL: 9}, Options{}); err == nil {
		t.Fatal("invalid CL accepted")
	}
	if _, err := New(Info{Name: "x", PL: privacy.Low, CL: 0}, Options{FailureRate: 1.0}); err == nil {
		t.Fatal("failure rate 1.0 accepted")
	}
	if _, err := New(Info{Name: "x", PL: privacy.Low, CL: 0}, Options{FailureRate: -0.1}); err == nil {
		t.Fatal("negative failure rate accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Info{}, Options{})
}

func TestPutGetDelete(t *testing.T) {
	p := newTestProvider(t)
	if err := p.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get("k1")
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := p.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get("k1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	if err := p.Delete("k1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v", err)
	}
}

func TestPutEmptyKey(t *testing.T) {
	p := newTestProvider(t)
	if err := p.Put("", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestPutCopiesAndGetCopies(t *testing.T) {
	p := newTestProvider(t)
	data := []byte("mutable")
	if err := p.Put("k", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, _ := p.Get("k")
	if got[0] != 'm' {
		t.Fatal("Put aliased caller buffer")
	}
	got[0] = 'Y'
	again, _ := p.Get("k")
	if again[0] != 'm' {
		t.Fatal("Get returned aliased buffer")
	}
}

func TestOverwriteAccounting(t *testing.T) {
	p := newTestProvider(t)
	_ = p.Put("k", make([]byte, 100))
	_ = p.Put("k", make([]byte, 40))
	u := p.Usage()
	if u.BytesStored != 40 {
		t.Fatalf("BytesStored = %d, want 40", u.BytesStored)
	}
	if u.BytesIn != 140 {
		t.Fatalf("BytesIn = %d, want 140", u.BytesIn)
	}
	if u.Keys != 1 {
		t.Fatalf("Keys = %d", u.Keys)
	}
}

func TestOutage(t *testing.T) {
	p := newTestProvider(t)
	_ = p.Put("k", []byte("v"))
	p.SetOutage(true)
	if !p.Down() {
		t.Fatal("Down() = false after SetOutage(true)")
	}
	if err := p.Put("k2", []byte("v")); !errors.Is(err, ErrOutage) {
		t.Fatalf("Put during outage = %v", err)
	}
	if _, err := p.Get("k"); !errors.Is(err, ErrOutage) {
		t.Fatalf("Get during outage = %v", err)
	}
	if err := p.Delete("k"); !errors.Is(err, ErrOutage) {
		t.Fatalf("Delete during outage = %v", err)
	}
	p.SetOutage(false)
	if _, err := p.Get("k"); err != nil {
		t.Fatalf("Get after recovery = %v", err)
	}
}

func TestFailureInjection(t *testing.T) {
	p, err := New(Info{Name: "flaky", PL: privacy.Low, CL: 0}, Options{FailureRate: 0.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for i := 0; i < 200; i++ {
		if err := p.Put(fmt.Sprintf("k%d", i), []byte("v")); errors.Is(err, ErrInjected) {
			failures++
		}
	}
	if failures < 50 || failures > 150 {
		t.Fatalf("failures = %d/200 at rate 0.5", failures)
	}
}

func TestLatencyAccounting(t *testing.T) {
	var slept time.Duration
	p, err := New(Info{Name: "slow", PL: privacy.Low, CL: 0}, Options{
		Latency: LatencyModel{PerOp: time.Millisecond, PerByte: time.Microsecond},
		Sleep:   func(d time.Duration) { slept += d },
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Put("k", make([]byte, 1000))
	want := time.Millisecond + 1000*time.Microsecond
	if slept != want {
		t.Fatalf("slept = %v, want %v", slept, want)
	}
	if p.Usage().SimulatedTime != want {
		t.Fatalf("SimulatedTime = %v, want %v", p.Usage().SimulatedTime, want)
	}
}

func TestVirtualClockWithoutSleep(t *testing.T) {
	p, _ := New(Info{Name: "v", PL: privacy.Low, CL: 0}, Options{
		Latency: LatencyModel{PerOp: time.Second},
	})
	start := time.Now()
	_ = p.Put("k", []byte("v"))
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("virtual clock actually slept")
	}
	if p.Usage().SimulatedTime != time.Second {
		t.Fatalf("SimulatedTime = %v", p.Usage().SimulatedTime)
	}
}

func TestUsageCounters(t *testing.T) {
	p := newTestProvider(t)
	_ = p.Put("a", make([]byte, 10))
	_ = p.Put("b", make([]byte, 20))
	_, _ = p.Get("a")
	_ = p.Delete("b")
	u := p.Usage()
	if u.Puts != 2 || u.Gets != 1 || u.Deletes != 1 {
		t.Fatalf("counters = %+v", u)
	}
	if u.BytesStored != 10 || u.BytesIn != 30 || u.BytesOut != 10 {
		t.Fatalf("bytes = %+v", u)
	}
}

func TestDumpIsInsiderView(t *testing.T) {
	p := newTestProvider(t)
	_ = p.Put("x", []byte("1"))
	_ = p.Put("y", []byte("2"))
	d := p.Dump()
	if len(d) != 2 || string(d["x"]) != "1" {
		t.Fatalf("Dump = %v", d)
	}
	d["x"][0] = 'Z'
	got, _ := p.Get("x")
	if got[0] != '1' {
		t.Fatal("Dump aliased stored data")
	}
}

func TestKeysSortedAndLen(t *testing.T) {
	p := newTestProvider(t)
	_ = p.Put("b", nil)
	_ = p.Put("a", nil)
	_ = p.Put("c", nil)
	keys := p.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("Keys = %v", keys)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	p := newTestProvider(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := p.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				got, err := p.Get(key)
				if err != nil || !bytes.Equal(got, []byte(key)) {
					t.Errorf("get %s: %q %v", key, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if p.Len() != 800 {
		t.Fatalf("Len = %d, want 800", p.Len())
	}
}

func TestFleet(t *testing.T) {
	a := MustNew(Info{Name: "A", PL: privacy.High, CL: 1}, Options{})
	b := MustNew(Info{Name: "B", PL: privacy.Low, CL: 0}, Options{})
	f, err := NewFleet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	got, err := f.At(0)
	if err != nil || got != a {
		t.Fatalf("At(0) = %v, %v", got, err)
	}
	if _, err := f.At(5); err == nil {
		t.Fatal("At(5) accepted")
	}
	if _, err := f.At(-1); err == nil {
		t.Fatal("At(-1) accepted")
	}
	pb, idx, err := f.ByName("B")
	if err != nil || pb != b || idx != 1 {
		t.Fatalf("ByName = %v, %d, %v", pb, idx, err)
	}
	if _, _, err := f.ByName("zzz"); err == nil {
		t.Fatal("unknown name accepted")
	}
	all := f.All()
	if len(all) != 2 || all[0] != a {
		t.Fatalf("All = %v", all)
	}
}

func TestFleetDuplicate(t *testing.T) {
	a := MustNew(Info{Name: "A", PL: privacy.High, CL: 1}, Options{})
	a2 := MustNew(Info{Name: "A", PL: privacy.Low, CL: 0}, Options{})
	if _, err := NewFleet(a, a2); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestFleetEligible(t *testing.T) {
	high := MustNew(Info{Name: "H", PL: privacy.High, CL: 3}, Options{})
	low := MustNew(Info{Name: "L", PL: privacy.Low, CL: 0}, Options{})
	f, _ := NewFleet(high, low)
	el := f.Eligible(privacy.Moderate)
	if len(el) != 1 || el[0] != 0 {
		t.Fatalf("Eligible(PL2) = %v", el)
	}
	el = f.Eligible(privacy.Public)
	if len(el) != 2 {
		t.Fatalf("Eligible(PL0) = %v", el)
	}
	high.SetOutage(true)
	el = f.Eligible(privacy.Moderate)
	if len(el) != 0 {
		t.Fatalf("outaged provider still eligible: %v", el)
	}
}

func TestPaperFleet(t *testing.T) {
	f, err := PaperFleet()
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 7 {
		t.Fatalf("Len = %d, want 7", f.Len())
	}
	earth, idx, err := f.ByName("Earth")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 3 walkthrough: "The sixth entry of Cloud Provider
	// Table is Earth."
	if idx != 6 {
		t.Fatalf("Earth at index %d, want 6", idx)
	}
	if earth.Info().PL != privacy.Low || earth.Info().CL != 1 {
		t.Fatalf("Earth info = %+v", earth.Info())
	}
	aws, _, _ := f.ByName("AWS")
	if aws.Info().PL != privacy.High {
		t.Fatalf("AWS PL = %v", aws.Info().PL)
	}
}

// Property: Put then Get returns the exact payload for arbitrary data.
func TestPutGetRoundTripProperty(t *testing.T) {
	p := MustNew(Info{Name: "q", PL: privacy.High, CL: 0}, Options{})
	i := 0
	f := func(data []byte) bool {
		i++
		key := fmt.Sprintf("k%d", i)
		if err := p.Put(key, data); err != nil {
			return false
		}
		got, err := p.Get(key)
		if err != nil {
			return false
		}
		if data == nil {
			return len(got) == 0
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package provider

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/privacy"
)

func newHookedMem(t *testing.T) *MemProvider {
	t.Helper()
	p, err := New(Info{Name: "hp", PL: privacy.High, CL: 0}, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

// TestHooksRunOutsideTheLock: hooks are called with the provider's lock
// released, so a hook may call back into its own provider, and a hook
// that blocks stalls only its own operation.
func TestHooksRunOutsideTheLock(t *testing.T) {
	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return: a hook ran under the provider's lock", what)
		}
	}

	h := newHookedMem(t)
	if err := h.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	h.SetBeforeGet(func(key string) error {
		if err := h.Put("seen-"+key, nil); err != nil {
			return err
		}
		if keys := h.Keys(); len(keys) != 2 {
			return fmt.Errorf("Keys inside the hook = %v", keys)
		}
		return nil
	})
	within("a Get whose hook calls Put and Keys", func() {
		if _, err := h.Get("k"); err != nil {
			t.Errorf("Get: %v", err)
		}
	})
	h.SetBeforeGet(nil)

	entered, release := make(chan struct{}), make(chan struct{})
	h.SetBeforePut(func(_ int, key string) error {
		if key == "blocked" {
			close(entered)
			<-release
		}
		return nil
	})
	putDone := make(chan error, 1)
	go func() { putDone <- h.Put("blocked", []byte("v")) }()
	<-entered
	within("a Get beside a Put blocked in its hook", func() {
		if _, err := h.Get("k"); err != nil {
			t.Errorf("Get: %v", err)
		}
	})
	close(release)
	if err := <-putDone; err != nil {
		t.Fatalf("blocked Put after release: %v", err)
	}
}

func TestHookedBeforeDelete(t *testing.T) {
	h := newHookedMem(t)
	if err := h.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	boom := errors.New("boom")
	h.SetBeforeDelete(func(key string) error {
		if key != "k" {
			t.Errorf("hook saw key %q, want k", key)
		}
		return boom
	})
	if err := h.Delete("k"); !errors.Is(err, boom) {
		t.Fatalf("Delete err = %v, want injected boom", err)
	}
	if _, err := h.Get("k"); err != nil {
		t.Fatalf("blob should survive an aborted delete: %v", err)
	}
	h.SetBeforeDelete(nil)
	if err := h.Delete("k"); err != nil {
		t.Fatalf("Delete after hook removal: %v", err)
	}
}

func TestHookedSilentDropDelete(t *testing.T) {
	h := newHookedMem(t)
	if err := h.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	h.SetBeforeDelete(func(string) error { return ErrSilentDrop })
	if err := h.Delete("k"); err != nil {
		t.Fatalf("silently dropped delete must report success, got %v", err)
	}
	if _, err := h.Get("k"); err != nil {
		t.Fatalf("silently dropped delete must leave the blob in place: %v", err)
	}
}

func TestHookedBeforeList(t *testing.T) {
	h := newHookedMem(t)
	for i := 0; i < 3; i++ {
		if err := h.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	h.SetBeforeList(func() error { return errors.New("listing refused") })
	if keys := h.Keys(); keys != nil {
		t.Fatalf("Keys under a failing list hook = %v, want nil", keys)
	}
	h.SetBeforeList(nil)
	if keys := h.Keys(); len(keys) != 3 {
		t.Fatalf("Keys after hook removal = %v, want 3 entries", keys)
	}
}

func TestHookedTransformGetCorruptsResultNotStore(t *testing.T) {
	h := newHookedMem(t)
	orig := []byte("payload-bytes")
	if err := h.Put("k", orig); err != nil {
		t.Fatalf("Put: %v", err)
	}
	h.SetTransformGet(func(key string, data []byte) []byte {
		data[0] ^= 0xff // same-length silent bit rot
		return data
	})
	got, err := h.Get("k")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if bytes.Equal(got, orig) {
		t.Fatal("transform did not corrupt the served bytes")
	}
	if len(got) != len(orig) {
		t.Fatalf("corruption changed length: %d != %d", len(got), len(orig))
	}
	h.SetTransformGet(nil)
	got, err = h.Get("k")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("stored blob was mutated by the transform; Get must hand the hook a private copy")
	}
}

func TestHookedPartition(t *testing.T) {
	h := newHookedMem(t)
	if err := h.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	var observed []string
	h.SetBeforeDelete(func(key string) error {
		observed = append(observed, key)
		return nil
	})
	h.SetPartitioned(true)
	if h.Down() {
		t.Fatal("a partition must be silent: Down() should stay false")
	}
	if err := h.Put("k2", []byte("v")); !errors.Is(err, ErrOutage) {
		t.Fatalf("Put under partition = %v, want ErrOutage", err)
	}
	if _, err := h.Get("k"); !errors.Is(err, ErrOutage) {
		t.Fatalf("Get under partition = %v, want ErrOutage", err)
	}
	if err := h.Delete("k"); !errors.Is(err, ErrOutage) {
		t.Fatalf("Delete under partition = %v, want ErrOutage", err)
	}
	if keys := h.Keys(); keys != nil {
		t.Fatalf("Keys under partition = %v, want nil", keys)
	}
	// The before-hook observes attempts even while the partition swallows
	// them — fault injectors depend on that to account for failed deletes.
	if len(observed) != 1 || observed[0] != "k" {
		t.Fatalf("before-delete hook observed %v, want [k]", observed)
	}
	h.SetPartitioned(false)
	if _, err := h.Get("k"); err != nil {
		t.Fatalf("Get after partition heals: %v", err)
	}
}

// TestViewKeepsEveryHook: View is Get without the copy, and nothing
// else — the before-get hook sees each key once, the usage counters
// count it, a partition refuses it, and a transform hook still gets a
// private copy to corrupt while the stored blob stays as it was.
func TestViewKeepsEveryHook(t *testing.T) {
	h := newHookedMem(t)
	orig := []byte("payload-bytes")
	for _, k := range []string{"a", "b"} {
		if err := h.Put(k, orig); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	seen := map[string]int{}
	h.SetBeforeGet(func(key string) error { seen[key]++; return nil })
	for _, k := range []string{"a", "b"} {
		got, err := h.View(k)
		if err != nil || !bytes.Equal(got, orig) {
			t.Fatalf("View(%s) = %q, %v", k, got, err)
		}
	}
	if seen["a"] != 1 || seen["b"] != 1 || len(seen) != 2 {
		t.Fatalf("before-get hook saw %v, want each key once", seen)
	}
	if _, err := h.Get("a"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if u := h.Usage(); u.Gets != 3 || u.BytesOut != 3*int64(len(orig)) {
		t.Fatalf("usage after two views and a get: %d gets, %d bytes out; want 3, %d", u.Gets, u.BytesOut, 3*len(orig))
	}

	h.SetPartitioned(true)
	if _, err := h.View("a"); !errors.Is(err, ErrOutage) {
		t.Fatalf("View under partition = %v, want ErrOutage", err)
	}
	h.SetPartitioned(false)

	h.SetTransformGet(func(key string, data []byte) []byte {
		data[0] ^= 0xff
		return data
	})
	got, err := h.View("a")
	if err != nil || len(got) != len(orig) || got[0] != orig[0]^0xff {
		t.Fatalf("View with a transform hook = %q, %v; want the transformed copy", got, err)
	}
	h.SetTransformGet(nil)
	if got, err := h.View("a"); err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("stored blob after a transformed View = %q, %v; the hook must get a copy", got, err)
	}
}

package farm

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestImageCachePanickingBuild pins that a panicking build cannot wedge
// its key: the builder and a request already waiting on the same key
// both get an error, and the next request builds afresh.
func TestImageCachePanickingBuild(t *testing.T) {
	c := newImageCache(1 << 20)
	release := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				first <- fmt.Errorf("panic escaped get: %v", r)
			}
		}()
		_, _, err := c.get("k", func() ([]byte, error) {
			<-release
			panic("boom")
		})
		first <- err
	}()
	waitFor(t, "the first build to start", func() bool { _, _, _, misses := c.stats(); return misses == 1 })

	second := make(chan error, 1)
	go func() {
		_, _, err := c.get("k", func() ([]byte, error) { return nil, errors.New("second build ran") })
		second <- err
	}()
	waitFor(t, "the second request to wait", func() bool { _, _, hits, _ := c.stats(); return hits == 1 })
	close(release)

	for name, ch := range map[string]chan error{"builder": first, "waiter": second} {
		select {
		case err := <-ch:
			if err == nil || err.Error() != "farm: building image: panic: boom" {
				t.Errorf("%s: err = %v, want the recovered panic", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: get still blocked after a panicking build", name)
		}
	}

	data, hit, err := c.get("k", func() ([]byte, error) { return []byte("image"), nil })
	if err != nil || hit || string(data) != "image" {
		t.Fatalf("rebuild after panic: data=%q hit=%v err=%v, want a fresh build", data, hit, err)
	}
	if entries, _, _, _ := c.stats(); entries != 1 {
		t.Fatalf("cache holds %d entries after the rebuild, want 1", entries)
	}
}

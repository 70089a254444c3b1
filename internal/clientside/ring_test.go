package clientside

import "testing"

func TestInOpenInterval(t *testing.T) {
	if !inOpenInterval(1, 5, 10) || inOpenInterval(1, 1, 10) || inOpenInterval(1, 10, 10) {
		t.Fatal("plain interval wrong")
	}
	// Wrapped interval (a > b).
	if !inOpenInterval(100, 5, 10) || !inOpenInterval(100, 200, 10) || inOpenInterval(100, 50, 10) {
		t.Fatal("wrapped interval wrong")
	}
	if inOpenInterval(7, 7, 7) || inOpenInterval(7, 3, 7) {
		t.Fatal("empty interval wrong")
	}
}

package proto

import "testing"

func TestArenaReuse(t *testing.T) {
	a := GetArena(4)
	boxes := a.Inboxes()
	if len(boxes) != 4 {
		t.Fatalf("len = %d, want 4", len(boxes))
	}
	boxes[2] = append(boxes[2], Delivery{Port: 9})
	a.Release()

	// A warm arena must come back with length-zero buffers: stale deliveries
	// from the previous run may never leak into a new one.
	b := GetArena(3)
	for i, box := range b.Inboxes() {
		if len(box) != 0 {
			t.Fatalf("inbox %d not reset: %v", i, box)
		}
	}
	b.Release()

	// Growing past the pooled capacity must produce fresh zeroed buffers.
	c := GetArena(64)
	if len(c.Inboxes()) != 64 {
		t.Fatalf("len = %d, want 64", len(c.Inboxes()))
	}
	for i, box := range c.Inboxes() {
		if len(box) != 0 {
			t.Fatalf("inbox %d not empty after growth", i)
		}
	}
	c.Release()
}

func TestSendBufTake(t *testing.T) {
	var b SendBuf
	s1 := b.Take(3)
	if len(s1) != 3 {
		t.Fatalf("len = %d, want 3", len(s1))
	}
	s1[0] = Send{Port: 1}
	s2 := b.Take(2)
	if len(s2) != 2 {
		t.Fatalf("len = %d, want 2", len(s2))
	}
	if &s1[0] != &s2[0] {
		t.Fatal("Take reallocated despite sufficient capacity")
	}
	if s3 := b.Take(100); len(s3) != 100 {
		t.Fatalf("len = %d, want 100", len(s3))
	}
}

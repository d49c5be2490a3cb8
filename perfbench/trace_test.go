package main

import "testing"

// fakeClock steps through the given timestamps, one per reading.
func fakeClock(ts ...int64) func() int64 {
	return func() int64 {
		t := ts[0]
		ts = ts[1:]
		return t
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// One cycle: event phase 0-100 containing a traffic tick 10-30 and a
	// core tick 40-90, which itself contains a delivery 50-60 and a
	// controller decision 70-75.
	s := spanStack{now: fakeClock(0, 10, 30, 40, 50, 60, 70, 75, 90, 100)}
	s.begin(layerEvent)
	s.begin(layerTrafficTick)
	s.end()
	s.begin(layerCore)
	s.begin(layerDeliver)
	s.end()
	s.begin(layerController)
	s.end()
	s.end()
	s.end()

	want := map[layer][2]int64{ // self, total
		layerEvent:       {30, 100},
		layerTrafficTick: {20, 20},
		layerCore:        {35, 50},
		layerDeliver:     {10, 10},
		layerController:  {5, 5},
	}
	for l, w := range want {
		if s.self[l] != w[0] || s.total[l] != w[1] {
			t.Errorf("layer %d: self %d total %d, want %d and %d", l, s.self[l], s.total[l], w[0], w[1])
		}
	}
	if got := s.selfSum(); got != 100 {
		t.Errorf("self times sum to %d, want the root span's 100", got)
	}
	if s.depth != 0 {
		t.Errorf("span stack left at depth %d", s.depth)
	}
}

func TestSpanSelfTimesAccumulate(t *testing.T) {
	s := spanStack{now: fakeClock(0, 2, 5, 9, 10, 11, 13, 20)}
	for i := 0; i < 2; i++ {
		s.begin(layerEvent)
		s.begin(layerCMESH)
		s.end()
		s.end()
	}
	// Cycle 1: root 0-9, cmesh 2-5. Cycle 2: root 10-20, cmesh 11-13.
	if s.self[layerEvent] != 6+8 || s.self[layerCMESH] != 3+2 || s.count[layerCMESH] != 2 {
		t.Errorf("self event %d cmesh %d (count %d)", s.self[layerEvent], s.self[layerCMESH], s.count[layerCMESH])
	}
}

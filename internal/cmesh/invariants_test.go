package cmesh

import (
	"fmt"
	"testing"

	"repro/internal/traffic"
)

// TestInvariantsUnderWorkload drives a full CPU+GPU workload on the mesh
// and checks credit and slot conservation after every cycle, at full and
// quarter link bandwidth.
func TestInvariantsUnderWorkload(t *testing.T) {
	for _, scale := range []int{1, 4} {
		t.Run(fmt.Sprintf("x%d", scale), func(t *testing.T) {
			engine, net := build(t)
			net.SetLinkScale(scale)
			w, err := traffic.NewWorkload(engine, net, traffic.TestPairs()[7], 11)
			if err != nil {
				t.Fatal(err)
			}
			net.SetDeliveryHandler(w.OnDeliver)
			engine.Register(w)
			engine.Register(net)
			for c := 0; c < 5000; c++ {
				engine.Step()
				if err := net.checkInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
			}
			if net.InFlight() == 0 {
				t.Fatal("mesh idle: the workload never loaded it")
			}
		})
	}
}

// TestInvariantsDetectLostCredit corrupts one credit counter and expects
// the check to name it.
func TestInvariantsDetectLostCredit(t *testing.T) {
	_, net := build(t)
	if err := net.checkInvariants(); err != nil {
		t.Fatalf("fresh mesh: %v", err)
	}
	net.routers[5].out[portEast][2].credits--
	if err := net.checkInvariants(); err == nil {
		t.Fatal("lost credit not detected")
	}
	net.routers[5].out[portEast][2].credits += 2
	if err := net.checkInvariants(); err == nil {
		t.Fatal("credit above SlotsPerVC not detected")
	}
	net.routers[5].out[portEast][2].credits--
	net.routers[9].occ |= 1
	if err := net.checkInvariants(); err == nil {
		t.Fatal("occupancy bit on an empty input not detected")
	}
}

package machine_test

import (
	"testing"

	"cosma/internal/machine"
	"cosma/internal/machine/conformance"
)

// The in-process backends run the shared transport conformance suite;
// the wire backend runs the same suite from its own package (loopback
// and over real sockets).

func TestConformanceCounting(t *testing.T) {
	conformance.Run(t, func(t *testing.T, p int) *conformance.Cluster {
		return &conformance.Cluster{Machines: []*machine.Machine{machine.New(p)}}
	})
}

func TestConformanceTimed(t *testing.T) {
	conformance.Run(t, func(t *testing.T, p int) *conformance.Cluster {
		return &conformance.Cluster{Machines: []*machine.Machine{machine.NewTimed(p, machine.PizDaintNet())}}
	})
}

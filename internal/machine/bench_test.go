package machine

import "testing"

// benchRoundTrip ping-pongs a 1024-word payload between two ranks b.N
// times: the Send copies draw from the buffer pool and the return path
// transfers ownership.
func benchRoundTrip(b *testing.B, m *Machine) {
	const words = 1024
	b.ReportAllocs()
	b.ResetTimer()
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			buf := make([]float64, words)
			for i := 0; i < b.N; i++ {
				r.Send(1, 1, buf)
				Release(r.Recv(1, 2))
			}
		} else {
			for i := 0; i < b.N; i++ {
				got := r.Recv(0, 1)
				r.SendOwned(0, 2, got)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSendRecvRoundTrip measures the counting transport.
func BenchmarkSendRecvRoundTrip(b *testing.B) { benchRoundTrip(b, New(2)) }

// BenchmarkTimedSendRecvRoundTrip measures the α-β-γ event-clock
// overhead on the same exchange.
func BenchmarkTimedSendRecvRoundTrip(b *testing.B) {
	benchRoundTrip(b, NewTimed(2, PizDaintNet()))
}

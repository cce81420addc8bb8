package engine

import "testing"

// BenchmarkEventThroughput measures raw kernel throughput: schedule
// and dispatch chained events.
func BenchmarkEventThroughput(b *testing.B) {
	s := NewSim()
	count := 0
	var next Handler
	next = func(now Time) {
		count++
		if count < b.N {
			s.At(now+10, 0, next)
		}
	}
	b.ResetTimer()
	s.At(0, 0, next)
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueChurn measures heap behaviour with many pending
// events.
func BenchmarkQueueChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSim()
		for j := 0; j < 1024; j++ {
			s.At(Time((j*37)%1024), j%3, func(Time) {})
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNextEdge measures clock-edge quantisation.
func BenchmarkNextEdge(b *testing.B) {
	c := NewClock(10989)
	var acc Time
	for i := 0; i < b.N; i++ {
		acc += c.NextEdge(Time(i * 977))
	}
	_ = acc
}

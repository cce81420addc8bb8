package explore

// ReferenceMP3Space is the benchmark configuration space for the
// paper's MP3 decoder: 10240 candidates spanning every axis the
// explorer prunes on. It is the space the repository benchmark's
// explore_mp3 workload and the committed BENCH_10.json record refer
// to; don't reshape it casually — the recorded pruning ratios are only
// comparable across runs of the same space.
//
// 4 segment counts × 2 mappings × 10 package sizes × 16 header costs
// × 8 CA hop costs = 10240.
func ReferenceMP3Space() *Space {
	return &Space{
		Name:         "mp3-ref",
		Segments:     []int{1, 2, 3, 4},
		Mappings:     []string{MappingSolve, MappingRoundRobin},
		PackageSizes: []int{4, 6, 9, 12, 18, 24, 36, 48, 72, 96},
		HeaderTicks:  []int{0, 2, 5, 10, 15, 25, 40, 60, 80, 100, 125, 150, 175, 200, 250, 300},
		CAHopTicks:   []int{0, 10, 25, 50, 100, 150, 200, 300},
	}
}

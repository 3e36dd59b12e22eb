package main

import "math"

var calibBuf = make([]byte, 4<<20)

// calibrate times a fixed CPU-bound loop — FNV-1a over 64 MiB, as 16
// passes over a 4 MiB buffer — and returns the fastest of three tries in
// milliseconds. Taken before and after a workload, the two readings say
// whether the host ran at one speed throughout.
func calibrate() float64 {
	best := math.Inf(1)
	for try := 0; try < 3; try++ {
		t := now()
		h := uint32(2166136261)
		for pass := 0; pass < 16; pass++ {
			for _, b := range calibBuf {
				h = (h ^ uint32(b)) * 16777619
			}
		}
		calibSink = h
		best = math.Min(best, float64(now()-t)/1e6)
	}
	return best
}

var calibSink uint32

func calibDrift(before, after float64) float64 { return math.Abs(after-before) / before }

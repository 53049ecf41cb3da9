package main

import (
	"sort"
	"time"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of the values (mean of the middle two for an even count); 0 when
// empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// lowerQuartile is the value a quarter of the way up the sorted values
// (nearest rank: the second fastest of five to eight jobs). It is how a
// handful of job times is summarised: interference on a shared host only
// ever slows a job, and on the recording host it comes in episodes of
// seconds (x2.3) that can cover half the jobs of a run, so the median of six
// flips between two regimes while the lower quartile repeats.
func lowerQuartile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sorted(v)[len(v)/4]
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4) gives
// (its default "exclusive" method), which is what the driver computes
// spreads with. They need at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the value at fraction q of the sorted durations
// (nearest rank), in milliseconds.
func percentileMs(sortedDur []time.Duration, q float64) float64 {
	if len(sortedDur) == 0 {
		return 0
	}
	i := min(int(q*float64(len(sortedDur))), len(sortedDur)-1)
	return float64(sortedDur[i].Nanoseconds()) / 1e6
}

// timeIt returns how long f took.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// medianOf runs f reps times and returns the median duration in seconds.
func medianOf(reps int, f func()) float64 {
	v := make([]float64, reps)
	for i := range v {
		v[i] = timeIt(f).Seconds()
	}
	return median(v)
}

// sortDurations sorts in place and returns its argument.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

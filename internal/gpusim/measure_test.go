package gpusim

import (
	"slices"
	"testing"

	"grophecy/internal/gpu"
	"grophecy/internal/perfmodel"
)

// TestMeasureMeanMatchesRuns pins MeasureMean to the protocol it
// stands for: on twin simulators, one MeasureMean call and runs calls
// of Run yield the bit-identical mean, leave the noise stream at the
// same point, and record the same launches.
func TestMeasureMeanMatchesRuns(t *testing.T) {
	irregular := streaming(1 << 18)
	irregular.IrregularFraction = 0.4
	irregular.SyncsPerThread = 3
	for _, ch := range []perfmodel.Characteristics{streaming(1 << 10), streaming(1 << 20), irregular} {
		for _, runs := range []int{1, 10} {
			measured, looped := New(gpu.QuadroFX5600(), DefaultConfig()), New(gpu.QuadroFX5600(), DefaultConfig())

			launches, seen, buckets := mLaunches.Value(), mLaunchSeconds.Count(), mLaunchSeconds.BucketCounts()
			mean, err := measured.MeasureMean(ch, runs)
			if err != nil {
				t.Fatal(err)
			}
			measuredLaunches := mLaunches.Value() - launches
			measuredSeen := mLaunchSeconds.Count() - seen
			measuredBuckets := bucketDelta(buckets, mLaunchSeconds.BucketCounts())

			launches, seen, buckets = mLaunches.Value(), mLaunchSeconds.Count(), mLaunchSeconds.BucketCounts()
			var sum float64
			for i := 0; i < runs; i++ {
				v, err := looped.Run(ch)
				if err != nil {
					t.Fatal(err)
				}
				sum += v
			}
			if want := sum / float64(runs); mean != want {
				t.Errorf("%d threads, %d runs: MeasureMean %v, mean of Run %v", ch.Threads, runs, mean, want)
			}
			if got := mLaunches.Value() - launches; got != measuredLaunches || got != int64(runs) {
				t.Errorf("%d runs: launches %d by Run, %d by MeasureMean", runs, got, measuredLaunches)
			}
			if got := mLaunchSeconds.Count() - seen; got != measuredSeen {
				t.Errorf("%d runs: histogram count %d by Run, %d by MeasureMean", runs, got, measuredSeen)
			}
			if got := bucketDelta(buckets, mLaunchSeconds.BucketCounts()); !slices.Equal(got, measuredBuckets) {
				t.Errorf("%d runs: histogram buckets %v by Run, %v by MeasureMean", runs, got, measuredBuckets)
			}
			if a, b := measured.noise.Uint64(), looped.noise.Uint64(); a != b {
				t.Errorf("%d runs: next noise draw %d after MeasureMean, %d after Run", runs, a, b)
			}
		}
	}
}

func bucketDelta(before, after []int64) []int64 {
	d := make([]int64, len(after))
	for i := range after {
		d[i] = after[i] - before[i]
	}
	return d
}

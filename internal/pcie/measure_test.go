package pcie

import (
	"slices"
	"testing"

	"grophecy/internal/units"
)

// TestMeasureMeanMatchesTransfers pins MeasureMean to the protocol it
// stands for: on twin buses, one MeasureMean call and runs calls of
// Transfer yield the bit-identical mean, leave the noise stream at the
// same point, and advance Stats and the bus counters alike. The
// sizes include uploads inside the anomaly window, and the noisy
// configuration makes spikes and anomalies fire often.
func TestMeasureMeanMatchesTransfers(t *testing.T) {
	noisy := DefaultConfig()
	noisy.SpikeProbability = 0.5
	noisy.AnomalyProbability = 0.5
	anomalous := 2*units.MB + 12345
	if anomalous < noisy.AnomalyMinSize || anomalous > noisy.AnomalyMaxSize || anomalous%noisy.StagingChunk == 0 {
		t.Fatalf("size %d is outside the anomaly window", anomalous)
	}
	for _, cfg := range []Config{DefaultConfig(), noisy} {
		for _, dir := range []Direction{HostToDevice, DeviceToHost} {
			for _, kind := range []MemoryKind{Pinned, Pageable} {
				for _, size := range []int64{0, 1024, 300 * units.KB, anomalous} {
					checkTwinBuses(t, cfg, dir, kind, size, 10)
				}
			}
		}
	}
	checkTwinBuses(t, noisy, HostToDevice, Pinned, anomalous, 1)
}

func checkTwinBuses(t *testing.T, cfg Config, dir Direction, kind MemoryKind, size int64, runs int) {
	t.Helper()
	measured, looped := NewBus(cfg), NewBus(cfg)

	transfers, moved, seen, buckets := mTransfers.Value(), mBytes.Value(), mTransferSeconds.Count(), mTransferSeconds.BucketCounts()
	mean, err := measured.MeasureMean(dir, kind, size, runs)
	if err != nil {
		t.Fatal(err)
	}
	measuredTransfers, measuredMoved := mTransfers.Value()-transfers, mBytes.Value()-moved
	measuredSeen := mTransferSeconds.Count() - seen
	measuredBuckets := bucketDelta(buckets, mTransferSeconds.BucketCounts())

	transfers, moved, seen, buckets = mTransfers.Value(), mBytes.Value(), mTransferSeconds.Count(), mTransferSeconds.BucketCounts()
	var sum float64
	for i := 0; i < runs; i++ {
		v, err := looped.Transfer(dir, kind, size)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	what := [...]any{dir, kind, size, runs}
	if want := sum / float64(runs); mean != want {
		t.Errorf("%v: MeasureMean %v, mean of Transfer %v", what, mean, want)
	}
	if a, b := measured.Stats(), looped.Stats(); a != b || a.Transfers != runs {
		t.Errorf("%v: stats %+v after MeasureMean, %+v after Transfer", what, a, b)
	}
	if got := mTransfers.Value() - transfers; got != measuredTransfers {
		t.Errorf("%v: transfer counter +%d by Transfer, +%d by MeasureMean", what, got, measuredTransfers)
	}
	if got := mBytes.Value() - moved; got != measuredMoved {
		t.Errorf("%v: byte counter +%d by Transfer, +%d by MeasureMean", what, got, measuredMoved)
	}
	if got := mTransferSeconds.Count() - seen; got != measuredSeen {
		t.Errorf("%v: histogram count +%d by Transfer, +%d by MeasureMean", what, got, measuredSeen)
	}
	if got := bucketDelta(buckets, mTransferSeconds.BucketCounts()); !slices.Equal(got, measuredBuckets) {
		t.Errorf("%v: histogram buckets %v by Transfer, %v by MeasureMean", what, got, measuredBuckets)
	}
	if a, b := measured.NoiseState(), looped.NoiseState(); a != b {
		t.Errorf("%v: noise state %d after MeasureMean, %d after Transfer", what, a, b)
	}
	if a, b := measured.noise.Uint64(), looped.noise.Uint64(); a != b {
		t.Errorf("%v: next noise draw %d after MeasureMean, %d after Transfer", what, a, b)
	}
}

func bucketDelta(before, after []int64) []int64 {
	d := make([]int64, len(after))
	for i := range after {
		d[i] = after[i] - before[i]
	}
	return d
}

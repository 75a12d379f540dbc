package cpumodel

import "testing"

// TestMeasureMeanMatchesRuns pins MeasureMean to the protocol it
// stands for: on twin simulators, one MeasureMean call and runs calls
// of Run yield the bit-identical mean and leave the noise stream at
// the same point.
func TestMeasureMeanMatchesRuns(t *testing.T) {
	irregular := stencil(1 << 16)
	irregular.IrregularFraction = 0.3
	irregular.Vectorizable = true
	for _, w := range []Workload{stencil(1000), stencil(1 << 22), irregular} {
		for _, runs := range []int{1, 10} {
			measured, looped := newSim(), newSim()
			mean, err := measured.MeasureMean(w, runs)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for i := 0; i < runs; i++ {
				v, err := looped.Run(w)
				if err != nil {
					t.Fatal(err)
				}
				sum += v
			}
			if want := sum / float64(runs); mean != want {
				t.Errorf("%d elements, %d runs: MeasureMean %v, mean of Run %v", w.Elements, runs, mean, want)
			}
			if a, b := measured.noise.Uint64(), looped.noise.Uint64(); a != b {
				t.Errorf("%d runs: next noise draw %d after MeasureMean, %d after Run", runs, a, b)
			}
		}
	}
}

package transform

import (
	"testing"

	"grophecy/internal/gpu"
)

// BenchmarkEnumerate measures a memo hit: the key render and the
// caller's copy of the cached variants.
func BenchmarkEnumerate(b *testing.B) {
	k := stencilKernel(1024)
	arch := gpu.QuadroFX5600()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Enumerate(k, arch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnumerateCold measures a memo miss: with the memo off,
// every call validates the kernel, analyzes it and synthesizes every
// variant.
func BenchmarkEnumerateCold(b *testing.B) {
	prev := SetCacheEnabled(false)
	defer SetCacheEnabled(prev)
	k := stencilKernel(1024)
	arch := gpu.QuadroFX5600()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Enumerate(k, arch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBest(b *testing.B) {
	k := stencilKernel(1024)
	arch := gpu.QuadroFX5600()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Best(k, arch); err != nil {
			b.Fatal(err)
		}
	}
}

package transform

import (
	"context"
	"testing"

	"grophecy/internal/gpu"
)

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

func BenchmarkBest(b *testing.B) {
	k := stencilKernel(1024)
	arch := gpu.QuadroFX5600()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Best(context.Background(), k, arch); err != nil {
			b.Fatal(err)
		}
	}
}

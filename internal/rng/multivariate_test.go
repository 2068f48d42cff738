package rng

import (
	"math"
	"testing"

	"repro/internal/la"
)

func TestMVNFromPrecCholMoments(t *testing.T) {
	// Precision Λ = [[2, 0.5], [0.5, 1]]; covariance Σ = Λ⁻¹.
	k := 2
	prec := la.NewMatrixFrom([][]float64{{2, 0.5}, {0.5, 1}})
	precL := la.NewMatrix(k, k)
	if err := la.Cholesky(prec, precL); err != nil {
		t.Fatal(err)
	}
	cov := la.NewMatrix(k, k)
	la.InvFromCholWS(precL, cov, la.NewVector(k), la.NewVector(k))

	mu := la.Vector{1, -2}
	s := New(77)
	n := 200000
	sum := la.NewVector(k)
	sumSq := la.NewMatrix(k, k)
	dst := la.NewVector(k)
	scratch := la.NewVector(k)
	for i := 0; i < n; i++ {
		s.MVNFromPrecChol(mu, precL, dst, scratch)
		la.Axpy(1, dst, sum)
		la.SyrLower(1, dst, sumSq)
	}
	for i := 0; i < k; i++ {
		m := sum[i] / float64(n)
		if math.Abs(m-mu[i]) > 0.02 {
			t.Fatalf("mean[%d] = %v, want %v", i, m, mu[i])
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			c := sumSq.At(i, j)/float64(n) - (sum[i]/float64(n))*(sum[j]/float64(n))
			if math.Abs(c-cov.At(i, j)) > 0.03 {
				t.Fatalf("cov[%d,%d] = %v, want %v", i, j, c, cov.At(i, j))
			}
		}
	}
}

func TestWishartMean(t *testing.T) {
	// E[W(V, nu)] = nu * V.
	k := 3
	v := la.NewMatrixFrom([][]float64{
		{1.0, 0.3, 0.1},
		{0.3, 2.0, -0.2},
		{0.1, -0.2, 0.5},
	})
	vL := la.NewMatrix(k, k)
	if err := la.Cholesky(v, vL); err != nil {
		t.Fatal(err)
	}
	nu := 7.0
	s := New(99)
	n := 20000
	acc := la.NewMatrix(k, k)
	w, sa, sb := la.NewMatrix(k, k), la.NewMatrix(k, k), la.NewMatrix(k, k)
	for i := 0; i < n; i++ {
		s.WishartWS(vL, nu, w, sa, sb)
		acc.Add(w)
	}
	acc.ScaleInPlace(1 / float64(n))
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			want := nu * v.At(i, j)
			if math.Abs(acc.At(i, j)-want) > 0.15 {
				t.Fatalf("E[W][%d,%d] = %v, want %v", i, j, acc.At(i, j), want)
			}
		}
	}
}

func TestWishartSamplesAreSPD(t *testing.T) {
	k := 8
	vL := la.Eye(k)
	s := New(321)
	w, sa, sb := la.NewMatrix(k, k), la.NewMatrix(k, k), la.NewMatrix(k, k)
	l := la.NewMatrix(k, k)
	for i := 0; i < 200; i++ {
		s.WishartWS(vL, float64(k), w, sa, sb)
		if err := la.Cholesky(w, l); err != nil {
			t.Fatalf("draw %d not SPD: %v", i, err)
		}
		// Symmetry check.
		for a := 0; a < k; a++ {
			for b := 0; b < a; b++ {
				if w.At(a, b) != w.At(b, a) {
					t.Fatal("Wishart draw not symmetric")
				}
			}
		}
	}
}

func TestWishartDFPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wishart with nu <= K-1 must panic")
		}
	}()
	k := 4
	New(1).WishartWS(la.Eye(k), 2.0, la.NewMatrix(k, k), la.NewMatrix(k, k), la.NewMatrix(k, k))
}

package main

import (
	"errors"
	"fmt"
	"math"
)

// refTolerance is the largest relative difference (to the largest initial
// magnitude) allowed between a solver's state and the plain Jacobi
// reference below. The reference sums the neighbours in its own order, so
// the two differ by rounding only: a few ulps per step, far below 1e-10.
const refTolerance = 1e-10

// boundSlack is the rounding allowance of the maximum-principle check, as a
// share of the largest initial magnitude: a convex combination computed in
// floating point may land an ulp or two outside the exact range.
const boundSlack = 1e-12

// problem is one constant-coefficient star stencil problem on a flat
// row-major grid (last dimension unit stride), with a fixed boundary ring
// of width order.
type problem struct {
	dims  []int
	order int
	steps int
}

// interior is the number of cells updated per step.
func (p problem) interior() int64 {
	n := int64(1)
	for _, d := range p.dims {
		n *= int64(d - 2*p.order)
	}
	return n
}

// updates is the number of point updates one solve of p performs.
func (p problem) updates() int64 { return p.interior() * int64(p.steps) }

// referenceJacobi advances init by p.steps plain Jacobi sweeps with the
// normalized star weights (centre 1/2, the 2·nd·order neighbours sharing
// the other 1/2) and returns the final state, overwriting init on the way.
// It is a deliberately simple
// serial loop, written independently of the library's kernels, so the
// solvers are checked against something that does not share their code.
func referenceJacobi(p problem, init []float64) []float64 {
	nd := len(p.dims)
	stride := make([]int, nd)
	stride[nd-1] = 1
	for k := nd - 2; k >= 0; k-- {
		stride[k] = stride[k+1] * p.dims[k+1]
	}
	var offs []int
	for k := 0; k < nd; k++ {
		for r := 1; r <= p.order; r++ {
			offs = append(offs, -r*stride[k], r*stride[k])
		}
	}
	centre := 0.5
	w := 0.5 / float64(len(offs))
	src := init
	dst := append([]float64(nil), init...)
	s := p.order
	inner := p.dims[nd-1] - 2*s
	pt := make([]int, nd-1)
	for t := 0; t < p.steps; t++ {
		for k := range pt {
			pt[k] = s
		}
		for {
			base := s
			for k, c := range pt {
				base += c * stride[k]
			}
			for i := base; i < base+inner; i++ {
				sum := 0.0
				for _, o := range offs {
					sum += src[i+o]
				}
				dst[i] = centre*src[i] + w*sum
			}
			k := len(pt) - 1
			for k >= 0 {
				pt[k]++
				if pt[k] < p.dims[k]-s {
					break
				}
				pt[k] = s
				k--
			}
			if k < 0 {
				break
			}
		}
		src, dst = dst, src
	}
	return src
}

// initial fills a grid of p.dims with the seeded smooth field
// Σ_k sin(a_k·x_k + φ_k). Its range depends on the seed; the field covers
// the boundary ring too, which stays fixed.
func initialField(a, phi []float64) func(pt []int) float64 {
	return func(pt []int) float64 {
		v := 0.0
		for k, c := range pt {
			v += math.Sin(a[k]*float64(c) + phi[k])
		}
		return v
	}
}

// fill evaluates f over every cell of dims in flat row-major order.
func fill(dims []int, f func(pt []int) float64) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	out := make([]float64, n)
	pt := make([]int, len(dims))
	for i := range out {
		out[i] = f(pt)
		for k := len(dims) - 1; k >= 0; k-- {
			pt[k]++
			if pt[k] < dims[k] {
				break
			}
			pt[k] = 0
		}
	}
	return out
}

// stateHash hashes the exact bit patterns of a state, one 64-bit word at a
// time (FNV-1a over words), so two states hash alike only when they agree
// bit for bit.
func stateHash(xs []float64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h = (h ^ math.Float64bits(x)) * prime
	}
	return h
}

// valueRange returns the minimum and maximum of xs.
func valueRange(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// checkAgainstReference compares got with the reference state within
// refTolerance relative to scale.
func checkAgainstReference(got, ref []float64, scale float64) error {
	if len(ref) == 0 {
		return errors.New("reference check: empty reference state")
	}
	if len(got) != len(ref) {
		return fmt.Errorf("reference check: state has %d cells, reference %d", len(got), len(ref))
	}
	tol := refTolerance * math.Max(scale, 1)
	for i := range ref {
		if d := math.Abs(got[i] - ref[i]); !(d <= tol) {
			return fmt.Errorf("reference check: cell %d is %.17g, reference %.17g (|diff| %.3g > %.3g)", i, got[i], ref[i], d, tol)
		}
	}
	return nil
}

// checkMaxPrinciple verifies that no value left the initial range [lo, hi]:
// with non-negative weights summing to one, every update is a convex
// combination of values already in the range.
func checkMaxPrinciple(got []float64, lo, hi float64) error {
	if len(got) == 0 {
		return errors.New("maximum principle: empty state")
	}
	slack := boundSlack * math.Max(math.Max(math.Abs(lo), math.Abs(hi)), 1)
	for i, x := range got {
		if !(x >= lo-slack && x <= hi+slack) {
			return fmt.Errorf("maximum principle: cell %d is %.17g, outside the initial range [%.17g, %.17g]", i, x, lo, hi)
		}
	}
	return nil
}

// checkSameState verifies that every named run exported a state with the
// same bit-exact hash: every scheme performs the same updates, only in
// another order.
func checkSameState(hashes []namedHash) error {
	if len(hashes) < 2 {
		return fmt.Errorf("agreement check: need at least two runs to compare, got %d", len(hashes))
	}
	for _, h := range hashes[1:] {
		if h.hash != hashes[0].hash {
			return fmt.Errorf("agreement check: %s state hash %016x differs from %s %016x", h.name, h.hash, hashes[0].name, hashes[0].hash)
		}
	}
	return nil
}

type namedHash struct {
	name string
	hash uint64
}

// checkUpdates verifies a reported update count against the problem's
// interior cells times steps.
func checkUpdates(what string, got int64, p problem) error {
	want := p.updates()
	if want <= 0 {
		return fmt.Errorf("%s: problem has no updates", what)
	}
	if got != want {
		return fmt.Errorf("%s: reported %d updates, want %d (interior %d × %d steps)", what, got, want, p.interior(), p.steps)
	}
	return nil
}

package exec

import "math"

// exactSum adds float64 values without rounding error (Shewchuk's
// non-overlapping partials, the fsum algorithm), so result is the correctly
// rounded sum of the multiset added, whatever order it arrived in, as long as
// no running total leaves float64's range on the way. One that does (it takes
// inputs near ±1e308) is reported as ±Inf, as plain float addition and a total
// that truly overflows would, even if later inputs of the other sign would
// have brought it back: at that extreme the result still depends on order.
// (Python's fsum stops with "intermediate overflow" in the same place.)
type exactSum struct {
	partials []float64
	// special sums the non-finite inputs; any of them decides the result.
	special    float64
	hasSpecial bool
}

func (s *exactSum) add(x float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		s.special, s.hasSpecial = s.special+x, true
		return
	}
	i := 0
	for _, y := range s.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if math.IsInf(hi, 0) {
			s.special, s.hasSpecial = s.special+hi, true
			return
		}
		if lo := y - (hi - x); lo != 0 {
			s.partials[i] = lo
			i++
		}
		x = hi
	}
	s.partials = append(s.partials[:i], x)
}

func (s *exactSum) result() float64 {
	if s.hasSpecial {
		return s.special
	}
	n := len(s.partials)
	if n == 0 {
		return 0
	}
	// Sum from the largest partial down until a step is inexact; what
	// remains below only decides a half-way rounding.
	n--
	hi := s.partials[n]
	var lo float64
	for n > 0 {
		n--
		x, y := hi, s.partials[n]
		hi = x + y
		if lo = y - (hi - x); lo != 0 {
			break
		}
	}
	if n > 0 && (lo < 0) == (s.partials[n-1] < 0) {
		// hi is half an ulp off and the next partial pushes the same way:
		// round half to even would go wrong, so step hi if that is exact.
		if y := lo * 2; y == (hi+y)-hi {
			hi += y
		}
	}
	return hi
}

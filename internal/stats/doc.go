// Package stats implements the analytic results of the paper with no
// dependencies beyond the standard library:
//
//   - Lemma 4.1: Chernoff concentration of the number of peers whose
//     uniform random value lands in a slice of width p, and the minimal
//     slice width for which a (β, ε) concentration guarantee holds.
//   - Theorem 5.1: the number of samples a ranking node must observe to
//     estimate its slice with a given confidence, as a function of its
//     distance to the nearest slice boundary (Wald large-sample normal
//     test in the binomial case).
//
// Its tests check Lemma 4.1 against the exact binomial tail, and the §4.4
// claim that the probability of splitting n peers into two perfectly
// equal slices by uniform random values is less than √(2/(nπ)) against
// the exact central binomial term.
//
// The package also provides the standard normal quantile function Φ⁻¹
// (needed by Theorem 5.1), implemented with Acklam's rational
// approximation refined by one Halley step, accurate to ~1e-15.
package stats
